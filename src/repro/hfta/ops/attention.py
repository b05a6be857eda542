"""Horizontally fused attention layers.

Appendix B of the paper states that, on top of the per-operator fusion rules,
HFTA also ships a fused multi-head attention layer and a fused Transformer
encoder layer so that attention-based models (Transformer-LM, BERT) can be
fused end-to-end.  These are straightforward compositions of the fused
``Linear`` and ``LayerNorm`` operators: every projection becomes a batched
GEMM over the array dimension ``B`` and the attention core, one
``F.attention`` node, is independent per model because the array dimension
is carried as an extra batch axis.  Their dropout and activation members are
the serial :mod:`repro.nn` layers, which act on the ``[B, N, L, E]`` layout
unchanged.
"""

from __future__ import annotations

from ... import nn
from ...nn.modules import attention as serial
from ...nn.modules.module import Module
from .linear import Linear
from .norm import LayerNorm

__all__ = ["MultiheadAttention", "TransformerEncoderLayer"]


class MultiheadAttention(Module):
    """``B`` fused multi-head self-attention layers.

    Input/output layout: ``[B, N, L, E]`` (array dim, batch, sequence,
    embedding).  ``forward`` is the unfused layer's: ``attn_mask`` is an
    additive float mask broadcast to the scores ``[B, N, H, Lq, Lk]``
    (``[B, 1, 1, Lq, Lk]`` gives each model its own).
    """

    def __init__(self, num_models: int, embed_dim: int, num_heads: int,
                 dropout: float = 0.0, generator=None):
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        self.num_models = num_models
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.q_proj = Linear(num_models, embed_dim, embed_dim, generator=generator)
        self.k_proj = Linear(num_models, embed_dim, embed_dim, generator=generator)
        self.v_proj = Linear(num_models, embed_dim, embed_dim, generator=generator)
        self.out_proj = Linear(num_models, embed_dim, embed_dim, generator=generator)
        self.dropout = nn.Dropout(dropout) if dropout > 0 else None

    forward = serial.MultiheadAttention.forward

    def extra_repr(self) -> str:
        return (f"B={self.num_models}, embed_dim={self.embed_dim}, "
                f"num_heads={self.num_heads}")


class TransformerEncoderLayer(Module):
    """``B`` fused post-norm Transformer encoder layers.

    Input/output layout: ``[B, N, L, E]``.  ``forward`` is the unfused
    layer's: its fused sublayers carry the array dimension.
    """

    def __init__(self, num_models: int, d_model: int, nhead: int,
                 dim_feedforward: int = 2048, dropout: float = 0.1,
                 activation: str = "relu", generator=None):
        super().__init__()
        self.num_models = num_models
        self.self_attn = MultiheadAttention(num_models, d_model, nhead,
                                            dropout, generator)
        self.linear1 = Linear(num_models, d_model, dim_feedforward,
                              generator=generator)
        self.linear2 = Linear(num_models, dim_feedforward, d_model,
                              generator=generator)
        self.norm1 = LayerNorm(num_models, d_model)
        self.norm2 = LayerNorm(num_models, d_model)
        self.dropout = nn.Dropout(dropout) if dropout > 0 else None
        if activation == "relu":
            self.activation = nn.ReLU()
        elif activation == "gelu":
            self.activation = nn.GELU()
        else:
            raise ValueError(f"unsupported activation: {activation}")

    forward = serial.TransformerEncoderLayer.forward
