"""Attention building blocks: multi-head attention and a Transformer encoder
layer.

The HFTA paper (Appendix B) notes that, building on the per-operator fusion
rules, it also provides a fused multi-head attention layer and a fused
Transformer encoder layer; these unfused versions are their baselines and are
used by the Transformer-LM and BERT-Medium secondary benchmarks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import functional as F
from ..tensor import Tensor
from .activation import GELU, ReLU
from .dropout import Dropout
from .linear import Linear
from .module import Module
from .norm import LayerNorm

__all__ = ["MultiheadAttention", "TransformerEncoderLayer"]


class MultiheadAttention(Module):
    """Scaled dot-product multi-head self-attention (batch-first layout).

    Input/output shape: ``[N, L, E]`` where ``N`` is the batch, ``L`` the
    sequence length and ``E`` the embedding dimension.
    """

    def __init__(self, embed_dim: int, num_heads: int, dropout: float = 0.0,
                 generator: Optional[np.random.Generator] = None):
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.q_proj = Linear(embed_dim, embed_dim, generator=generator)
        self.k_proj = Linear(embed_dim, embed_dim, generator=generator)
        self.v_proj = Linear(embed_dim, embed_dim, generator=generator)
        self.out_proj = Linear(embed_dim, embed_dim, generator=generator)
        self.dropout = Dropout(dropout) if dropout > 0 else None

    def forward(self, query: Tensor, key: Optional[Tensor] = None,
                value: Optional[Tensor] = None,
                attn_mask: Optional[np.ndarray] = None) -> Tensor:
        """``attn_mask``: an additive float mask broadcast to the scores,
        ``[N, H, Lq, Lk]`` (``-inf`` forbids a position); any other dtype
        raises ``TypeError``."""
        key = query if key is None else key
        value = query if value is None else value
        drop = self.dropout
        out = F.attention(self.q_proj(query), self.k_proj(key),
                          self.v_proj(value), self.num_heads, attn_mask,
                          0.0 if drop is None else drop.p,
                          drop is not None and drop.training,
                          None if drop is None else drop.generator)
        return self.out_proj(out)

    def extra_repr(self) -> str:
        return f"embed_dim={self.embed_dim}, num_heads={self.num_heads}"


class TransformerEncoderLayer(Module):
    """Post-norm Transformer encoder layer (self-attention + feed-forward)."""

    def __init__(self, d_model: int, nhead: int, dim_feedforward: int = 2048,
                 dropout: float = 0.1, activation: str = "relu",
                 generator: Optional[np.random.Generator] = None):
        super().__init__()
        self.self_attn = MultiheadAttention(d_model, nhead, dropout, generator)
        self.linear1 = Linear(d_model, dim_feedforward, generator=generator)
        self.linear2 = Linear(dim_feedforward, d_model, generator=generator)
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.dropout = Dropout(dropout) if dropout > 0 else None
        if activation == "relu":
            self.activation = ReLU()
        elif activation == "gelu":
            self.activation = GELU()
        else:
            raise ValueError(f"unsupported activation: {activation}")

    def forward(self, x: Tensor, attn_mask: Optional[np.ndarray] = None) -> Tensor:
        attn_out = self.self_attn(x, attn_mask=attn_mask)
        if self.dropout is not None:
            attn_out = self.dropout(attn_out)
        x = self.norm1(x, residual=attn_out)
        ff = self.linear2(self.activation(self.linear1(x)))
        if self.dropout is not None:
            ff = self.dropout(ff)
        return self.norm2(x, residual=ff)
