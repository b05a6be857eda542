"""BERT-Medium (Turc et al., 2019) masked language model — secondary benchmark.

BERT-Medium is an 8-layer, 8-head, hidden-size-512 Transformer encoder with
learned token / position / segment embeddings and a masked-LM head.  The
paper trains it on WikiText-2 with batch size and sequence length 32 using
Adadelta.  As with the other models, the same definition builds either the
unfused model or the HFTA array (batched ``[B, N, L]`` layout).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..hfta.ops.factory import OpsLibrary
from ..nn.tensor import Tensor

__all__ = ["BertConfig", "BertMaskedLM"]


class BertConfig:
    """Hyper-parameters of the encoder stack.

    The defaults are BERT-Medium (L=8, H=512, A=8); unit tests shrink them.
    """

    def __init__(self, vocab_size: int = 4000, hidden_size: int = 512,
                 num_layers: int = 8, num_heads: int = 8,
                 intermediate_size: int = 2048, max_len: int = 128,
                 num_segments: int = 2, dropout: float = 0.1):
        self.vocab_size = vocab_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.intermediate_size = intermediate_size
        self.max_len = max_len
        self.num_segments = num_segments
        self.dropout = dropout

    @classmethod
    def medium(cls, vocab_size: int = 4000, max_len: int = 128) -> "BertConfig":
        return cls(vocab_size=vocab_size, hidden_size=512, num_layers=8,
                   num_heads=8, intermediate_size=2048, max_len=max_len)

    @classmethod
    def tiny(cls, vocab_size: int = 200, max_len: int = 32) -> "BertConfig":
        """A very small configuration for unit tests."""
        return cls(vocab_size=vocab_size, hidden_size=32, num_layers=2,
                   num_heads=2, intermediate_size=64, max_len=max_len)


class BertMaskedLM(nn.Module):
    """BERT encoder with a masked-LM prediction head.

    Inputs: token ids ``[N, L]`` (unfused) or ``[B, N, L]`` (fused), plus
    optional segment ids of the same shape.  Output: vocabulary logits for
    every position.
    """

    def __init__(self, config: Optional[BertConfig] = None,
                 num_models: Optional[int] = None, generator=None):
        super().__init__()
        self.config = config if config is not None else BertConfig.medium()
        cfg = self.config
        self.lib = OpsLibrary(num_models)
        lib = self.lib
        self.token_embedding = lib.Embedding(cfg.vocab_size, cfg.hidden_size,
                                             generator=generator)
        self.position_embedding = lib.Embedding(cfg.max_len, cfg.hidden_size,
                                                generator=generator)
        self.segment_embedding = lib.Embedding(cfg.num_segments,
                                               cfg.hidden_size,
                                               generator=generator)
        self.embedding_norm = lib.LayerNorm(cfg.hidden_size)
        self.embedding_dropout = lib.Dropout(cfg.dropout) if cfg.dropout > 0 else None
        self.layers = nn.ModuleList([
            lib.TransformerEncoderLayer(cfg.hidden_size, cfg.num_heads,
                                        cfg.intermediate_size, cfg.dropout,
                                        activation="gelu", generator=generator)
            for _ in range(cfg.num_layers)])
        self.mlm_transform = lib.Linear(cfg.hidden_size, cfg.hidden_size,
                                        generator=generator)
        self.mlm_act = lib.GELU()
        self.mlm_norm = lib.LayerNorm(cfg.hidden_size)
        self.mlm_output = lib.Linear(cfg.hidden_size, cfg.vocab_size,
                                     generator=generator)

    def fuse_inputs(self, token_batches: Sequence) -> np.ndarray:
        """Stack per-model ``[N, L]`` ids (arrays or ``Tensor``s, as the
        runtime engine hands them over) into the fused ``[B, N, L]``."""
        arrays = [t.data if isinstance(t, Tensor) else np.asarray(t)
                  for t in token_batches]
        if not self.lib.fused:
            if len(arrays) != 1:
                raise ValueError("unfused model takes exactly one input")
            return arrays[0]
        return np.stack(arrays, axis=0)

    def forward(self, token_ids, segment_ids=None) -> Tensor:
        ids = token_ids.data if isinstance(token_ids, Tensor) else np.asarray(token_ids)
        ids = ids.astype(np.int64)
        cfg = self.config
        if ids.shape[-1] > cfg.max_len:
            raise ValueError(f"sequence length {ids.shape[-1]} exceeds "
                             f"max_len={cfg.max_len}")
        positions = np.broadcast_to(np.arange(ids.shape[-1], dtype=np.int64),
                                    ids.shape).copy()
        if segment_ids is None:
            segment_ids = np.zeros_like(ids)
        h = (self.token_embedding(ids)
             + self.position_embedding(positions)
             + self.segment_embedding(segment_ids))
        h = self.embedding_norm(h)
        if self.embedding_dropout is not None:
            h = self.embedding_dropout(h)
        for layer in self.layers:
            h = layer(h)
        h = self.mlm_norm(self.mlm_act(self.mlm_transform(h)))
        return self.mlm_output(h)
