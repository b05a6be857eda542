"""Transformer language model (Vaswani et al., 2017) — secondary benchmark.

The paper's variant is small (2 encoder layers, 2 heads, hidden size 128 —
"similar to BERT-Tiny in parameter size") and is trained for next-token
language modeling on WikiText-2.  The fused version processes ``B`` models'
token streams in the batched ``[B, N, L]`` layout; every projection becomes a
batched GEMM over the array dimension.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..hfta.ops.factory import OpsLibrary
from ..nn.tensor import Tensor

__all__ = ["TransformerLM"]


class TransformerLM(nn.Module):
    """Next-token-prediction Transformer encoder LM.

    Inputs: integer token ids ``[N, L]`` unfused, ``[B, N, L]`` fused.
    Output: logits over the vocabulary with the same leading layout.
    """

    def __init__(self, vocab_size: int = 1000, d_model: int = 128,
                 nhead: int = 2, num_layers: int = 2,
                 dim_feedforward: int = 512, max_len: int = 512,
                 dropout: float = 0.1, num_models: Optional[int] = None,
                 generator=None):
        super().__init__()
        self.lib = OpsLibrary(num_models)
        lib = self.lib
        self.vocab_size = vocab_size
        self.d_model = d_model
        self.max_len = max_len
        self.token_embedding = lib.Embedding(vocab_size, d_model,
                                             generator=generator)
        self.position_embedding = lib.Embedding(max_len, d_model,
                                                generator=generator)
        self.layers = nn.ModuleList([
            lib.TransformerEncoderLayer(d_model, nhead, dim_feedforward,
                                        dropout, generator=generator)
            for _ in range(num_layers)])
        self.norm = lib.LayerNorm(d_model)
        self.output = lib.Linear(d_model, vocab_size, generator=generator)

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

    def _positions(self, ids: np.ndarray) -> np.ndarray:
        length = ids.shape[-1]
        pos = np.arange(length, dtype=np.int64)
        return np.broadcast_to(pos, ids.shape).copy()

    def forward(self, token_ids) -> Tensor:
        ids = token_ids.data if isinstance(token_ids, Tensor) else np.asarray(token_ids)
        ids = ids.astype(np.int64)
        if ids.shape[-1] > self.max_len:
            raise ValueError(f"sequence length {ids.shape[-1]} exceeds "
                             f"max_len={self.max_len}")
        h = self.token_embedding(ids) + self.position_embedding(self._positions(ids))
        for layer in self.layers:
            h = layer(h)
        h = self.norm(h)
        return self.output(h)
