"""Horizontally fused embedding lookup (paper Table 6, Embedding row).

``B`` embedding tables of shape ``[num_embeddings, dim]`` fuse into one table
of shape ``[B * num_embeddings, dim]``; model ``b``'s token ids are offset by
``b * num_embeddings`` before the lookup, so each model only ever reads its
own rows.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ...nn import functional as F
from ...nn.modules import embedding as serial
from ...nn.modules.module import Module, Parameter
from ...nn.tensor import Tensor
from .utils import init_per_model

__all__ = ["Embedding"]


class Embedding(Module):
    """``B`` horizontally fused ``Embedding`` layers.

    Input layout: batched integer ids ``[B, ...]``; output ``[B, ..., dim]``.
    The fused weight is stored per model as ``[B, num_embeddings, dim]`` (so
    fused optimizers can broadcast per-model hyper-parameters) and flattened
    to ``[B * num_embeddings, dim]`` with id offsetting at execution time.
    """

    def __init__(self, num_models: int, num_embeddings: int,
                 embedding_dim: int, generator=None):
        super().__init__()
        self.num_models = num_models
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(np.empty((num_models, num_embeddings,
                                          embedding_dim), dtype=np.float32))
        self.reset_parameters(generator)

    def reset_parameters(self, generator=None) -> None:
        init_per_model(self, serial.Embedding.reset_parameters, generator)

    def forward(self, indices: Union[Tensor, np.ndarray]) -> Tensor:
        idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
        idx = idx.astype(np.int64)
        if idx.shape[0] != self.num_models:
            raise ValueError(f"fused Embedding expects leading array dim "
                             f"{self.num_models}, got {idx.shape[0]}")
        if idx.max(initial=0) >= self.num_embeddings or idx.min(initial=0) < 0:
            raise IndexError("embedding index out of range")
        offsets = (np.arange(self.num_models, dtype=np.int64)
                   * self.num_embeddings)
        offsets = offsets.reshape((self.num_models,) + (1,) * (idx.ndim - 1))
        fused_idx = idx + offsets
        flat_weight = self.weight.reshape(
            self.num_models * self.num_embeddings, self.embedding_dim)
        return F.embedding(fused_idx, flat_weight)

    def extra_repr(self) -> str:
        return (f"B={self.num_models}, {self.num_embeddings}, "
                f"{self.embedding_dim}")
