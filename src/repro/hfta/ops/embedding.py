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
from ...nn import init
from ...nn.modules.module import Module, Parameter
from ...nn.tensor import Tensor

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
        if not init.enabled():
            return
        gens = self._per_model_generators(generator)
        for b, gen in enumerate(gens):
            w_b = Tensor(self.weight.data[b])
            init.normal_(w_b, 0.0, 1.0, gen)
            self.weight.data[b] = w_b.data

    def _per_model_generators(self, generator):
        if generator is None:
            return [np.random.default_rng() for _ in range(self.num_models)]
        if isinstance(generator, np.random.Generator):
            return [generator] * self.num_models
        gens = list(generator)
        if len(gens) != self.num_models:
            raise ValueError("need one generator per fused model")
        return gens

    def load_model_weights(self, index: int, weight: np.ndarray) -> None:
        self.weight.data[index] = weight

    def export_model_weights(self, index: int):
        return self.weight.data[index], None

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
