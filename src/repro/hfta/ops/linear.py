"""Horizontally fused fully connected layer (paper Table 6, ``Linear`` row).

``B`` independent ``Linear(in_features, out_features)`` layers applied to
``B`` inputs of identical shape are mathematically equivalent to a single
batched matrix multiply with an additive bias: the per-model weights are
stacked along a new leading dimension and the per-model inputs are processed
by one ``F.linear`` node, ``[B, M, in] @ [B, in, out]``, whose slice ``b`` is
exactly the ``[M, in] @ [in, out]`` GEMM model ``b`` runs alone.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ...nn import functional as F
from ...nn import init
from ...nn.modules.module import Module, Parameter
from ...nn.tensor import Tensor

__all__ = ["Linear"]


class Linear(Module):
    """``B`` horizontally fused ``Linear`` layers.

    Input layout: batched ``[B, *, in_features]`` (any number of middle
    dimensions); output ``[B, *, out_features]``.  Parameters:

    * ``weight``: ``[B, out_features, in_features]``
    * ``bias``:   ``[B, out_features]``
    """

    def __init__(self, num_models: int, in_features: int, out_features: int,
                 bias: bool = True, generator=None):
        super().__init__()
        if num_models < 1:
            raise ValueError(f"num_models must be >= 1, got {num_models}")
        self.num_models = num_models
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.empty((num_models, out_features, in_features),
                                         dtype=np.float32))
        if bias:
            self.bias = Parameter(np.empty((num_models, out_features),
                                           dtype=np.float32))
        else:
            self.register_parameter("bias", None)
        self.reset_parameters(generator)

    def reset_parameters(self, generator=None) -> None:
        if not init.enabled():
            return
        gens = self._per_model_generators(generator)
        bound = 1.0 / math.sqrt(self.in_features)
        for b, gen in enumerate(gens):
            w_b = Tensor(self.weight.data[b])
            init.kaiming_uniform_(w_b, a=math.sqrt(5), generator=gen)
            self.weight.data[b] = w_b.data
            if self.bias is not None:
                b_b = Tensor(self.bias.data[b])
                init.uniform_(b_b, -bound, bound, generator=gen)
                self.bias.data[b] = b_b.data

    def _per_model_generators(self, generator):
        if generator is None:
            return [np.random.default_rng() for _ in range(self.num_models)]
        if isinstance(generator, np.random.Generator):
            return [generator] * self.num_models
        gens = list(generator)
        if len(gens) != self.num_models:
            raise ValueError("need one generator per fused model")
        return gens

    def load_model_weights(self, index: int, weight: np.ndarray,
                           bias: Optional[np.ndarray] = None) -> None:
        """Copy one unfused ``Linear``'s parameters into array slot ``index``."""
        self.weight.data[index] = weight
        if bias is not None and self.bias is not None:
            self.bias.data[index] = bias

    def export_model_weights(self, index: int):
        bias = self.bias.data[index] if self.bias is not None else None
        return self.weight.data[index], bias

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def extra_repr(self) -> str:
        return (f"B={self.num_models}, in_features={self.in_features}, "
                f"out_features={self.out_features}, bias={self.bias is not None}")
