"""Horizontally fused fully connected layer (paper Table 6, ``Linear`` row).

``B`` independent ``Linear(in_features, out_features)`` layers applied to
``B`` inputs of identical shape are mathematically equivalent to a single
batched matrix multiply with an additive bias: the per-model weights are
stacked along a new leading dimension and the per-model inputs are processed
by one ``F.linear`` node, ``[B, M, in] @ [B, in, out]``, whose slice ``b`` is
exactly the ``[M, in] @ [in, out]`` GEMM model ``b`` runs alone.
"""

from __future__ import annotations

import numpy as np

from ...nn import functional as F
from ...nn.modules import linear as serial
from ...nn.modules.module import Module, Parameter
from ...nn.tensor import Tensor
from .utils import init_per_model

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
        init_per_model(self, serial.Linear.reset_parameters, generator)

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def extra_repr(self) -> str:
        return (f"B={self.num_models}, in_features={self.in_features}, "
                f"out_features={self.out_features}, bias={self.bias is not None}")
