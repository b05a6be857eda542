"""Fully connected layers."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .. import functional as F
from .. import init
from ..tensor import Tensor
from .module import Module, Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine transform ``y = x W^T + b`` with ``weight`` of shape
    ``[out_features, in_features]`` (PyTorch convention).

    The HFTA fused counterpart (:class:`repro.hfta.ops.Linear`) stacks ``B``
    weights into ``[B, out, in]`` and calls the same :func:`F.linear` node,
    a batched matmul with additive bias, per the paper's Table 6.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 generator: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.empty((out_features, in_features),
                                         dtype=np.float32))
        if bias:
            self.bias = Parameter(np.empty(out_features, dtype=np.float32))
        else:
            self.register_parameter("bias", None)
        self.reset_parameters(generator)

    def reset_parameters(self, generator: Optional[np.random.Generator] = None) -> None:
        init.kaiming_uniform_(self.weight, a=math.sqrt(5), generator=generator)
        if self.bias is not None:
            bound = 1.0 / math.sqrt(self.in_features)
            init.uniform_(self.bias, -bound, bound, generator=generator)

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def extra_repr(self) -> str:
        return (f"in_features={self.in_features}, "
                f"out_features={self.out_features}, "
                f"bias={self.bias is not None}")
