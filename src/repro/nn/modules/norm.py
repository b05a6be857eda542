"""Normalization layers: batch norm (1d/2d) and layer norm."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .. import functional as F
from ..tensor import Tensor
from .module import Module, Parameter

__all__ = ["BatchNorm1d", "BatchNorm2d", "LayerNorm"]


class _BatchNorm(Module):
    """Shared implementation for 1-D and 2-D batch normalization."""

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1, affine: bool = True,
                 track_running_stats: bool = True):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        self.track_running_stats = track_running_stats
        if affine:
            self.weight = Parameter(np.ones(num_features, dtype=np.float32))
            self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        else:
            self.register_parameter("weight", None)
            self.register_parameter("bias", None)
        if track_running_stats:
            self.register_buffer("running_mean",
                                 np.zeros(num_features, dtype=np.float32))
            self.register_buffer("running_var",
                                 np.ones(num_features, dtype=np.float32))
        else:
            self.register_buffer("running_mean", None)
            self.register_buffer("running_var", None)

    def _check_input(self, x: Tensor) -> None:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        self._check_input(x)
        return F.batch_norm(x, self.running_mean, self.running_var,
                            self.weight, self.bias, self.training,
                            self.momentum, self.eps, channel_axis=1)

    def extra_repr(self) -> str:
        return f"{self.num_features}, eps={self.eps}, momentum={self.momentum}"


class BatchNorm1d(_BatchNorm):
    """Batch norm over ``[N, C]`` or ``[N, C, L]`` inputs."""

    def _check_input(self, x: Tensor) -> None:
        if x.ndim not in (2, 3):
            raise ValueError(f"BatchNorm1d expects 2-D or 3-D input, got {x.ndim}-D")
        if x.shape[1] != self.num_features:
            raise ValueError(f"expected {self.num_features} channels, got {x.shape[1]}")


class BatchNorm2d(_BatchNorm):
    """Batch norm over ``[N, C, H, W]`` inputs."""

    def _check_input(self, x: Tensor) -> None:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects 4-D input, got {x.ndim}-D")
        if x.shape[1] != self.num_features:
            raise ValueError(f"expected {self.num_features} channels, got {x.shape[1]}")


class LayerNorm(Module):
    """Layer normalization over the trailing ``normalized_shape`` dims."""

    def __init__(self, normalized_shape: Union[int, Sequence[int]],
                 eps: float = 1e-5, elementwise_affine: bool = True):
        super().__init__()
        if isinstance(normalized_shape, int):
            normalized_shape = (normalized_shape,)
        self.normalized_shape: Tuple[int, ...] = tuple(normalized_shape)
        self.eps = eps
        self.elementwise_affine = elementwise_affine
        if elementwise_affine:
            self.weight = Parameter(np.ones(self.normalized_shape, dtype=np.float32))
            self.bias = Parameter(np.zeros(self.normalized_shape, dtype=np.float32))
        else:
            self.register_parameter("weight", None)
            self.register_parameter("bias", None)

    def forward(self, x: Tensor, residual: Optional[Tensor] = None) -> Tensor:
        """Normalize ``x``, or ``x + residual`` in one node."""
        return F.layer_norm(x, self.normalized_shape, self.weight, self.bias,
                            self.eps, residual)

    def extra_repr(self) -> str:
        return f"{self.normalized_shape}, eps={self.eps}"
