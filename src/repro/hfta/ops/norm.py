"""Horizontally fused normalization layers (paper Table 6, BatchNorm / LayerNorm rows).

``B`` batch-norm layers over per-model channel count ``C`` fuse into one
batch-norm over ``B * C`` channels (the statistics of different models'
channels never mix because batch norm normalizes each channel
independently).  ``B`` layer-norm layers fuse into a single ``F.layer_norm``
node over the trailing dims whose affine transform takes per-model
``[B, 1, ..., E]`` weight/bias tensors.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ...nn import functional as F
from ...nn.modules.module import Module, Parameter
from ...nn.tensor import Tensor

__all__ = ["BatchNorm1d", "BatchNorm2d", "LayerNorm"]


class _FusedBatchNorm(Module):
    """Shared implementation of the fused batch-norm family.

    Parameters are stored per model (``[B, C]``) and flattened to ``[B*C]``
    for execution, matching the Table 6 rule
    ``BatchNorm(x: [N, B*C, ...], w: [B*C], b: [B*C])``.
    """

    def __init__(self, num_models: int, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1, affine: bool = True,
                 track_running_stats: bool = True):
        super().__init__()
        self.num_models = num_models
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        self.track_running_stats = track_running_stats
        total = num_models * num_features
        if affine:
            self.weight = Parameter(np.ones((num_models, num_features),
                                            dtype=np.float32))
            self.bias = Parameter(np.zeros((num_models, num_features),
                                           dtype=np.float32))
        else:
            self.register_parameter("weight", None)
            self.register_parameter("bias", None)
        if track_running_stats:
            self.register_buffer("running_mean", np.zeros(total, dtype=np.float32))
            self.register_buffer("running_var", np.ones(total, dtype=np.float32))
        else:
            self.register_buffer("running_mean", None)
            self.register_buffer("running_var", None)

    def _forward_folded(self, x: Tensor) -> Tensor:
        b, c = self.num_models, self.num_features
        if x.shape[1] != b * c:
            raise ValueError(f"fused BatchNorm expects {b * c} channels "
                             f"(B={b} x C={c}), got {x.shape[1]}")
        weight = self.weight.reshape(b * c) if self.affine else None
        bias = self.bias.reshape(b * c) if self.affine else None
        return F.batch_norm(x, self.running_mean, self.running_var, weight,
                            bias, self.training, self.momentum, self.eps,
                            channel_axis=1)

    def extra_repr(self) -> str:
        return (f"B={self.num_models}, {self.num_features}, eps={self.eps}, "
                f"momentum={self.momentum}")


class BatchNorm2d(_FusedBatchNorm):
    """``B`` fused ``BatchNorm2d`` layers over channel-folded ``[N, B*C, H, W]``."""

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"fused BatchNorm2d expects 4-D input, got {x.ndim}-D")
        return self._forward_folded(x)


class BatchNorm1d(_FusedBatchNorm):
    """``B`` fused ``BatchNorm1d`` layers.

    Accepts either the channel-folded 3-D layout ``[N, B*C, L]`` or the 2-D
    per-model-feature layout ``[B, N, C]`` (converted internally), matching
    the two shapes listed in Table 6.
    """

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 3 and x.shape[1] == self.num_models * self.num_features:
            return self._forward_folded(x)
        if x.ndim == 3 and x.shape[0] == self.num_models and \
                x.shape[2] == self.num_features:
            # [B, N, C] -> [N, B*C] -> normalize -> back
            b, n, c = x.shape
            folded = x.permute(1, 0, 2).reshape(n, b * c)
            out = self._forward_folded(folded)
            return out.reshape(n, b, c).permute(1, 0, 2)
        raise ValueError(
            f"fused BatchNorm1d expects [N, B*C, L] or [B, N, C]; got shape "
            f"{x.shape} with B={self.num_models}, C={self.num_features}")


class LayerNorm(Module):
    """``B`` fused ``LayerNorm`` layers.

    Input layout: batched ``[B, N, ..., *normalized_shape]``.  The
    normalization itself is parameter-free and independent per sample, so it
    fuses trivially; the affine transform uses per-model weight/bias of shape
    ``[B, 1, ..., 1, *normalized_shape]`` (Table 6, LayerNorm row).
    """

    def __init__(self, num_models: int,
                 normalized_shape: Union[int, Sequence[int]],
                 eps: float = 1e-5, elementwise_affine: bool = True):
        super().__init__()
        if isinstance(normalized_shape, int):
            normalized_shape = (normalized_shape,)
        self.num_models = num_models
        self.normalized_shape: Tuple[int, ...] = tuple(normalized_shape)
        self.eps = eps
        self.elementwise_affine = elementwise_affine
        if elementwise_affine:
            shape = (num_models,) + self.normalized_shape
            self.weight = Parameter(np.ones(shape, dtype=np.float32))
            self.bias = Parameter(np.zeros(shape, dtype=np.float32))
        else:
            self.register_parameter("weight", None)
            self.register_parameter("bias", None)

    def forward(self, x: Tensor, residual: Optional[Tensor] = None) -> Tensor:
        """Normalize ``x``, or ``x + residual`` in one node."""
        if x.shape[0] != self.num_models:
            raise ValueError(f"fused LayerNorm expects leading array dim "
                             f"{self.num_models}, got {x.shape[0]}")
        weight = bias = None
        if self.elementwise_affine:
            # weight/bias: [B, *normalized_shape] -> [B, 1, ..., 1, *normalized_shape]
            n_mid = x.ndim - 1 - len(self.normalized_shape)
            shape = (self.num_models,) + (1,) * n_mid + self.normalized_shape
            weight, bias = self.weight.reshape(shape), self.bias.reshape(shape)
        return F.layer_norm(x, self.normalized_shape, weight, bias, self.eps,
                            residual)

    def extra_repr(self) -> str:
        return f"B={self.num_models}, {self.normalized_shape}, eps={self.eps}"
