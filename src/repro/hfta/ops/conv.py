"""Horizontally fused convolution operators (paper Table 6, rows 1-3).

The key observation of the HFTA paper: ``B`` independent convolutions whose
operands have *identical shapes* are mathematically equivalent to a single
**grouped** convolution with ``B x G`` groups, obtained by

* concatenating the ``B`` inputs along the channel dimension,
* concatenating the ``B`` weight (filter) tensors along the output-channel
  dimension, and
* concatenating the ``B`` biases.

Grouped convolutions are already first-class, well-optimized operators in
every major DL stack (they power ResNeXt / MobileNet), so fusion requires no
new device-specific kernels — which is exactly why HFTA generalizes across
GPUs and TPUs.

Fused parameters here are stored with an explicit leading array dimension
``B`` (e.g. ``weight: [B, C_out, C_in/g, kH, kW]``) so that the fused
optimizers (:mod:`repro.hfta.optim`) can broadcast per-model hyper-parameter
vectors; the forward pass reshapes them into the grouped-convolution layout.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ...nn import functional as F
from ...nn.modules import conv as serial
from ...nn.modules.module import Module, Parameter
from ...nn.tensor import Tensor
from .utils import init_per_model

__all__ = ["Conv1d", "Conv2d", "ConvTranspose2d", "ConvTranspose1d"]

IntPair = Union[int, Tuple[int, int]]


class _FusedConvNd(Module):
    """Common machinery for the fused convolution family."""

    def __init__(self, num_models: int, in_channels: int, out_channels: int,
                 kernel_size, stride, padding, dilation, groups: int,
                 bias: bool, transposed: bool,
                 generator: Optional[np.random.Generator] = None):
        super().__init__()
        if num_models < 1:
            raise ValueError(f"num_models must be >= 1, got {num_models}")
        if in_channels % groups != 0 or out_channels % groups != 0:
            raise ValueError("channels must be divisible by groups")
        self.num_models = num_models
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.groups = groups
        self.transposed = transposed

        if transposed:
            per_model_shape = (in_channels, out_channels // groups) + tuple(kernel_size)
        else:
            per_model_shape = (out_channels, in_channels // groups) + tuple(kernel_size)
        self.weight = Parameter(
            np.empty((num_models,) + per_model_shape, dtype=np.float32))
        if bias:
            self.bias = Parameter(
                np.empty((num_models, out_channels), dtype=np.float32))
        else:
            self.register_parameter("bias", None)
        self.reset_parameters(generator)

    def reset_parameters(self, generator=None) -> None:
        init_per_model(self, serial._ConvNd.reset_parameters, generator)

    def _grouped(self, x: Tensor):
        """Check that ``x`` carries ``B x C_in`` channels; return the ``B``
        models' weights and biases as one grouped convolution's
        ``(weight, bias, groups)``."""
        b = self.num_models
        expected = b * self.in_channels
        if x.shape[1] != expected:
            raise ValueError(f"fused {type(self).__name__} expects {expected} "
                             f"channels (B={b} x C_in={self.in_channels}), "
                             f"got {x.shape[1]}")
        shape = self.weight.shape
        weight = self.weight.reshape(b * shape[1], *shape[2:])
        bias = (self.bias.reshape(b * self.out_channels)
                if self.bias is not None else None)
        return weight, bias, b * self.groups

    def extra_repr(self) -> str:
        return (f"B={self.num_models}, {self.in_channels}, "
                f"{self.out_channels}, kernel_size={self.kernel_size}, "
                f"stride={self.stride}, padding={self.padding}, "
                f"groups={self.groups}")


class Conv2d(_FusedConvNd):
    """``B`` horizontally fused ``Conv2d`` operators.

    Input layout: channel-folded ``[N, B * C_in, H, W]``; output
    ``[N, B * C_out, H', W']``.  Internally executes a single grouped
    convolution with ``B * groups`` groups, which is mathematically
    equivalent to running the ``B`` original convolutions independently.
    """

    def __init__(self, num_models: int, in_channels: int, out_channels: int,
                 kernel_size: IntPair, stride: IntPair = 1,
                 padding: IntPair = 0, dilation: IntPair = 1, groups: int = 1,
                 bias: bool = True, generator=None):
        super().__init__(num_models, in_channels, out_channels,
                         F._pair(kernel_size), F._pair(stride),
                         F._pair(padding), F._pair(dilation), groups, bias,
                         transposed=False, generator=generator)

    def forward(self, x: Tensor) -> Tensor:
        weight, bias, groups = self._grouped(x)
        return F.conv2d(x, weight, bias, self.stride, self.padding,
                        self.dilation, groups)


class Conv1d(_FusedConvNd):
    """``B`` horizontally fused ``Conv1d`` operators.

    Input layout: ``[N, B * C_in, L]``.
    """

    def __init__(self, num_models: int, in_channels: int, out_channels: int,
                 kernel_size: int, stride: int = 1, padding: int = 0,
                 dilation: int = 1, groups: int = 1, bias: bool = True,
                 generator=None):
        super().__init__(num_models, in_channels, out_channels,
                         (int(kernel_size),), (int(stride),),
                         (int(padding),), (int(dilation),), groups, bias,
                         transposed=False, generator=generator)

    def forward(self, x: Tensor) -> Tensor:
        weight, bias, groups = self._grouped(x)
        return F.conv1d(x, weight, bias, self.stride[0], self.padding[0],
                        self.dilation[0], groups)


class ConvTranspose2d(_FusedConvNd):
    """``B`` horizontally fused ``ConvTranspose2d`` operators.

    Input layout: ``[N, B * C_in, H, W]``.  Weight layout per model follows
    the PyTorch transposed convention ``[C_in, C_out/g, kH, kW]``.
    """

    def __init__(self, num_models: int, in_channels: int, out_channels: int,
                 kernel_size: IntPair, stride: IntPair = 1,
                 padding: IntPair = 0, output_padding: IntPair = 0,
                 groups: int = 1, bias: bool = True, generator=None):
        super().__init__(num_models, in_channels, out_channels,
                         F._pair(kernel_size), F._pair(stride),
                         F._pair(padding), F._pair(1), groups, bias,
                         transposed=True, generator=generator)
        self.output_padding = F._pair(output_padding)

    def forward(self, x: Tensor) -> Tensor:
        weight, bias, groups = self._grouped(x)
        return F.conv_transpose2d(x, weight, bias, self.stride, self.padding,
                                  self.output_padding, groups)


class ConvTranspose1d(Module):
    """``B`` horizontally fused ``ConvTranspose1d`` operators (lifted to 2-D)."""

    def __init__(self, num_models: int, in_channels: int, out_channels: int,
                 kernel_size: int, stride: int = 1, padding: int = 0,
                 output_padding: int = 0, groups: int = 1, bias: bool = True,
                 generator=None):
        super().__init__()
        self.num_models = num_models
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.inner = ConvTranspose2d(num_models, in_channels, out_channels,
                                     (1, kernel_size), (1, stride),
                                     (0, padding), (0, output_padding),
                                     groups, bias, generator)

    @property
    def weight(self) -> Parameter:
        return self.inner.weight

    @property
    def bias(self) -> Optional[Parameter]:
        return self.inner.bias

    def forward(self, x: Tensor) -> Tensor:
        n, c, length = x.shape
        out = self.inner(x.reshape(n, c, 1, length))
        n_, c_, _, l_ = out.shape
        return out.reshape(n_, c_, l_)
