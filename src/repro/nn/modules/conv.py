"""Convolution modules: ``Conv1d``, ``Conv2d``, ``ConvTranspose2d``,
``ConvTranspose1d``.

These are the *unfused* operators (one model per module instance); their HFTA
counterparts in :mod:`repro.hfta.ops.conv` fuse ``B`` of them into a single
grouped convolution per the paper's Table 6 rules.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np

from .. import functional as F
from .. import init
from ..tensor import Tensor
from .module import Module, Parameter

__all__ = ["Conv1d", "Conv2d", "ConvTranspose1d", "ConvTranspose2d"]

IntPair = Union[int, Tuple[int, int]]


class _ConvNd(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride, padding, dilation, groups: int, bias: bool,
                 transposed: bool, generator: Optional[np.random.Generator] = None):
        super().__init__()
        if in_channels % groups != 0:
            raise ValueError("in_channels must be divisible by groups")
        if out_channels % groups != 0:
            raise ValueError("out_channels must be divisible by groups")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.groups = groups
        self.transposed = transposed

        if transposed:
            weight_shape = (in_channels, out_channels // groups) + tuple(kernel_size)
        else:
            weight_shape = (out_channels, in_channels // groups) + tuple(kernel_size)
        self.weight = Parameter(np.empty(weight_shape, dtype=np.float32))
        if bias:
            self.bias = Parameter(np.empty(out_channels, dtype=np.float32))
        else:
            self.register_parameter("bias", None)
        self.reset_parameters(generator)

    def reset_parameters(self, generator: Optional[np.random.Generator] = None) -> None:
        init.kaiming_uniform_(self.weight, a=math.sqrt(5), generator=generator)
        if self.bias is not None:
            # from the weight, as torch does: a transposed conv's
            # [C_in, C_out/g, *k] weight has fan-in C_out/g * prod(k)
            fan_in, _ = init._fan_in_and_fan_out(self.weight)
            bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
            init.uniform_(self.bias, -bound, bound, generator=generator)

    def extra_repr(self) -> str:
        return (f"{self.in_channels}, {self.out_channels}, "
                f"kernel_size={self.kernel_size}, stride={self.stride}, "
                f"padding={self.padding}, groups={self.groups}")


class Conv2d(_ConvNd):
    """2-D convolution over an NCHW input."""

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: IntPair, stride: IntPair = 1,
                 padding: IntPair = 0, dilation: IntPair = 1, groups: int = 1,
                 bias: bool = True,
                 generator: Optional[np.random.Generator] = None):
        super().__init__(in_channels, out_channels, F._pair(kernel_size),
                         F._pair(stride), F._pair(padding), F._pair(dilation),
                         groups, bias, transposed=False, generator=generator)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding,
                        self.dilation, self.groups)


class Conv1d(_ConvNd):
    """1-D convolution over an NCL input (used heavily by PointNet)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, dilation: int = 1,
                 groups: int = 1, bias: bool = True,
                 generator: Optional[np.random.Generator] = None):
        super().__init__(in_channels, out_channels, (int(kernel_size),),
                         (int(stride),), (int(padding),), (int(dilation),),
                         groups, bias, transposed=False, generator=generator)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv1d(x, self.weight, self.bias, self.stride[0],
                        self.padding[0], self.dilation[0], self.groups)


class ConvTranspose2d(_ConvNd):
    """2-D transposed convolution (used by the DCGAN generator)."""

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: IntPair, stride: IntPair = 1,
                 padding: IntPair = 0, output_padding: IntPair = 0,
                 groups: int = 1, bias: bool = True,
                 generator: Optional[np.random.Generator] = None):
        super().__init__(in_channels, out_channels, F._pair(kernel_size),
                         F._pair(stride), F._pair(padding), F._pair(1),
                         groups, bias, transposed=True, generator=generator)
        self.output_padding = F._pair(output_padding)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(x, self.weight, self.bias, self.stride,
                                  self.padding, self.output_padding,
                                  self.groups)


class ConvTranspose1d(Module):
    """1-D transposed convolution (lifted onto :class:`ConvTranspose2d`)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, output_padding: int = 0,
                 groups: int = 1, bias: bool = True,
                 generator: Optional[np.random.Generator] = None):
        super().__init__()
        self.inner = ConvTranspose2d(in_channels, out_channels,
                                     (1, kernel_size), (1, stride),
                                     (0, padding), (0, output_padding),
                                     groups, bias, generator)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kernel_size,)
        self.stride = (stride,)
        self.padding = (padding,)
        self.groups = groups

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
