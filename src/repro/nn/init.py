"""Weight initialization schemes.

These mirror ``torch.nn.init``.  Initializers matter to the HFTA reproduction
because the choice of weight initializer is one of the canonical
hyper-parameters the paper tunes (Figure 1), and because the HFTA array
constructors must be able to initialize *each fused model independently*
(one seed per model) to emulate B separate training jobs.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Optional

import numpy as np

from .tensor import Tensor

__all__ = [
    "disabled", "enabled", "calculate_gain", "uniform_", "normal_",
    "constant_", "zeros_", "ones_", "xavier_uniform_", "xavier_normal_",
    "kaiming_uniform_", "kaiming_normal_",
]


_local = threading.local()


@contextlib.contextmanager
def disabled():
    """Inside the block, on this thread, a fused ``hfta.ops`` layer's
    ``reset_parameters`` seeds no per-model generators and draws no weights:
    for a fused array whose every parameter is overwritten as soon as it is
    built, as :func:`repro.hfta.load_from_unfused` fills the runtime's."""
    previous = getattr(_local, "off", False)
    _local.off = True
    try:
        yield
    finally:
        _local.off = previous


def enabled() -> bool:
    """Whether fused layers draw their weights: false inside
    :func:`disabled`."""
    return not getattr(_local, "off", False)


def calculate_gain(nonlinearity: str, param: Optional[float] = None) -> float:
    """Return the recommended gain value for the given nonlinearity."""
    if nonlinearity in ("linear", "sigmoid", "conv1d", "conv2d", "conv3d"):
        return 1.0
    if nonlinearity == "tanh":
        return 5.0 / 3.0
    if nonlinearity == "relu":
        return math.sqrt(2.0)
    if nonlinearity == "leaky_relu":
        negative_slope = 0.01 if param is None else param
        return math.sqrt(2.0 / (1 + negative_slope ** 2))
    raise ValueError(f"unsupported nonlinearity: {nonlinearity}")


def _fan_in_and_fan_out(tensor: Tensor):
    shape = tensor.shape
    if len(shape) < 2:
        raise ValueError("fan in/out requires at least a 2-D tensor")
    receptive_field = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive_field
    fan_out = shape[0] * receptive_field
    return fan_in, fan_out


def _rng(generator: Optional[np.random.Generator]) -> np.random.Generator:
    return generator if generator is not None else np.random.default_rng()


def uniform_(tensor: Tensor, a: float = 0.0, b: float = 1.0,
             generator: Optional[np.random.Generator] = None) -> Tensor:
    tensor.data[...] = _rng(generator).uniform(a, b, size=tensor.shape)
    return tensor


def normal_(tensor: Tensor, mean: float = 0.0, std: float = 1.0,
            generator: Optional[np.random.Generator] = None) -> Tensor:
    tensor.data[...] = _rng(generator).normal(mean, std, size=tensor.shape)
    return tensor


def constant_(tensor: Tensor, value: float) -> Tensor:
    tensor.data[...] = value
    return tensor


def zeros_(tensor: Tensor) -> Tensor:
    return constant_(tensor, 0.0)


def ones_(tensor: Tensor) -> Tensor:
    return constant_(tensor, 1.0)


def xavier_uniform_(tensor: Tensor, gain: float = 1.0,
                    generator: Optional[np.random.Generator] = None) -> Tensor:
    fan_in, fan_out = _fan_in_and_fan_out(tensor)
    a = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return uniform_(tensor, -a, a, generator)


def xavier_normal_(tensor: Tensor, gain: float = 1.0,
                   generator: Optional[np.random.Generator] = None) -> Tensor:
    fan_in, fan_out = _fan_in_and_fan_out(tensor)
    std = gain * math.sqrt(2.0 / (fan_in + fan_out))
    return normal_(tensor, 0.0, std, generator)


def kaiming_uniform_(tensor: Tensor, a: float = math.sqrt(5),
                     nonlinearity: str = "leaky_relu",
                     generator: Optional[np.random.Generator] = None) -> Tensor:
    fan_in, _ = _fan_in_and_fan_out(tensor)
    gain = calculate_gain(nonlinearity, a)
    bound = gain * math.sqrt(3.0 / fan_in)
    return uniform_(tensor, -bound, bound, generator)


def kaiming_normal_(tensor: Tensor, a: float = 0.0,
                    nonlinearity: str = "relu",
                    generator: Optional[np.random.Generator] = None) -> Tensor:
    fan_in, _ = _fan_in_and_fan_out(tensor)
    gain = calculate_gain(nonlinearity, a)
    std = gain / math.sqrt(fan_in)
    return normal_(tensor, 0.0, std, generator)
