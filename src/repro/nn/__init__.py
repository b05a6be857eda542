"""``repro.nn`` — the deep-learning substrate.

A compact, numpy-backed re-implementation of the PyTorch surface that the
HFTA paper builds upon: tensors with reverse-mode autograd, the standard
layer zoo (convolutions, linear, normalization, attention, ...), weight
initialization, functional ops, and the activation arena a training loop
activates so its large kernel outputs are reused from step to step
(:mod:`repro.nn.arena`).  The HFTA library
(:mod:`repro.hfta`) fuses these operators horizontally across models.
"""

from .tensor import (Tensor, no_grad, is_grad_enabled, tensor, zeros, ones,
                     randn, rand, arange, full, stack, cat)
from .arena import Arena
from . import functional
from . import init
from .modules import *  # noqa: F401,F403 - re-export the layer zoo
from .modules import __all__ as _modules_all

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "tensor", "zeros", "ones",
    "randn", "rand", "arange", "full", "stack", "cat", "Arena", "functional",
    "init",
] + list(_modules_all)
