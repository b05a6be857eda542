"""Utilities for per-model hyper-parameter handling in fused optimizers.

The fused optimizers accept every hyper-parameter either as

* a scalar (all ``B`` fused models share the value), or
* a sequence / array of length ``B`` (model ``b`` gets entry ``b``),

mirroring the paper's description: "the scalar-vector operations in the
original implementations are replaced by broadcasted vector-vector
operations (e.g. multiplying a vector of learning rates with the
concatenated gradients of all models)".
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = ["HyperParam", "coerce_hyperparam"]

HyperParam = Union[float, int, Sequence[float], np.ndarray]


def coerce_hyperparam(value: HyperParam, num_models: int,
                      name: str = "hyper-parameter") -> np.ndarray:
    """Normalize ``value`` to a float64 vector of length ``num_models``."""
    arr = np.array(value, dtype=np.float64)     # a copy the caller owns
    if arr.ndim == 0:
        arr = np.full(num_models, float(arr), dtype=np.float64)
    if arr.shape != (num_models,):
        raise ValueError(
            f"{name} must be a scalar or a length-{num_models} vector, got "
            f"shape {arr.shape}")
    return arr
