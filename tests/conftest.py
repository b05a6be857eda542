"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for test data."""
    return np.random.default_rng(1234)


def numerical_gradient(fn, tensor, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``fn()`` w.r.t. ``tensor`` (float64)."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn()
        flat[i] = original - eps
        down = fn()
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    """Byte for byte, except that any NaN matches any NaN: where two NaNs
    meet, numpy's SIMD loops keep either one's sign bit, by position."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and \
        got[~nan].tobytes() == want[~nan].tobytes()


def shard_cuts(width: int, cpus: int):
    """The ``(lo, hi)`` slot runs that :func:`repro.runtime.shards.split`
    cuts a width-``width`` array of large slots into on a host of ``cpus``
    CPUs (no worker is forked)."""
    from unittest import mock

    from repro.runtime import shards

    with mock.patch.object(shards, "cpus", lambda: cpus), \
            mock.patch.object(shards, "workers", lambda: [None] * cpus):
        return [(lo, hi) for lo, hi, _ in
                shards.split(width, shards.MIN_SLOT_BYTES)]


#: ``(array width, host CPUs)`` of the sharded kernel tests: two shards,
#: and one slot per shard
SHARDINGS = [(3, 2), (3, 3), (4, 2), (4, 4)]
