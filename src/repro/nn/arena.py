"""Activation arena: reuse a training step's large kernel outputs.

Every step of a fused array runs the same graph on the same shapes, yet
each large activation, saved mask and backward product used to be a fresh
``np.empty`` freed when the graph died.  Above glibc's mmap threshold such
an allocation is either a fresh ``mmap`` or a piece of a heap top that was
just trimmed, and its first touch page-faults; on a fused PointNet step
that cost thousands of minor faults per step.

An :class:`Arena` keeps those buffers, keyed by ``(shape, dtype)``, and
hands one out again only when :func:`sys.getrefcount` shows the arena
holds its sole reference: no tensor, saved closure variable or view
(a view holds its base) can still see it, so nothing a caller holds is
ever overwritten and no ``free`` call is needed.  The check-then-hand-out
runs under the GIL on the one thread that activated the arena.

Kernels ask for an ``out=`` buffer through :func:`empty`, which returns
``None`` — numpy allocates as before — unless an arena is active on this
thread (:meth:`Arena.active`) and the buffer is at least
:data:`MIN_BYTES`.  Arithmetic is unchanged either way: the same ufunc or
``matmul`` loop writes the same values into a buffer of the same layout.
"""

from __future__ import annotations

import contextlib
import math
import sys
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Arena", "BOOL", "MIN_BYTES", "buffer", "copy", "empty"]

#: glibc's default ``M_MMAP_THRESHOLD``: smaller blocks come from the heap's
#: free lists without faulting, so the arena leaves them alone — and the
#: small-activation workloads (an MLP's <= 64 KiB layers) pay one size
#: test per kernel call and nothing else
MIN_BYTES = 128 * 1024

#: the dtype of saved masks (:func:`empty` reads ``dtype.itemsize``)
BOOL = np.dtype(bool)

_local = threading.local()


def _sole_refcount() -> int:
    """What ``sys.getrefcount`` reports in :meth:`Arena.take`'s loop for a
    buffer only the arena's list references (the list's reference, the loop
    variable's and the call's argument; measured, since interpreters
    differ in how many of those they count)."""
    for buf in [np.empty(0)]:
        return sys.getrefcount(buf)


_SOLE = _sole_refcount()


class Arena:
    """A ``(shape, dtype)``-keyed pool of kernel output buffers.

    One arena serves one fused structure (:class:`repro.runtime.engine.
    FusedPhysics` owns one per installed model), so it holds at most one
    step's peak set of large arrays and dies with the structure.  Use it
    from one thread at a time.
    """

    def __init__(self):
        self._buffers: Dict[Tuple[Tuple[int, ...], np.dtype],
                            List[np.ndarray]] = {}

    @property
    def misses(self) -> int:
        """Buffers allocated: the takes that found none free."""
        return sum(map(len, self._buffers.values()))

    @property
    def nbytes(self) -> int:
        """Bytes the arena holds."""
        return sum(buf.nbytes for bufs in self._buffers.values()
                   for buf in bufs)

    @contextlib.contextmanager
    def active(self):
        """Draw this thread's large kernel outputs from the arena inside
        the block (the previously active arena, if any, is restored)."""
        previous = getattr(_local, "arena", None)
        _local.arena = self
        try:
            yield self
        finally:
            _local.arena = previous

    def take(self, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """A buffer nobody else references, allocating one if none is."""
        bufs = self._buffers.setdefault((shape, dtype), [])
        for buf in bufs:
            if sys.getrefcount(buf) == _SOLE:
                return buf
        buf = np.empty(shape, dtype)
        bufs.append(buf)
        return buf


def empty(shape: Tuple[int, ...], dtype: np.dtype) -> Optional[np.ndarray]:
    """An ``out=`` buffer for a kernel result of ``shape`` and ``dtype``
    (exactly the dtype numpy would give the result: ``out=`` casts), or
    ``None`` below :data:`MIN_BYTES` or with no arena active here."""
    if math.prod(shape) * dtype.itemsize < MIN_BYTES:
        return None
    arena = getattr(_local, "arena", None)
    return None if arena is None else arena.take(shape, dtype)


def buffer(shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """An :func:`empty` buffer, or a new one when there is none: for a
    kernel that writes its output in slices (:mod:`repro.nn.parallel`)."""
    out = empty(shape, dtype)
    return np.empty(shape, dtype) if out is None else out


def copy(a: np.ndarray) -> np.ndarray:
    """``a.copy()``, into an :func:`empty` buffer when there is one."""
    out = empty(a.shape, a.dtype)
    if out is None:
        return a.copy()
    np.copyto(out, a)
    return out
