"""Reusable allocation pool for fused-array and optimizer-state buffers.

Every elastic transition of an :class:`~repro.runtime.engine.ArrayExecutor`
(evict -> narrow, admit -> merge) used to allocate
brand-new fused parameter arrays and Adam-moment arrays and drop the old
ones on the floor.  Under churn — the serving gateway admits and evicts
continuously — that is a steady stream of large, identically shaped
allocations, which is exactly the pattern an object pool amortizes.

:class:`BufferPool` keeps *dead* arrays keyed by ``(shape, dtype)`` and
hands them back to the re-fusion primitives (the ``allocator`` parameter of
:func:`repro.hfta.fusion.merge_fused` and
:func:`repro.hfta.optim.elastic.merge_optimizers`) so the destination of
the next merge reuses the allocation of the last eviction.

Ownership rule (the only way pooling stays safe next to the zero-copy
re-fusion views): an array may be released only when

* the caller can prove the structure that owned it is dead (the executor
  releases the *old* fused model/optimizer right after an atomic swap), and
* the array *owns its memory* (``base is None`` and ``OWNDATA``) — a view
  is never released, and a base that still has live views is never a
  candidate because the only arrays offered are the dead structure's own
  ``.data``/state references.  See ``docs/performance.md`` for the proof
  sketch the executor relies on.

The pool double-checks both: views are rejected, and releasing the same
array object twice is rejected (two later ``take`` calls must never alias).
Arrays below ``min_bytes`` are rejected too — pooling tiny arrays costs
more bookkeeping than the allocation it saves.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["BufferPool"]


class BufferPool:
    """A size-capped free list of numpy arrays keyed by ``(shape, dtype)``.

    ``take`` returns a pooled array when an exact shape/dtype match is
    available, else a fresh ``np.empty`` — callers must fully overwrite the
    contents (the re-fusion merge primitives do: ``np.concatenate`` with
    ``out=`` writes every element).  ``release`` accepts an array back; it
    refuses views, duplicates, tiny arrays and anything that would push the
    pool past ``max_bytes``.  All methods are thread-safe: a caller may
    share one pool across engines driven from different threads.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024,
                 min_bytes: int = 4096):
        if max_bytes < 0 or min_bytes < 0:
            raise ValueError("max_bytes and min_bytes must be >= 0")
        self.max_bytes = max_bytes
        self.min_bytes = min_bytes
        self._lock = threading.Lock()
        self._free: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}
        #: ids of arrays currently sitting in the pool — guards the
        #: double-release that would alias two future ``take`` results
        self._held_ids: set = set()
        self.bytes_held = 0
        #: lifetime counters (pool tuning)
        self.hits = 0
        self.misses = 0
        self.releases = 0
        self.rejects = 0

    # ------------------------------------------------------------------ #
    def take(self, shape, dtype) -> np.ndarray:
        """An array of exactly ``shape``/``dtype``; contents are garbage.

        Pooled when available, freshly allocated otherwise — either way the
        caller owns the result and must overwrite every element.
        """
        key = (tuple(int(s) for s in shape), np.dtype(dtype).str)
        with self._lock:
            bucket = self._free.get(key)
            if bucket:
                arr = bucket.pop()
                self._held_ids.discard(id(arr))
                self.bytes_held -= arr.nbytes
                self.hits += 1
                return arr
            self.misses += 1
        return np.empty(key[0], dtype=np.dtype(dtype))

    def release(self, arr: Optional[np.ndarray]) -> bool:
        """Offer a dead array back to the pool; returns whether it was kept.

        Rejected (returns ``False``): non-arrays, views (``base`` set or
        ``OWNDATA`` unset), arrays already in the pool, arrays smaller than
        ``min_bytes``, and anything past the ``max_bytes`` cap.
        """
        if not isinstance(arr, np.ndarray) or arr.base is not None \
                or not arr.flags["OWNDATA"] or not arr.flags["WRITEABLE"] \
                or arr.nbytes < self.min_bytes:
            self.rejects += 1
            return False
        key = (arr.shape, arr.dtype.str)
        with self._lock:
            if id(arr) in self._held_ids or \
                    self.bytes_held + arr.nbytes > self.max_bytes:
                self.rejects += 1
                return False
            self._free.setdefault(key, []).append(arr)
            self._held_ids.add(id(arr))
            self.bytes_held += arr.nbytes
            self.releases += 1
            return True

    def release_all(self, arrays: Iterable[Optional[np.ndarray]]) -> int:
        """Offer many arrays back; returns how many the pool kept."""
        return sum(1 for arr in arrays if self.release(arr))

    def clear(self) -> None:
        """Drop every pooled array (frees the held memory)."""
        with self._lock:
            self._free.clear()
            self._held_ids.clear()
            self.bytes_held = 0

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus current occupancy, for pool tuning."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "releases": self.releases, "rejects": self.rejects,
                    "bytes_held": self.bytes_held,
                    "arrays_held": sum(len(b) for b in self._free.values())}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BufferPool(bytes_held={self.bytes_held}, "
                f"hits={self.hits}, misses={self.misses})")
