"""Run a large kernel's independent axis as two halves on two CPUs.

A fused operator carries ``B`` models' independent work, enough to keep a
second CPU busy where one model's operator is not.  numpy releases the GIL
inside ``matmul``, ufunc loops, reductions and ``einsum``, so two threads
can each run half of one kernel at once.  :func:`split` hands the upper
half of a kernel's range to one process-wide helper thread and runs the
lower half on the calling thread.  The kernels that split: ``_conv`` (over
samples, its weight gradient's sum over columns), ``batch_norm`` (over
channels), ``Tensor.relu`` and ``Tensor.max`` (over leading rows), a fused
``linear`` (over its ``B`` models) and a conv block, ``conv1d_bn`` (over
its groups).

The helper pins itself to one CPU this process may use, the last one
unless the calling thread runs there, and moves when the caller moves onto
it.  On the guest this was measured on, the scheduler left two threads on
one vCPU rather than move either: an unpinned pair, or a caller that
happened to start on the helper's CPU, ran no faster than one thread
(``docs/performance.md``, "The second vCPU").  The calling thread is
never pinned.  With one allowed CPU, or on a platform without
``os.sched_getaffinity``, every kernel runs inline.

Ownership rules the kernels keep:

* the calling thread allocates every output (from its arena, if one is
  active) before the split, and each half writes a disjoint slice of it;
* the helper never activates an arena, so :mod:`repro.nn.arena`'s
  thread-local rule stands, and it drops its reference to the body before
  it signals done, so the arena's reference count sees no stray holder;
* each half runs the same GEMM, ufunc or reduction per row, channel or
  column as the whole kernel would, so results are bitwise the same.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from typing import Callable, Optional, Union

import numpy as np

from . import arena

__all__ = ["MIN_BYTES", "gemm_bytes", "split", "ufunc"]

#: a kernel whose largest array is smaller runs inline (a GEMM compares
#: :func:`gemm_bytes`).  Read from ``python tools/step_probe.py --kernels``:
#: at 1 MiB the streaming kernels ran split in 0.67-1.3x their one-thread
#: time, from 2 MiB on in 0.5-0.9x
MIN_BYTES = 2 * 1024 * 1024


def gemm_bytes(nbytes: int, depth: int) -> int:
    """What a GEMM writing ``nbytes`` with ``depth`` multiply-adds per
    output element counts against :data:`MIN_BYTES`: ``nbytes * depth /
    32``.  In the probe's table a depth-32 GEMM (PointNet's convolution)
    gains from a split at the bytes a streaming kernel does, and a depth-64
    one (the LM's linears) at half of them."""
    return nbytes * depth // 32


Body = Callable[[int, int], None]


def _cpu_getter() -> Callable[[], int]:
    """The C library's ``sched_getcpu`` (the CPU the calling thread runs
    on, about a microsecond through ctypes), or a stand-in returning -1."""
    try:
        import ctypes
        return ctypes.CDLL(None).sched_getcpu
    except (ImportError, OSError, AttributeError):
        return lambda: -1


class _Helper:
    """The helper thread: runs one half at a time, pinned to the CPU each
    half names."""

    def __init__(self, cpus):
        self.cpus = cpus                       # allowed, ascending
        self.here = _cpu_getter()
        self.tasks: queue.SimpleQueue = queue.SimpleQueue()
        self.done = threading.Lock()
        self.done.acquire()                    # released once per half
        self.error: Optional[BaseException] = None
        threading.Thread(target=self._serve, daemon=True,
                         name="repro-nn-split").start()

    def cpu(self) -> int:
        """The last allowed CPU, or the one before it when the calling
        thread runs on the last."""
        return self.cpus[-2] if self.here() == self.cpus[-1] else \
            self.cpus[-1]

    def _serve(self) -> None:
        pinned = None
        while True:
            run, body, lo, hi, cpu = self.tasks.get()
            if cpu != pinned:
                try:
                    os.sched_setaffinity(0, {cpu})     # 0: this thread only
                except OSError:     # the CPU left this process's set
                    pass            # since the helper started: run unpinned
                pinned = cpu
            try:
                run(body, lo, hi)
            except BaseException as exc:  # noqa: BLE001 — re-raised by split
                self.error = exc
            # the body's closure holds the caller's arena buffers: let go of
            # it before the caller can ask the arena for them again
            del run, body
            self.done.release()


_helper: Union[_Helper, bool, None] = None     # False: run everything inline
_busy = threading.Lock()                       # held while the helper is used


def _the_helper() -> Union[_Helper, bool]:
    global _helper
    if _helper is None:
        cpus = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else [])
        _helper = _Helper(cpus) if len(cpus) > 1 else False
    return _helper


def _forget_helper() -> None:
    """In a forked child: the helper thread did not survive the fork."""
    global _helper, _busy
    _helper, _busy = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def split(n: int, nbytes: int, body: Body) -> None:
    """``body(0, n)``, as ``body(n // 2, n)`` on the helper thread and
    ``body(0, n // 2)`` on this one when the kernel's size (its largest
    array's bytes, or :func:`gemm_bytes`) is at least :data:`MIN_BYTES`;
    returns when both halves have finished.

    ``body(lo, hi)`` must write only its ``[lo, hi)`` share of outputs the
    caller allocated.  An exception in either half is raised here after
    both have finished.  A split reached while the helper is busy — from
    inside a half, or from a second thread — runs inline.
    """
    global _helper
    if nbytes < MIN_BYTES or n < 2 or not _busy.acquire(blocking=False):
        body(0, n)
        return
    try:
        helper = _the_helper()
        if not helper:
            body(0, n)
            return
        mid = n // 2
        # in the caller's context, so numpy's errstate holds in both halves
        helper.tasks.put((contextvars.copy_context().run, body, mid, n,
                          helper.cpu()))
        try:
            body(0, mid)
        finally:
            try:
                helper.done.acquire()
            except BaseException:
                # interrupted (Ctrl-C) while the helper still runs its half:
                # its late "done" would answer the next split, so retire it
                _helper = None
                raise
            error, helper.error = helper.error, None
        if error is not None:
            raise error
    finally:
        _busy.release()


def ufunc(f: np.ufunc, a: np.ndarray, b, dtype: np.dtype) -> np.ndarray:
    """``f(a, b)`` into an arena buffer of ``dtype`` (exactly the dtype
    numpy gives the result), split over ``a``'s leading axis.

    ``b`` is a scalar or an array broadcasting against ``a``; it is sliced
    with ``a`` when it has ``a``'s leading axis.  Below :data:`MIN_BYTES`
    this is one size test and the plain call.
    """
    nbytes = a.size * max(a.itemsize, dtype.itemsize)
    if nbytes < MIN_BYTES or a.ndim == 0:
        return f(a, b, out=arena.empty(a.shape, dtype))
    out = arena.buffer(a.shape, dtype)
    n = len(a)
    rows = np.ndim(b) == a.ndim and b.shape[0] == n

    def body(lo, hi):
        f(a[lo:hi], b[lo:hi] if rows else b, out=out[lo:hi])
    split(n, nbytes, body)
    return out
