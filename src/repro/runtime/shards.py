"""Shard workers: the processes that give a fused array more than one core.

One constant, :data:`MIN_SLOT_BYTES`, decides how an array uses the CPUs
this process may run on (:func:`cpus`).  An array whose slots each hold at
least that many bytes of parameters is *cut*: contiguous shards, one per
allowed CPU (:func:`split`), the lowest trained here and each other one in
a long-lived worker process, while the array runs alone.  An array below
it is never cut: it trains *whole* on a core of its own, beside the
cycle's other small arrays — this process first, then each worker, which
a width-1 array never takes (the engine's turn loop,
:mod:`repro.runtime.engine`).  Workers are forked lazily
(``multiprocessing``'s ``fork`` context), one per allowed CPU beyond the
first, are daemonic and are shared by every engine in the process;
one that died is replaced by a fresh fork the next time a worker is
needed.  One-CPU hosts never reach them, and an array whose model drops
(an ``nn.Dropout`` or ``nn.Dropout2d`` with ``p > 0``) is never cut: each
shard would draw its own mask from a copy of the layer's generator, so the
masks, and the curves, would follow the CPU count.

A worker keeps the objects it was asked to make under integer ids and
answers one message at a time, strictly request then reply, so two large
messages are never in flight on one pipe at once.  A message is ``(drop,
size, calls)``: the ids whose parent-side handles died, the size of the
worker's shared buffer, then a list of ``(out, target, name, args)`` calls
— ``name(*args)`` when ``target`` is ``None`` (``name`` is then a
picklable callable), else the method ``name`` of the object ``target`` —
whose results are stored under ``out`` when it is not ``None`` and sent
back otherwise.  The reply is ``("ok", results)`` or ``("error",
traceback)``.  The parent raises every failure, a worker's exception as
much as its death, as :class:`ShardError` — an ``Exception``, so the
array fails like any array failure and the fleet never reads it as a dead
device.

Arrays reach a worker through its shared buffer, not the pipe: a memory
file (``os.memfd_create``) made when the worker forks, which both
processes map.  :meth:`Worker.put` copies arrays into it and returns
each one's ``(shape, dtype, offset)``, which is all that travels in the
request; the worker reads the array in place with :func:`view`, valid for
that one request.  The buffer grows (``ftruncate``) when a request needs
more room, and the request carries the size, so the worker maps the grown
file before it reads.  Both ends poll the pipe while the next message is
due, and only then block (:func:`_await`).

A worker exits on EOF of its pipe: after each fork it closes the parent's
ends of every pipe it inherited, so the parent's exit (or a retired
handle) is all it takes.  It ignores ``SIGINT``; Ctrl-C is the parent's.
Workers fork rather than spawn: a forked worker starts in milliseconds
with the parent's modules loaded, where a spawned one would import them
afresh, and the runtime runs no thread of its own that a fork could
catch holding a lock (the fleet steps every device on the caller's
thread).
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import pickle
import signal
import time
import traceback
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["MIN_SLOT_BYTES", "Remote", "ShardError", "Worker", "cpus",
           "overlap", "receive", "send", "serve", "split", "view",
           "workers"]

#: a slot's parameter bytes that decide how an array uses the cores
#: (``docs/performance.md``, "The second vCPU", 2-vCPU guest).  At or
#: above it an array is cut, one shard per CPU: the ``sweep_paper``
#: PointNet and LM slots hold 404 and 528 KiB, and sharded, their width-4
#: steps took 0.59-1.00x the one-process step (``tools/step_probe.py``).
#: Below it each array gets a core of its own: the ``sweep_mlp`` and
#: ``serve_elastic`` MLP slots hold at most 11 KiB, and cut (this constant
#: at 0) their width-8 step took 1.41-1.74x the one-process step and
#: ``slot_steps_per_s`` fell to 0.63x and 0.50x (0/10 paired runs won on
#: either); two whole width-8 arrays side by side, one per core, read
#: 1.13x and 1.22x (9/10 pairs won in each of two runs)
MIN_SLOT_BYTES = 256 * 1024


class ShardError(RuntimeError):
    """A worker raised, died or lost its pipe while serving a request."""


#: the worker's map of its shared buffer (:func:`view` reads it)
_mapped: Optional[mmap.mmap] = None


def view(shape: Tuple[int, ...], dtype: str, offset: int) -> np.ndarray:
    """In a worker: the array :meth:`Worker.put` sent as ``(shape, dtype,
    offset)``, read in place (valid until the request is answered)."""
    return np.ndarray(shape, dtype, _mapped, offset)


def _await(conn, until: float) -> None:
    """Return once ``conn`` has a message (or its other end closed):
    polled until ``time.perf_counter()`` reads ``until``, then waited for.
    A process that blocks gives up its idle CPU, and a virtual machine's
    host may hand the core to another guest meanwhile, so the process
    resumes late and with cold caches (``docs/performance.md``,
    "Spread").  Each side polls only while the next message is due: the
    parent until its request's reply is, one round trip as long as the
    last after the send; the worker, after a reply, for as long as that
    request took to serve."""
    while not conn.poll(0):
        if time.perf_counter() >= until:
            conn.poll(None)
            return


def serve(conn, buffer: Optional[int] = None, inherited: Sequence = ()
          ) -> None:
    """A worker's command loop over ``conn`` until EOF (module docstring).

    ``buffer`` is the file descriptor of the worker's shared buffer.
    ``inherited`` are pipe ends and descriptors the fork copied in that
    belong to the parent: closed first, so that each worker sees EOF when
    the parent goes."""
    global _mapped
    for end in inherited:
        if isinstance(end, int):
            os.close(end)
        else:
            end.close()
    with contextlib.suppress(ValueError):   # not the main thread: no-op
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    objects: Dict[int, object] = {}
    until = 0.0             # when the next request stops being due
    while True:
        try:
            _await(conn, until)
            request = conn.recv_bytes()
        except EOFError:
            return
        start = time.perf_counter()
        try:
            # unpickled here, so that a request naming what this process
            # cannot load is answered like any failure
            drop, size, calls = pickle.loads(request)
            if size > (len(_mapped) if _mapped is not None else 0):
                _mapped = mmap.mmap(buffer, size)
            for oid in drop:
                objects.pop(oid, None)
            results = []
            for out, target, name, args in calls:
                call = name if target is None else getattr(objects[target],
                                                           name)
                result = call(*args)
                if out is not None:
                    objects[out], result = result, None
                results.append(result)
            reply = ("ok", results)
        except BaseException:  # noqa: BLE001 — every failure is a reply
            reply = ("error", traceback.format_exc())
        served = time.perf_counter() - start
        try:
            conn.send(reply)
        except OSError:             # the parent is gone
            return
        except Exception:  # noqa: BLE001 — an unpicklable result
            conn.send(("error", traceback.format_exc()))
        until = time.perf_counter() + served


class Worker:
    """One worker process, the parent's end of its pipe and the shared
    buffer the requests' arrays travel in."""

    def __init__(self, others: Sequence["Worker"] = ()):
        # imported here: a process that never needs a worker never loads it
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self.conn, child = context.Pipe()
        self.fd = os.memfd_create("repro-shard")
        #: the parent's map of the buffer (bytes), the buffer's size, and
        #: how many of its bytes hold the arrays put since the last reply
        self.buffer: Optional[memoryview] = None
        self.size = self.used = 0
        inherited = [end for worker in others
                     for end in (worker.conn, worker.fd)]
        self.process = context.Process(
            target=serve, args=(child, self.fd, inherited + [self.conn]),
            name="repro-shard", daemon=True)
        self.process.start()
        child.close()
        self.ids = itertools.count()
        #: ids whose handles died since the last message: dropped with it
        self.dead: List[int] = []
        #: when the request in flight was sent, and how long the last
        #: request took from send to reply
        self.sent = self.round_trip = 0.0

    @property
    def alive(self) -> bool:
        """Whether the process runs and its pipe is open."""
        return self.conn is not None and self.process.is_alive()

    def put(self, arrays: Sequence) -> List[Tuple[Tuple[int, ...], str,
                                                  int]]:
        """Copy ``arrays`` into the shared buffer for the next request:
        each one's ``(shape, dtype, offset)``, which the worker reads with
        :func:`view`.  The buffer grows when it is full."""
        if self.conn is None:
            raise ShardError("the shard worker was retired")
        arrays = [np.asarray(array) for array in arrays]
        placed, used = [], self.used
        for array in arrays:
            if array.dtype.hasobject:
                raise TypeError(f"a batch of dtype {array.dtype} cannot be "
                                f"sent to a shard worker")
            start = -(-used // 64) * 64           # cache-line aligned
            used = start + array.nbytes
            placed.append((array.shape, array.dtype.str, start))
        if used > self.size:
            # at least doubled, so an epoch that outgrows it regrows
            # once; the file keeps what is already written
            self.size = -(-max(used, 2 * self.size)
                          // mmap.PAGESIZE) * mmap.PAGESIZE
            os.ftruncate(self.fd, self.size)
            self.buffer = memoryview(mmap.mmap(self.fd, self.size))
        self.used = used
        for array, (_, _, start) in zip(arrays, placed):
            if array.nbytes:
                self.buffer[start:start + array.nbytes] = \
                    np.ascontiguousarray(array).data.cast("B")
        return placed

    def send(self, calls: List[Tuple]) -> None:
        """Send one request; :meth:`receive` must follow before the next."""
        if self.conn is None:
            raise ShardError("the shard worker was retired")
        # emptied in place: every handle's finalizer appends to this list
        drop = []
        while self.dead:
            drop.append(self.dead.pop())
        try:
            self.conn.send((drop, self.size, calls))
            self.sent = time.perf_counter()
        except BaseException as exc:
            self.retire()
            if isinstance(exc, Exception):
                raise ShardError(f"sending to a shard worker: {exc!r}") \
                    from exc
            raise

    def receive(self) -> list:
        """The reply to the request in flight (its arrays' room in the
        shared buffer is free again)."""
        self.used = 0
        try:
            _await(self.conn, self.sent + self.round_trip)
            status, payload = self.conn.recv()
        except BaseException as exc:
            # EOF (the worker died) or an interrupted wait: either way the
            # next reply on this pipe would answer the wrong request
            self.retire()
            if isinstance(exc, Exception):
                raise ShardError(f"the shard worker died: {exc!r}") from exc
            raise
        self.round_trip = time.perf_counter() - self.sent
        if status != "ok":
            raise ShardError(f"in a shard worker:\n{payload}")
        return payload

    def call(self, *calls: Tuple) -> list:
        """One request of ``calls``, and its results."""
        self.send(list(calls))
        return self.receive()

    def retire(self) -> None:
        """Close the pipe and reap the process (it is killed first: what
        it is doing no longer answers anyone)."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        self.buffer = None


_workers: List[Worker] = []


def _forget() -> None:
    """In a forked child: the parent's workers are not its own (dropping
    them closes the child's copies of their pipes)."""
    global _workers
    _workers = []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def cpus() -> int:
    """How many CPUs this process may run on."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def workers() -> List[Worker]:
    """One live worker per allowed CPU beyond the first, forking any that
    is missing or dead."""
    count = cpus() - 1
    for index in range(count):
        if index < len(_workers):
            if _workers[index].alive:
                continue
            _workers[index].retire()
        worker = Worker([other for other in _workers
                         if other.conn is not None])
        if index < len(_workers):
            _workers[index] = worker
        else:
            _workers.append(worker)
    return _workers[:count]


def split(width: int, slot_bytes: int
          ) -> List[Tuple[int, int, Optional[Worker]]]:
    """An array's shards: ``(lo, hi, worker)`` per contiguous run of slots,
    the lowest (``worker`` ``None``) in this process.  One run unless the
    slots are large, the array wider than one and the process allowed
    more than one CPU; the lowest run is never the larger one."""
    count = min(width, cpus()) if slot_bytes >= MIN_SLOT_BYTES else 1
    cuts = [width * k // count for k in range(count + 1)]
    hosts = [None] + (workers() if count > 1 else [])
    return [(cuts[k], cuts[k + 1], hosts[k]) for k in range(count)]


class Remote:
    """A shard a worker holds: ``width`` slots under id ``oid`` there.

    Dropping the handle drops the worker's object with the next message.
    """

    def __init__(self, worker: Worker, oid: int, width: int):
        self.worker, self.oid, self.width = worker, oid, width
        weakref.finalize(self, worker.dead.append, oid)

    @classmethod
    def make(cls, worker: Worker, width: int, factory: Callable,
             *args) -> "Remote":
        """``factory(*args)``, made in ``worker``: the request is sent, and
        the caller must :func:`receive` its reply before the next one."""
        oid = next(worker.ids)
        worker.send([(oid, None, factory, args)])
        return cls(worker, oid, width)

    def request(self, name: str, *args) -> Tuple:
        """The call running this shard's method ``name``, for :func:`send`."""
        return None, self.oid, name, args

    def call(self, name: str, *args):
        """This shard's method ``name`` run in the worker: its result."""
        return self.worker.call(self.request(name, *args))[0]

    def take(self, indices: Sequence[int]) -> "Remote":
        """A new shard of these slots: the worker object's ``take``."""
        oid = next(self.worker.ids)
        self.worker.call((oid, self.oid, "take", (list(indices),)))
        return type(self)(self.worker, oid, len(indices))


def send(requests: Dict[Worker, List[Tuple]]) -> List[Worker]:
    """One request to each worker; returns the workers to :func:`receive`
    from.  When a send fails, the replies of those already sent are
    collected before it raises."""
    sent: List[Worker] = []
    try:
        for worker, calls in requests.items():
            worker.send(calls)
            sent.append(worker)
    except BaseException:
        with contextlib.suppress(Exception):
            receive(sent)
        raise
    return sent


def overlap(sent: Sequence[Worker], work: Callable):
    """``work()`` while the workers in ``sent`` serve their requests: (its
    result, their replies).  ``work`` may append to ``sent`` the workers
    it sends to.  If it raises, the replies are collected all the same
    before the exception propagates."""
    try:
        result = work()
    except BaseException:
        with contextlib.suppress(Exception):
            receive(sent)
        raise
    return result, receive(sent)


def receive(sent: Sequence[Worker]) -> Dict[Worker, list]:
    """Every sent worker's reply; the first failure is raised once every
    reply is in, so no pipe is left with a reply pending."""
    replies: Dict[Worker, list] = {}
    error: Optional[BaseException] = None
    for worker in sent:
        try:
            replies[worker] = worker.receive()
        except Exception as exc:  # noqa: BLE001 — raised below
            error = error or exc
    if error is not None:
        raise error
    return replies
