"""Shard workers: the processes a large fused array's upper slots train in.

A fused operator carries ``B`` models' independent work.  When each slot
of an array holds at least :data:`MIN_SLOT_BYTES` of parameters, the
engine cuts the array into contiguous shards, one per CPU this process may
use (:func:`split`): the lowest shard trains here, each other one in a
long-lived worker process, one per allowed CPU beyond the first.  Workers
are forked lazily (``multiprocessing``'s ``fork`` context), are daemonic,
and are shared by every engine in the process; one that died is replaced
by a fresh fork the next time an array is cut.  Width-1 arrays, small
slots and one-CPU hosts never reach this module, and neither does an array
whose model drops (an ``nn.Dropout`` or ``nn.Dropout2d`` with ``p > 0``):
each shard would draw its own mask from a copy of the layer's generator,
so the masks, and the curves, would follow the CPU count.  Such an array
trains in one process.

A worker keeps the objects it was asked to make under integer ids and
answers one message at a time, strictly request then reply, so two large
messages are never in flight on one pipe at once.  A message is ``(drop,
calls)``: the ids whose parent-side handles died, then a list of ``(out,
target, name, args)`` calls — ``name(*args)`` when ``target`` is ``None``
(``name`` is then a picklable callable), else the method ``name`` of the
object ``target`` — whose results are stored under ``out`` when it is not
``None`` and sent back otherwise.  The reply is ``("ok", results)`` or
``("error", traceback)``.  The parent raises every failure, a worker's
exception as much as its death, as :class:`ShardError` — an
``Exception``, so the array fails like any array failure and the fleet
never reads it as a dead device.

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
import os
import signal
import traceback
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["MIN_SLOT_BYTES", "Remote", "ShardError", "Worker", "overlap",
           "receive", "send", "serve", "split", "workers"]

#: a slot's parameter bytes from which an array is cut into shards
#: (``docs/performance.md``, "The second vCPU", 2-vCPU guest).  The
#: ``sweep_paper`` PointNet and LM slots hold 404 and 528 KiB: sharded,
#: their width-4 steps took 0.59-1.00x the one-process step
#: (``tools/step_probe.py``).  The ``sweep_mlp`` and ``serve_elastic``
#: MLP slots hold at most 11 KiB: with this constant at 0 their width-8
#: step took 1.41-1.74x the one-process step, and ``slot_steps_per_s``
#: fell to 0.63x and 0.50x (0/10 paired runs won on either)
MIN_SLOT_BYTES = 256 * 1024


class ShardError(RuntimeError):
    """A worker raised, died or lost its pipe while serving a request."""


def serve(conn, inherited: Sequence = ()) -> None:
    """A worker's command loop over ``conn`` until EOF (module docstring).

    ``inherited`` are pipe ends the fork copied in that belong to the
    parent: closed first, so that each worker sees EOF when the parent
    goes."""
    for end in inherited:
        end.close()
    with contextlib.suppress(ValueError):   # not the main thread: no-op
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    objects: Dict[int, object] = {}
    while True:
        try:
            drop, calls = conn.recv()
        except EOFError:
            return
        for oid in drop:
            objects.pop(oid, None)
        try:
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
        try:
            conn.send(reply)
        except OSError:             # the parent is gone
            return
        except Exception:  # noqa: BLE001 — an unpicklable result
            conn.send(("error", traceback.format_exc()))


class Worker:
    """One worker process and the parent's end of its pipe."""

    def __init__(self, others: Sequence["Worker"] = ()):
        # imported here: a process that never shards never loads it
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self.conn, child = context.Pipe()
        inherited = [worker.conn for worker in others] + [self.conn]
        self.process = context.Process(target=serve, args=(child, inherited),
                                       name="repro-shard", daemon=True)
        self.process.start()
        child.close()
        self.ids = itertools.count()
        #: ids whose handles died since the last message: dropped with it
        self.dead: List[int] = []

    @property
    def alive(self) -> bool:
        """Whether the process runs and its pipe is open."""
        return self.conn is not None and self.process.is_alive()

    def send(self, calls: List[Tuple]) -> None:
        """Send one request; :meth:`receive` must follow before the next."""
        if self.conn is None:
            raise ShardError("the shard worker was retired")
        # emptied in place: every handle's finalizer appends to this list
        drop = []
        while self.dead:
            drop.append(self.dead.pop())
        try:
            self.conn.send((drop, calls))
        except BaseException as exc:
            self.retire()
            if isinstance(exc, Exception):
                raise ShardError(f"sending to a shard worker: {exc!r}") \
                    from exc
            raise

    def receive(self) -> list:
        """The reply to the request in flight."""
        try:
            status, payload = self.conn.recv()
        except BaseException as exc:
            # EOF (the worker died) or an interrupted wait: either way the
            # next reply on this pipe would answer the wrong request
            self.retire()
            if isinstance(exc, Exception):
                raise ShardError(f"the shard worker died: {exc!r}") from exc
            raise
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


_workers: List[Worker] = []


def _forget() -> None:
    """In a forked child: the parent's workers are not its own (dropping
    them closes the child's copies of their pipes)."""
    global _workers
    _workers = []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def _cpus() -> int:
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def workers() -> List[Worker]:
    """One live worker per allowed CPU beyond the first, forking any that
    is missing or dead."""
    count = _cpus() - 1
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
    count = min(width, _cpus()) if slot_bytes >= MIN_SLOT_BYTES else 1
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
