"""Layer spans recorded from outside the system.

The tracer wraps the public callables each layer exports, *where their
callers look them up* (``repro.runtime.engine.split_fused`` is the name
the engine calls, not ``repro.hfta.fusion.split_fused``), so nothing in
``src/`` changes.  A span is ``(id, name, start_ns, end_ns, parent,
thread, lap)``; spans stay in memory and are written once, at exit.  A
layer's self time is its spans' duration minus the part their child spans
cover.  ``install()``/``uninstall()`` put the wrappers in and take them
out again, so untraced laps in a traced run pay nothing.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "thread", "lap")

#: the spans that make up one training step
STEP_SPANS = ("data.fetch", "hfta.forward", "hfta.loss", "nn.backward",
              "hfta.optim_step", "hfta.zero_grad", "hfta.per_model")

#: ``module:attribute path`` -> span name
PATCHES = {
    # hfta re-fusion primitives, as the engine calls them
    "repro.runtime.engine:load_from_unfused": "hfta.load",
    "repro.runtime.engine:load_slot_state": "hfta.load",
    "repro.runtime.engine:export_to_unfused": "hfta.export",
    "repro.runtime.engine:export_slot_state": "hfta.export",
    "repro.runtime.engine:split_fused": "hfta.split",
    "repro.runtime.engine:split_optimizer": "hfta.split",
    "repro.runtime.engine:merge_fused": "hfta.merge",
    "repro.runtime.engine:merge_optimizers": "hfta.merge",
    # the training step
    "repro.nn.tensor:Tensor.backward": "nn.backward",
    "repro.hfta.losses:_FusedLoss.per_model": "hfta.per_model",
    "repro.hfta.optim.optimizer:FusedOptimizer.zero_grad": "hfta.zero_grad",
    "repro.hfta.optim.adam:Adam.step": "hfta.optim_step",
    "repro.hfta.optim.sgd:SGD.step": "hfta.optim_step",
    "repro.hfta.optim.adadelta:Adadelta.step": "hfta.optim_step",
    # queue, batcher, policy
    "repro.runtime.queue:JobQueue.submit": "queue.submit",
    "repro.runtime.queue:JobQueue.pop_pending": "queue.pop",
    "repro.runtime.queue:JobQueue.pop_fair": "queue.pop",
    "repro.runtime.queue:JobQueue.take_if": "queue.pop",
    "repro.runtime.batcher:Batcher.form_cohorts": "batcher.form_cohorts",
    "repro.runtime.policy:ArrayPolicy.plan": "policy.plan",
    # array lifecycle
    "repro.runtime.engine:ArrayExecutor.prepare": "engine.prepare",
    "repro.runtime.engine:ArrayExecutor.step_epoch": "engine.step_epoch",
    "repro.runtime.engine:ArrayExecutor.admit": "engine.admit",
    "repro.runtime.engine:ArrayExecutor.merge_with": "engine.merge_with",
    "repro.runtime.engine:ArrayExecutor.detach_slots": "engine.detach_slots",
    # placement and the cost model
    "repro.runtime.placement:FleetPlacer.place": "placement.place",
    "repro.runtime.placement:FleetPlacer.replan": "placement.replan",
    "repro.runtime.placement_lp:solve_instance": "placement_lp.solve",
    "repro.runtime.placement:estimate_array_cost": "hwsim.estimate",
    "repro.runtime.sim:estimate_array_cost": "hwsim.estimate",
    # fleet and gateway; fleet.run_cycle's self time includes the main
    # thread's wait for the device workers it joins
    "repro.runtime.fleet:FleetScheduler.run_cycle": "fleet.run_cycle",
    "repro.runtime.gateway:ServingGateway.submit": "gateway.submit",
    "repro.runtime.gateway:ServingGateway.run_cycle": "gateway.run_cycle",
    # durability
    "repro.runtime.checkpoint:CheckpointStore.save_slot":
        "checkpoint.save_slot",
    "repro.runtime.checkpoint:CheckpointStore.load_slot":
        "checkpoint.load_slot",
    "repro.runtime.checkpoint:RecoveryManager._append":
        "checkpoint.wal_append",
    # trace replay
    "repro.runtime.sim:TraceReplayer.run": "sim.replayer_self",
}


SPAN_NAMES = sorted(set(PATCHES.values()) | set(STEP_SPANS)
                    | {"metrics.record"})


def _resolve(path):
    module, _, attrs = path.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = attrs.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """Records spans and boundary counts for the traced laps of one run."""

    #: lap number of spans recorded outside any timed lap
    OFF_CLOCK = -1

    def __init__(self):
        self.spans = []
        self.counts = Counter()        # (lap, name) -> count
        self.queue_waits = defaultdict(list)   # lap -> seconds
        self.lap = self.OFF_CLOCK      # stamped on every span as it ends
        self.installed = False
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved = []
        self._submitted = {}           # (queue id, job id) -> submit end ns

    # ------------------------------------------------------------------ #
    def wrap(self, name, fn, on_return=None):
        """``fn`` with a span around every call."""
        local, spans, ids = self._local, self.spans, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)     # keeps inspect.signature() seeing ``fn``
        def span(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:           # first span of this thread
                stack = local.stack = [0]
                local.thread = threading.get_ident()
            parent = stack[-1]
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                del stack[-1]
                spans.append((span_id, name, start, end, parent,
                              local.thread, self.lap))
            if on_return is not None:
                on_return(args, result, end)
            return result
        return span

    def _outermost_module_call(self, original):
        """``Module.__call__``: a span for the outermost call only — the
        fused model's forward, or the fused criterion."""
        from repro.hfta.losses import _FusedLoss
        local = self._local
        forward = self.wrap("hfta.forward", original)
        loss = self.wrap("hfta.loss", original)

        @functools.wraps(original)
        def call(module, *args, **kwargs):
            if getattr(local, "in_module", False):
                return original(module, *args, **kwargs)
            local.in_module = True
            try:
                outer = loss if isinstance(module, _FusedLoss) else forward
                return outer(module, *args, **kwargs)
            finally:
                local.in_module = False
        return call

    # boundary counts and the queue wait, measured where the work happens
    def _count(self, amounts):
        """An ``on_return`` hook adding ``amount(result)`` to each named
        count of the current lap."""
        def on_return(args, result, end):
            for name, amount in amounts.items():
                self.counts[self.lap, name] += amount(result)
        return on_return

    def _note_submit(self, args, job_id, end):
        self._submitted[id(args[0]), job_id] = end

    def _note_running(self, original):
        @functools.wraps(original)
        def mark_running(queue, submitted):
            sent = self._submitted.pop((id(queue), submitted.job_id), None)
            if sent is not None:
                self.queue_waits[self.lap].append(
                    (time.perf_counter_ns() - sent) / 1e9)
            return original(queue, submitted)
        return mark_running

    # ------------------------------------------------------------------ #
    def _patch(self, path, replacement):
        owner, attr = _resolve(path)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement(original))

    def install(self):
        if self.installed:
            return
        on_return = {
            "repro.runtime.queue:JobQueue.submit": self._note_submit,
            "repro.runtime.batcher:Batcher.form_cohorts": self._count({
                "batcher.cohorts": lambda ret: len(ret[0]),
                "batcher.cohort_jobs":
                    lambda ret: sum(len(c.jobs) for c in ret[0])}),
            "repro.runtime.placement:FleetPlacer.place": self._count({
                "placement.decisions": len}),
            "repro.runtime.engine:split_fused": self._count({
                "hfta.splits": lambda ret: 1}),
            "repro.runtime.engine:merge_fused": self._count({
                "hfta.merges": lambda ret: 1}),
        }
        for path, name in PATCHES.items():
            self._patch(path, lambda fn, name=name, path=path:
                        self.wrap(name, fn, on_return.get(path)))
        from repro.runtime.metrics import RuntimeMetrics
        for attr in dir(RuntimeMetrics):
            if attr.startswith("record_"):
                self._patch(f"repro.runtime.metrics:RuntimeMetrics.{attr}",
                            lambda fn: self.wrap("metrics.record", fn))
        self._patch("repro.nn.modules.module:Module.__call__",
                    self._outermost_module_call)
        self._patch("repro.runtime.queue:JobQueue.mark_running",
                    self._note_running)
        self.installed = True

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._submitted.clear()
        self.installed = False

    # ------------------------------------------------------------------ #
    def summarize(self, lap, wall_s, worker_threads):
        """Per-layer self seconds and counts of one traced lap.

        Self time is summed over threads.  The lap's main thread is the
        caller's; ``run.unattributed_share`` is the part of the lap it
        spent under no span, ``fleet.worker_busy_share`` the part of
        ``wall_s x worker_threads`` the other threads spent under one.
        """
        main = threading.get_ident()
        spans = [s for s in self.spans if s[6] == lap]
        covered = defaultdict(int)           # span id -> ns under children
        for _, _, start, end, parent, _, _ in spans:
            covered[parent] += end - start
        self_ns, calls = defaultdict(int), Counter()
        root_ns = {True: 0, False: 0}        # on the main thread?
        for span_id, name, start, end, parent, thread, _ in spans:
            own = end - start - covered.get(span_id, 0)
            if own < 0:
                raise AssertionError(f"span {span_id} ({name}): children "
                                     f"outlast their parent by {-own} ns")
            self_ns[name] += own
            calls[name] += 1
            if parent == 0:
                root_ns[thread == main] += end - start
        if sum(self_ns.values()) != root_ns[True] + root_ns[False]:
            raise AssertionError("layer self times do not sum to the time "
                                 "under root spans")
        out = {f"{name}_s": ns / 1e9 for name, ns in self_ns.items()}
        out["calls"] = calls
        out["unattributed_s"] = max(0.0, wall_s - root_ns[True] / 1e9)
        out["worker_busy_share"] = (
            root_ns[False] / 1e9 / (wall_s * worker_threads)
            if worker_threads else 0.0)
        out["step_share"] = (
            sum(self_ns[name] for name in STEP_SPANS) /
            max(1, sum(self_ns.values())))
        waits = self.queue_waits.get(lap)
        out["queue_wait_p50_s"] = statistics.median(waits) if waits else 0.0
        for (count_lap, name), value in self.counts.items():
            if count_lap == lap:
                out[name] = value
        return out

    def write(self, path: Path):
        """One JSON array per span, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('["%s"]\n' % '", "'.join(FIELDS))
            for span in self.spans:
                handle.write('[%d, "%s", %d, %d, %d, %d, %d]\n' % span)
