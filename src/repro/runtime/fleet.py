"""Multi-device fleet scheduler: serve one job stream across many devices.

This is the top of the runtime after the fleet refactor.  The single-device
:class:`~repro.runtime.engine.TrainingArrayEngine` is demoted to a
*per-device worker*; the fleet owns the shared intake queue and metrics and
runs the scheduling loop::

    queue.pop_pending()                       (queue.py)
      -> batcher.form_cohorts()               (batcher.py)
      -> placer.place()                       (placement.py, repro.hwsim)
           device + width per array, cost-model driven
      -> per-device work queues, drained by one event loop (_run_workers)
           ArrayExecutor stepped epoch by epoch (engine.py):
             evict finished slots, admit queued jobs into freed width,
             preempt for deadline-at-risk jobs (the victims stay queued
             on the same device)
      -> emit(Event("array", ...))            (metrics.py)

A live array trains on the device it was placed on, at that device's
width cap, until it drains.  Only crash recovery moves work off a device
(:meth:`FleetScheduler._rehome`): the dead device's queued work moves to a
healthy device that can hold it, and its running array's jobs requeue
from the store.

Concurrency model: there is none inside a cycle.  Devices are *simulated*
accelerators, and ``run_cycle`` runs their work items one at a time on the
caller's thread: the next turn goes to the live device with queued work
and the smallest ``(timeline, name)``, where a device's timeline
(``engine.sim_time``) is the hwsim cost-model price of every epoch it has
run.  That is the order concurrent devices would finish their work in, so
freed-width admission takes queued jobs as it would on parallel hardware
— and the schedule is a pure function of the submitted jobs, identical
for ``execution="real"`` and ``execution="sim"``; the backends differ only
in the physics (numpy training vs. cost-model projection) and in which
clock stamps results, SLOs and heartbeats.  In real mode the timelines are
ordering keys, never charged to a wall-clock metric.  Each array's
training state has one owner at a time (the running item or a work
deque), which is why fleet execution preserves the runtime's core
invariant — every checkpoint is serial-equivalent no matter how often its
array was split or widened.  Callers on other threads may submit,
cancel and probe liveness while a cycle runs: the queue, the metrics and
the state behind ``stalled_workers()`` / ``quarantined_devices()`` stay
locked.

Failure isolation carries over from the engine: a failing multi-job array
quarantines its live jobs (``solo``) back into the shared queue, and the
*next* scheduling cycle retries them as width-1 arrays — on whichever
device the cost model then picks.  A failing array occupies only its own
device; cohort-mates already dispatched elsewhere keep training, and jobs
already evicted keep their checkpoints.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import (Deque, Dict, List, Optional, Sequence, Set, Tuple,
                    Union)

from ..hwsim import DeviceSpec
from .batcher import Batcher
from .checkpoint import CheckpointStore, RecoveryManager
from .engine import ArrayExecutor, JobResult, TrainingArrayEngine
from .metrics import Event, RuntimeMetrics
from .placement import DEFAULT_FLEET, FleetPlacer, PlacementDecision
from .placement_lp import LPFleetPlacer
from .queue import JobQueue, JobState
from .sim import SimulatedCrash, VirtualClock

__all__ = ["DeviceWorker", "FleetScheduler"]

#: what a device worker's deque holds: a placed-but-unstarted plan, or a
#: live executor handed over mid-training (a preempted child)
WorkItem = Union[PlacementDecision, ArrayExecutor]


class DeviceWorker:
    """One device of the fleet: an engine bound to a device plus its queue."""

    def __init__(self, device: DeviceSpec, engine: TrainingArrayEngine):
        self.device = device
        self.engine = engine
        self.plans: Deque[WorkItem] = deque()

    @property
    def name(self) -> str:
        """The worker's device name (its key in the fleet's tables)."""
        return self.device.name

    def turn_key(self) -> Tuple[float, str]:
        """What the event loop orders device turns by: the projected
        timeline, then the name (a total, deterministic order)."""
        return self.engine.sim_time, self.device.name


class FleetScheduler:
    """Places and trains fused arrays across a fleet of simulated devices.

    Drop-in analogue of :class:`TrainingArrayEngine` at fleet scale: same
    ``submit`` / ``run_cycle`` / ``run_until_idle`` surface, same
    :class:`JobResult` contract, but each scheduling cycle places arrays on
    the cost-model-optimal devices and trains them in the order those
    devices' projected timelines say they would finish (see the module
    docstring); ``execution`` picks the physics, never the schedule.

    ``admission`` plugs a serving gateway's admission policy into the
    scheduling loop (duck-typed so :mod:`repro.runtime.gateway` stays an
    optional layer): ``rank(sub)`` orders dequeue/admission (smallest
    first), ``now()`` reads the gateway clock for deadline-weighted
    placement, ``at_risk(sub)`` flags jobs projected to miss their SLO,
    and ``preemption_victims(executor, need)`` picks up to ``need`` slot
    indices an at-risk job may take over (over-quota tenants, lowest
    priority first).  With a policy installed, every dequeue becomes a
    weighted-fair dequeue, cohorts are placed in SLO-slack order, and the
    epoch-boundary hook may *preempt*: victims are detached into their own
    executor (state moved wholesale, nothing lost) and requeued on the
    worker while the at-risk job boards the freed width.
    """

    def __init__(self, devices: Sequence[DeviceSpec] = DEFAULT_FLEET,
                 placer: Optional[FleetPlacer] = None,
                 metrics: Optional[RuntimeMetrics] = None,
                 max_width: int = 8, precision: str = "amp",
                 default_workload: str = "pointnet_cls",
                 admission=None,
                 store: Optional[CheckpointStore] = None,
                 checkpoint_every: int = 0,
                 recovery: Optional[RecoveryManager] = None,
                 execution: str = "real",
                 clock: Optional[VirtualClock] = None,
                 placement: str = "greedy"):
        self.queue = JobQueue()
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        self.batcher = Batcher()
        if placement not in ("greedy", "lp"):
            raise ValueError(f"placement must be 'greedy' or 'lp', "
                             f"got {placement!r}")
        if placer is not None:
            self.placer = placer
        elif placement == "lp":
            self.placer = LPFleetPlacer(
                devices=tuple(devices), max_width=max_width,
                precision=precision, default_workload=default_workload)
        else:
            self.placer = FleetPlacer(
                devices=tuple(devices), max_width=max_width,
                precision=precision, default_workload=default_workload)
        self._last_solution_seen = None
        self.admission = admission
        if execution not in ("real", "sim"):
            raise ValueError(f"execution must be 'real' or 'sim', "
                             f"got {execution!r}")
        self.execution = execution
        #: the fleet-wide virtual clock (sim mode); every per-device
        #: engine drags it along as its own timeline progresses, and the
        #: gateway adopts it as its SLO clock.  A real fleet's timelines
        #: move no clock: they only order device turns
        self.clock = clock
        if execution == "sim" and self.clock is None:
            self.clock = VirtualClock()
        #: chaos-injection hook: ``chaos(device_name, executor) -> bool``
        #: is consulted at every epoch boundary; returning True raises
        #: :class:`SimulatedCrash`, killing the device mid-array — the
        #: crash sweep and WAL recovery take over
        self.chaos = None
        #: durable-checkpoint layer (repro.runtime.checkpoint): shared by
        #: every per-device engine; `recovery` is the WAL fold of every
        #: event the fleet and its engines emit
        self.store = store
        self.recovery = recovery
        if recovery is not None:
            # job ids key the WAL and the store's manifests: never reissue
            # one a previous process on the same log already used
            self.queue.reserve_ids(recovery.next_job_id())
        #: guards what another thread may read while a cycle runs: the
        #: in-flight and quarantine tables behind stalled_workers() and
        #: quarantined_devices().  Work deques and the array-id counter
        #: belong to the run_cycle caller alone
        self._state_lock = threading.Lock()
        self._array_ids = itertools.count()
        #: devices the event loop still offers turns this cycle (healthy
        #: and not crashed)
        self._live_workers: Dict[str, DeviceWorker] = {}
        #: crash detection: worker name -> executor it is currently
        #: running.  Registered before run_executor, cleared after it
        #: returns — a device that dies mid-array (a crash bypasses every
        #: except-Exception handler) leaves its entry behind for the
        #: end-of-cycle sweep (see _recover_crashed)
        self._inflight: Dict[str, ArrayExecutor] = {}
        #: worker name -> last heartbeat (time.monotonic), touched at
        #: every work-item pickup and epoch boundary; stalled_workers()
        #: is the operator-facing liveness probe built on it
        self.heartbeats: Dict[str, float] = {}
        #: devices quarantined after a crash: placement avoids one and the
        #: event loop offers it no turn for the one cycle that follows
        #: (quarantine-then-recover)
        self._quarantined: Set[str] = set()
        self.workers: Dict[str, DeviceWorker] = {}
        for device in self.placer.devices:
            engine = TrainingArrayEngine(
                queue=self.queue, metrics=self.metrics, device=device,
                batcher=self.batcher,
                array_ids=self._array_ids.__next__,
                store=store, checkpoint_every=checkpoint_every,
                recovery=recovery,
                execution=execution, clock=self.clock,
                precision=getattr(self.placer, "precision", precision),
                default_workload=getattr(self.placer, "default_workload",
                                         default_workload))
            self.workers[device.name] = DeviceWorker(device, engine)

    # ------------------------------------------------------------------ #
    # intake and events: the engine's surface, unchanged — the fleet holds
    # the queue, metrics and recovery manager its engines share
    # ------------------------------------------------------------------ #
    emit = TrainingArrayEngine.emit
    submit = TrainingArrayEngine.submit
    submit_all = TrainingArrayEngine.submit_all
    cancel = TrainingArrayEngine.cancel

    # ------------------------------------------------------------------ #
    # scheduling cycles
    # ------------------------------------------------------------------ #
    def run_cycle(self, max_jobs: int = 0) -> List[JobResult]:
        """Batch, place, and train one round of pending jobs."""
        policy = self.admission
        batch = self.queue.pop_fair(
            max_jobs, key=policy.rank if policy is not None else None)
        if not batch:
            return []
        self.emit(Event("dequeue", tuple(sub.job_id for sub in batch)))
        cohorts, failures = self.batcher.form_cohorts(batch)
        for sub, error in failures:
            # every device engine shares this fleet's queue, metrics and WAL
            next(iter(self.workers.values())).engine._fail_job(sub, error)

        # `now` turns on SLO-slack ordering; without a policy there is no
        # gateway clock to read it from
        decisions = (self.placer.place(cohorts, now=policy.now())
                     if policy is not None
                     else self.placer.place(cohorts))
        self._record_solve()
        for decision in decisions:
            if decision.device_name in self._quarantined:
                # a quarantined (recently crashed) device takes no new
                # work until its quarantine expires
                decision = self._rehome(decision)
                if decision is None:
                    continue
            self.workers[decision.device_name].plans.append(decision)
            self.emit(Event(
                "place", tuple(sub.job_id for sub in decision.plan.jobs),
                device=decision.device_name))
        return self._run_workers()

    def run_until_idle(self) -> Dict[int, JobResult]:
        """Run cycles until the queue is empty; results keyed by job id.

        Also records the fleet's wall-clock serving time, the denominator
        of :attr:`RuntimeMetrics.aggregate_throughput` and of the
        per-device utilization counters.
        """
        results: Dict[int, JobResult] = {}
        start = time.perf_counter()
        while self.queue.pending_count:
            for result in self.run_cycle():
                results[result.job_id] = result
        self.emit(Event("wall", data=time.perf_counter() - start))
        return results

    def _record_solve(self) -> None:
        """Emit the optimizer's latest solve (the metrics ledger's entry).

        Solver wall latency is recorded but never charged to virtual
        time; in sim mode the clock advances by the solution's
        *deterministic* ``virtual_cost_s`` instead, so same-seed sim runs
        stay bit-identical regardless of how fast scipy ran today.
        """
        solution = getattr(self.placer, "last_solution", None)
        if solution is None or solution is self._last_solution_seen:
            return
        self._last_solution_seen = solution
        self.emit(Event("solve", data=solution))
        if self.execution == "sim" and solution.virtual_cost_s > 0:
            self.clock.advance(solution.virtual_cost_s)

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #
    def _run_workers(self) -> List[JobResult]:
        """Drain every device's work queue, one work item at a time.

        Devices run *serially but interleaved along their timelines*: each
        turn, the live device with queued work and the smallest
        ``(engine.sim_time, name)`` runs its next item until the array
        drains, which advances the device's timeline by the cost model's
        price of the epochs it ran.  This visits work in
        the order concurrent devices would finish it, so freed-width
        admissions and the fleet makespan mirror parallel hardware —
        deterministically, and identically on both execution backends
        (see :meth:`_take` for the turn rule).

        A device whose timeline lags the cycle start (it sat idle while
        arrivals accumulated) first jumps forward to the cycle floor — the
        virtual clock in sim mode, the furthest timeline in real mode:
        idle time passes, it is never rewound.

        Quarantined devices get no turn this cycle (their queued plans
        were re-homed at placement), and a device whose item crashed
        gets no further one: its in-flight registration stays behind, its
        in-memory array state is untrusted, and the end-of-cycle sweep
        recovers the jobs from the durable checkpoint store instead
        (:meth:`_recover_crashed`).
        """
        results: List[JobResult] = []
        # if every device is quarantined, lift them all — the fleet must
        # make progress even after a correlated crash
        if len(self._quarantined) >= len(self.workers):
            with self._state_lock:
                self._quarantined.clear()
        self._live_workers = {name: worker
                              for name, worker in self.workers.items()
                              if name not in self._quarantined}
        floor = (self.clock.now() if self.execution == "sim"
                 else self.virtual_makespan())
        while True:
            turn = self._take()
            if turn is None:
                break
            worker, item = turn
            worker.engine.sim_time = max(worker.engine.sim_time, floor)
            if self._run_item(worker, item, results):
                del self._live_workers[worker.name]
        return self._finish_cycle(results)

    def _run_item(self, worker: DeviceWorker, item: WorkItem,
                  results: List[JobResult]) -> bool:
        """Run one work item on its device; True if the device died.

        ``run_executor`` contains its own failure isolation (quarantine
        requeue); an ``Exception`` it does raise is recorded and the
        device lives on.  Any other ``BaseException`` is a *dead device* —
        a chaos-injected :class:`SimulatedCrash`, a hard kill from below
        every handler: the in-flight registration is deliberately left
        behind for the crash sweep.  ``KeyboardInterrupt`` and
        ``SystemExit`` are the caller's own and propagate.  Slots the
        array retired before it failed were already exported, persisted
        final and journaled COMPLETED, so their results are returned
        either way.
        """
        self.heartbeats[worker.name] = self._heartbeat_now()
        if isinstance(item, PlacementDecision):
            executor = worker.engine.make_executor(item.plan)
        else:
            executor = item
            executor.device_name = worker.name
        with self._state_lock:
            self._inflight[worker.name] = executor
        crashed = False
        try:
            out = worker.engine.run_executor(
                executor,
                after_epoch=lambda ex: self._after_epoch(worker, ex))
        except Exception:  # noqa: BLE001 — device must outlive any array
            self.emit(executor.event("array_failed"))
            out = executor.take_results()
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException:  # noqa: BLE001 — see the crash rule above
            crashed = True
            out = executor.take_results()
        if not crashed:
            with self._state_lock:
                self._inflight.pop(worker.name, None)
        results.extend(out)
        return crashed

    def _finish_cycle(self, results: List[JobResult]) -> List[JobResult]:
        """End-of-cycle sweep: expire quarantines, recover crashed devices
        (in-flight registrations that were never cleared), flush orphans.
        """
        with self._state_lock:
            self._quarantined.clear()
            crashed, self._inflight = dict(self._inflight), {}
        for name, executor in crashed.items():
            self._recover_crashed(name, executor)
        # Belt and braces: an executor re-homed off a crashed device just
        # now must not outlive the cycle — finish it on its new device.
        for executor in self._flush_orphans():
            worker = self.workers.get(executor.device_name) or \
                next(iter(self.workers.values()))
            results.extend(worker.engine.run_executor(executor))
        return results

    def _recover_crashed(self, name: str, executor: ArrayExecutor) -> None:
        """Quarantine a crashed worker's device and recover its jobs.

        The dead device's in-memory training state is mid-epoch and
        untrusted; the durable store is the source of truth.  Every slot
        that was still live is re-queued — with its latest checkpoint
        attached as a resume payload when one exists (quarantine-then-
        recover), from scratch otherwise (the job loses at most
        ``checkpoint_every`` epochs of work, never its correctness: the
        resumed run stays serial-equivalent).  The device is quarantined
        for the next scheduling cycle and its queued work moves to
        healthy workers (:meth:`_rehome`).
        """
        worker = self.workers[name]
        with self._state_lock:
            self._quarantined.add(name)
        stranded = list(worker.plans)
        worker.plans.clear()
        for item in stranded:
            item = self._rehome(item)
            if item is not None:
                self.workers[item.device_name].plans.append(item)
        live = [slot.sub for slot in executor.slots
                if slot.sub.state in (JobState.SCHEDULED, JobState.RUNNING)]
        self.emit(Event("crash", tuple(sub.job_id for sub in live),
                        executor.array_id, name))
        # requeue inserts at the front — reversed() preserves slot order,
        # so the recovered cohort re-fuses in the original slot layout
        for sub in reversed(live):
            worker.engine._refresh_resume(sub)
            self.queue.requeue(sub)

    def _flush_orphans(self) -> List[ArrayExecutor]:
        orphans: List[ArrayExecutor] = []
        for worker in self.workers.values():
            leftover = [item for item in worker.plans
                        if isinstance(item, ArrayExecutor)]
            for item in leftover:
                worker.plans.remove(item)
            orphans.extend(leftover)
        return orphans

    def _heartbeat_now(self) -> float:
        """The liveness clock: virtual in sim mode, monotonic otherwise."""
        return self.clock() if self.clock is not None else time.monotonic()

    # ------------------------------------------------------------------ #
    # the epoch-boundary hook (between epochs of the running item)
    # ------------------------------------------------------------------ #
    def _after_epoch(self, worker: DeviceWorker,
                     executor: ArrayExecutor) -> None:
        """Epoch-boundary hook: chaos, freed-width admission, preemption."""
        self.heartbeats[worker.name] = self._heartbeat_now()
        if self.chaos is not None and self.chaos(worker.name, executor):
            # injected device failure: a BaseException passes through the
            # runtime's except-Exception isolation and kills the device
            # mid-array, leaving its in-flight registration for the crash
            # sweep (the crash rule of _run_item)
            raise SimulatedCrash(f"chaos hook killed device {worker.name}")
        # freed-width admission from the shared queue (emits freed
        # capacity back to the scheduler the moment eviction creates it);
        # an executor's width cap is its device's (see _rehome)
        worker.engine.refill_from_queue(
            executor,
            key=self.admission.rank if self.admission is not None else None)
        self._preempt_for_deadlines(worker, executor)

    def _preempt_for_deadlines(self, worker: DeviceWorker,
                               executor: ArrayExecutor) -> None:
        """SLO enforcement: make room in a full array for at-risk jobs.

        When deadline-at-risk queued jobs could legally board this array
        (matching admission profile) but no freed width is left, the
        admission policy nominates victim slots — over-quota tenants,
        lowest priority first.  Victims are detached into their own
        executor (:meth:`ArrayExecutor.detach_slots` moves their training
        state wholesale, so they resume serially-equivalent) and requeued
        on this worker behind the current array; the at-risk jobs are then
        admitted into the width the victims vacated.
        """
        policy = self.admission
        if policy is None or executor.solo or executor.done:
            return
        batcher = worker.engine.batcher
        profile = executor.admission_profile
        candidates = [sub for sub in self.queue.pending_jobs()
                      if not sub.solo and not sub.cancel_requested
                      and sub.job_id not in executor.admission_rejects
                      and policy.at_risk(sub)
                      and batcher.admission_profile(sub) == profile]
        # confirm exact structure *before* nominating victims: the cheap
        # profile has false positives, and detaching slots for a job that
        # then fails structural admission would delay the victims for
        # nothing (a lookup per builder; never a second template build)
        at_risk = []
        for sub in candidates:
            try:
                structure = batcher.structural_signature(sub)
            except Exception:  # noqa: BLE001 — job-provided builder
                continue           # refill will fail it properly later
            if structure != executor.structural_sig:
                executor.admission_rejects.add(sub.job_id)
                continue
            at_risk.append(sub)
        if not at_risk:
            return
        need = len(at_risk) - executor.freed_width
        if need <= 0:
            return                  # freed width suffices; refill admits
        victims = policy.preemption_victims(executor, need)
        if not victims:
            return
        detached = executor.detach_slots(victims)
        self.emit(Event(
            "preempt", tuple(slot.sub.job_id for slot in detached.slots),
            executor.array_id, worker.name,
            data=tuple(slot.job.tenant for slot in detached.slots)))
        worker.plans.append(detached)
        worker.engine.refill_from_queue(executor, key=policy.rank)

    # ------------------------------------------------------------------ #
    # taking work: the turn rule
    # ------------------------------------------------------------------ #
    def _take(self) -> Optional[Tuple[DeviceWorker, WorkItem]]:
        """The next turn as ``(device, work item)``, or ``None`` when the
        cycle is drained: the live device with queued work and the
        smallest ``(timeline, name)`` runs the head of its own queue."""
        busy = [worker for worker in self._live_workers.values()
                if worker.plans]
        if not busy:
            return None
        worker = min(busy, key=DeviceWorker.turn_key)
        return worker, worker.plans.popleft()

    def _rehome(self, item: WorkItem) -> Optional[WorkItem]:
        """Move one work item off a dead (crashed or quarantined) device.

        The item goes to the least-loaded healthy device whose width cap
        holds it, re-costed for that device and with its width cap lowered
        to the device's, so freed-width admission never grows it past what
        its new device fits.  Returns the item to queue (on its
        ``device_name``), or ``None`` when a plan fits no healthy device:
        its jobs then go back to the queue for the next cycle to place.
        With no healthy device at all, or for a live executor that fits
        none, the item stays where it is (the lift-all rule of
        :meth:`_run_workers`, the orphan flush of :meth:`_finish_cycle`).
        """
        plan = item.plan
        width = (item.live_width if isinstance(item, ArrayExecutor)
                 else plan.num_models)
        workload = self.placer.resolve_workload(plan)
        healthy = [(self.placer.width_cap(workload, worker.device), worker)
                   for name, worker in self.workers.items()
                   if name not in self._quarantined]
        fits = [(cap, worker) for cap, worker in healthy if cap >= width]
        if not fits:
            if healthy and isinstance(item, PlacementDecision):
                for sub in reversed(plan.jobs):
                    self.queue.requeue(sub)
                return None
            return item
        cap, target = min(fits, key=lambda pair: len(pair[1].plans))
        estimate = self.placer.estimate(plan, target.device)
        plan.device = target.name
        plan.projected_seconds = estimate.train_seconds
        plan.width_cap = min(plan.width_cap, cap)
        if isinstance(item, PlacementDecision):
            return PlacementDecision(plan=plan, device=target.device,
                                     estimate=estimate)
        item.device_name = target.name
        item.width_cap = min(item.width_cap, cap)
        return item

    # ------------------------------------------------------------------ #
    # liveness introspection (the operator-facing monitoring surface)
    # ------------------------------------------------------------------ #
    def stalled_workers(self, timeout: float) -> List[str]:
        """Workers holding an in-flight array whose last heartbeat is
        older than ``timeout`` seconds.

        Heartbeats are touched at every work-item pickup and epoch
        boundary, so a healthy worker's age stays on the order of one
        epoch.  A stalled worker is either wedged (a hung data stream) or
        dead; either way its jobs' durable checkpoints are intact, and
        the post-cycle crash sweep (or a process restart through
        :meth:`RecoveryManager.rebuild_fleet`) recovers them — see
        ``docs/operations.md`` for the runbook.
        """
        now = self._heartbeat_now()
        with self._state_lock:
            inflight = dict(self._inflight)
        return [name for name in inflight
                if now - self.heartbeats.get(name, now) > timeout]

    def virtual_makespan(self) -> float:
        """The fleet-wide virtual finish time: the furthest any device's
        timeline has advanced (a cost-model projection on either backend;
        only sim mode also runs its clock on it).  Zero before any work
        ran."""
        return max((worker.engine.sim_time
                    for worker in self.workers.values()), default=0.0)

    def quarantined_devices(self) -> List[str]:
        """Devices currently quarantined after a crash (no new work)."""
        with self._state_lock:
            return sorted(self._quarantined)
