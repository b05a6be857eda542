"""Multi-device fleet scheduler: serve one job stream across many devices.

The fleet drives exactly one
:class:`~repro.runtime.engine.TrainingArrayEngine` — its queue, metrics,
batcher and array ids are the fleet's — and each device is a
:class:`DeviceWorker`: a spec, a work queue and a timeline.  The fleet
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
width cap, until it drains.  Only crash recovery moves work off a device,
right where the dead device's work item is caught
(:meth:`FleetScheduler._recover_crashed`): its queued work moves to a
healthy device that can hold it and takes ordinary turns there; the
engine has already requeued its running array's jobs from the store.
Results are handed out by the queue alone (``JobQueue.take_settled``).

Concurrency model: there is none inside a cycle.  Devices are *simulated*
accelerators, and ``run_cycle`` runs their work items one at a time on the
caller's thread: the next turn goes to the device with queued work and the
smallest ``(timeline, name)``, where a device's timeline
(``DeviceWorker.sim_time``) is the hwsim cost-model price of every epoch
it has run, priced on the device the executor names
(``executor.device_name``, retagged by crash recovery).  That is the
order concurrent devices would finish their work in, so freed-width
admission takes queued jobs as it would on parallel hardware
— and the schedule is a pure function of the submitted jobs, identical
for ``execution="real"`` and ``execution="sim"``; the backends differ only
in the physics (numpy training vs. cost-model projection) and in which
clock stamps results and SLOs.  In real mode the timelines are
ordering keys, never charged to a wall-clock metric.  Each array's
training state has one owner at a time (the running item or a work
deque), which is why fleet execution preserves the runtime's core
invariant — every checkpoint is serial-equivalent no matter how often its
array was split or widened.  Callers on other threads may submit, cancel
and call ``quarantined_devices()`` while a cycle runs: the queue, the
metrics and the quarantine table stay locked.

Failure isolation carries over from the engine: a failing multi-job array
quarantines its live jobs (``solo``) back into the shared queue, and the
*next* scheduling cycle retries them as width-1 arrays — on whichever
device the cost model then picks.  A failing array occupies only its own
device; cohort-mates already dispatched elsewhere keep training, and jobs
already evicted keep their checkpoints.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import (Deque, Dict, List, Optional, Sequence, Set, Tuple,
                    Union)

from ..hwsim import ArrayCostEstimate, DeviceSpec, profile_key
from . import sim
from .checkpoint import CheckpointStore, RecoveryManager
from .engine import ArrayExecutor, JobResult, TrainingArrayEngine
from .metrics import Event, RuntimeMetrics
from .placement import DEFAULT_FLEET, FleetPlacer, PlacementDecision
from .placement_lp import LPFleetPlacer
from .sim import SimulatedCrash, VirtualClock

__all__ = ["DeviceWorker", "FleetScheduler"]

#: what a device worker's deque holds: a placed-but-unstarted plan, or a
#: live executor handed over mid-training (a preempted child)
WorkItem = Union[PlacementDecision, ArrayExecutor]


class DeviceWorker:
    """One device of the fleet: its spec, its work queue and its timeline
    (``sim_time``, see :func:`repro.runtime.sim.charge_epoch`); ``engine``
    is the fleet's one engine."""

    def __init__(self, device: DeviceSpec, engine: TrainingArrayEngine):
        self.device = device
        self.engine = engine
        self.plans: Deque[WorkItem] = deque()
        self.sim_time = 0.0

    @property
    def name(self) -> str:
        """The worker's device name (its key in the fleet's tables)."""
        return self.device.name

    def turn_key(self) -> Tuple[float, str]:
        """What the event loop orders device turns by: the projected
        timeline, then the name (a total, deterministic order)."""
        return self.sim_time, self.device.name


class FleetScheduler:
    """Places and trains fused arrays across a fleet of simulated devices.

    Drop-in analogue of :class:`TrainingArrayEngine` at fleet scale: same
    ``submit`` / ``run_cycle`` / ``run_until_idle`` surface, same
    :class:`JobResult` contract, but each scheduling cycle places arrays on
    the cost-model-optimal devices and trains them in the order those
    devices' projected timelines say they would finish (see the module
    docstring); ``execution`` picks the physics, never the schedule.

    A :class:`~repro.runtime.gateway.ServingGateway` installs itself as
    ``admission``, the admission policy of the scheduling loop (``None``
    without a gateway; duck-typed so :mod:`repro.runtime.gateway` stays
    an optional layer): ``rank(sub)`` orders dequeue/admission (smallest
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
                 store: Optional[CheckpointStore] = None,
                 checkpoint_every: int = 0,
                 recovery: Optional[RecoveryManager] = None,
                 execution: str = "real",
                 placement: str = "greedy"):
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
        #: the serving gateway's admission policy, when one fronts the fleet
        self.admission = None
        if execution not in ("real", "sim"):
            raise ValueError(f"execution must be 'real' or 'sim', "
                             f"got {execution!r}")
        self.execution = execution
        #: the fleet-wide virtual clock (sim mode); every device's
        #: timeline drags it along as it progresses, and the gateway
        #: adopts it as its SLO clock.  A real fleet's timelines move no
        #: clock: they only order device turns
        self.clock = VirtualClock() if execution == "sim" else None
        #: chaos-injection hook: ``chaos(device_name, executor) -> bool``
        #: is consulted at every epoch boundary; returning True raises
        #: :class:`SimulatedCrash`, killing the device mid-array — crash
        #: recovery and the WAL take over
        self.chaos = None
        #: the one engine every device's work runs through, whose queue,
        #: metrics, batcher and WAL fold (`recovery`) the fleet shares
        self.engine = TrainingArrayEngine(
            store=store, checkpoint_every=checkpoint_every,
            recovery=recovery)
        if metrics is not None:
            self.engine.metrics = metrics
        self.queue = self.engine.queue
        self.metrics = self.engine.metrics
        self.batcher = self.engine.batcher
        self.recovery = recovery
        #: (device profile, workload, width) -> one iteration's price
        self._epoch_prices: Dict[Tuple, ArrayCostEstimate] = {}
        self._drive_engine()
        #: guards the quarantine table, which another thread may read
        #: (quarantined_devices()) while a cycle runs.  Work deques belong
        #: to the run_cycle caller alone
        self._state_lock = threading.Lock()
        #: devices quarantined after a crash, for the rest of the crashing
        #: cycle and all of the next: placement avoids one, and it holds
        #: no work (quarantine-then-recover)
        self._quarantined: Set[str] = set()
        #: the devices that crashed this cycle, still quarantined next one
        self._crashed: Set[str] = set()
        self.workers: Dict[str, DeviceWorker] = {
            device.name: DeviceWorker(device, self.engine)
            for device in self.placer.devices}

    def _drive_engine(self) -> None:
        """Point the engine's backend hooks at this fleet's devices (see
        :class:`~repro.runtime.engine.TrainingArrayEngine`); a real result
        is stamped on the clock that admitted it."""
        engine = self.engine
        engine.charge_epoch = self._charge_epoch
        if self.execution == "sim":
            engine.make_physics = sim.SimPhysics
            engine.result_clock = lambda executor: \
                self.workers[executor.device_name].sim_time
        else:
            engine.result_clock = lambda executor: (
                self.admission.now() if self.admission is not None
                else time.monotonic())

    def _charge_epoch(self, executor: ArrayExecutor, width: int, steps: int,
                      seconds: float, samples: int) -> Tuple[float, int]:
        """Charge one epoch of a width-``width`` array to the timeline of
        the device it runs on, priced with the placer's cost-model
        settings for that device; returns the charge in sim mode, the
        measured ``(seconds, samples)`` in real mode."""
        worker = self.workers[executor.device_name]
        workload = executor.workload or self.placer.default_workload
        key = (profile_key(worker.device), workload, width)
        estimate = self._epoch_prices.get(key)
        if estimate is None:
            estimate = self._epoch_prices[key] = sim.price_epoch(
                worker.device, self.placer.precision, workload, width)
        charged = sim.charge_epoch(worker, estimate, steps, self.clock)
        return charged if self.execution == "sim" else (seconds, samples)

    # ------------------------------------------------------------------ #
    # intake and events: the engine's surface, unchanged — the fleet holds
    # the queue, metrics and recovery manager of its engine
    # ------------------------------------------------------------------ #
    emit = TrainingArrayEngine.emit
    submit = TrainingArrayEngine.submit
    submit_all = TrainingArrayEngine.submit_all
    cancel = TrainingArrayEngine.cancel

    # ------------------------------------------------------------------ #
    # scheduling cycles
    # ------------------------------------------------------------------ #
    def run_cycle(self, max_jobs: int = 0) -> List[JobResult]:
        """Batch, place, and train one round of pending jobs; returns the
        results settled since the last call, as the engine's does."""
        policy = self.admission
        batch = self.queue.pop_fair(
            max_jobs, key=policy.rank if policy is not None else None)
        if not batch:
            return self.queue.take_settled()
        self.emit(Event("dequeue", tuple(sub.job_id for sub in batch)))
        cohorts, failures = self.batcher.form_cohorts(batch)
        for sub, error in failures:
            self.engine._fail_job(sub, error)

        if len(self._quarantined) >= len(self.workers):
            # every device is quarantined: lift them all — the fleet must
            # make progress even after a correlated crash
            with self._state_lock:
                self._quarantined = set()
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
        self._run_workers()
        return self.queue.take_settled()

    def run_until_idle(self) -> Dict[int, JobResult]:
        """The engine's :meth:`~TrainingArrayEngine.run_until_idle` over
        this fleet's cycles, then the fleet's wall-clock serving time: the
        denominator of :attr:`RuntimeMetrics.aggregate_throughput` and of
        the per-device utilization counters."""
        start = time.perf_counter()
        results = TrainingArrayEngine.run_until_idle(self)
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
    def _run_workers(self) -> None:
        """Drain every device's work queue, one work item at a time.

        Devices run *serially but interleaved along their timelines*: each
        turn, the device with queued work and the smallest
        ``(sim_time, name)`` runs its next item until the array
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

        A device whose item crashes is recovered on the spot
        (:meth:`_run_item`): quarantined, its queued work handed to
        healthy devices, where it takes turns like any other.  When the
        queues drain, the quarantine rolls over: the devices that crashed
        this cycle stay quarantined through the next one.
        """
        floor = (self.clock.now() if self.execution == "sim"
                 else self.virtual_makespan())
        while True:
            turn = self._take()
            if turn is None:
                break
            worker, item = turn
            worker.sim_time = max(worker.sim_time, floor)
            self._run_item(worker, item)
        with self._state_lock:
            self._quarantined, self._crashed = self._crashed, set()

    def _run_item(self, worker: DeviceWorker, item: WorkItem) -> None:
        """Run one work item on its device, and recover the device if it
        dies there.

        ``run_executor`` contains its own failure isolation (quarantine
        requeue), and whatever leaves it has requeued the array's live
        jobs from the store first; an ``Exception`` is recorded and the
        device lives on.  ``KeyboardInterrupt`` and ``SystemExit`` are the
        caller's own: they propagate with no device declared dead.  Any
        other ``BaseException`` is a *dead device* — a chaos-injected
        :class:`SimulatedCrash`, a hard kill from below every handler —
        recovered right here (:meth:`_recover_crashed`).  Slots the array
        retired before it failed were already exported, persisted final
        and journaled COMPLETED: their results wait in the queue either
        way (:meth:`JobQueue.take_settled`).
        """
        executor = (self.engine.make_executor(item.plan)
                    if isinstance(item, PlacementDecision) else item)
        try:
            self.engine.run_executor(
                executor, after_epoch=lambda ex: self._after_epoch(worker, ex))
        except Exception:  # noqa: BLE001 — device must outlive any array
            self.emit(executor.event("array_failed"))
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException:  # noqa: BLE001 — see the crash rule above
            self._recover_crashed(worker, executor)

    def _recover_crashed(self, worker: DeviceWorker,
                         executor: ArrayExecutor) -> None:
        """Quarantine a dead device and recover its work.

        The dead device's in-memory training state is mid-epoch and
        untrusted; the durable store is the source of truth.  The engine
        already re-queued the array's live jobs, its remaining ``slots``,
        each with its latest checkpoint as a resume payload when one
        exists, from scratch otherwise (the job loses at most
        ``checkpoint_every`` epochs of work, never its correctness).
        The device is quarantined for the rest of this cycle and all of
        the next, and its queued work moves to healthy devices
        (:meth:`_rehome`), which take it over no earlier than the crash.
        """
        with self._state_lock:
            self._quarantined.add(worker.name)
            self._crashed.add(worker.name)
        self.emit(executor.event("crash"))
        stranded = list(worker.plans)
        worker.plans.clear()
        for item in stranded:
            item = self._rehome(item)
            if item is not None:
                target = self.workers[item.device_name]
                target.sim_time = max(target.sim_time, worker.sim_time)
                target.plans.append(item)

    # ------------------------------------------------------------------ #
    # the epoch-boundary hook (between epochs of the running item)
    # ------------------------------------------------------------------ #
    def _after_epoch(self, worker: DeviceWorker,
                     executor: ArrayExecutor) -> None:
        """Epoch-boundary hook: chaos, freed-width admission, preemption."""
        if self.chaos is not None and self.chaos(worker.name, executor):
            # injected device failure: a BaseException passes through the
            # runtime's except-Exception isolation and kills the device
            # mid-array (the crash rule of _run_item)
            raise SimulatedCrash(f"chaos hook killed device {worker.name}")
        # freed-width admission from the shared queue (emits freed
        # capacity back to the scheduler the moment eviction creates it);
        # an executor's width cap is its device's (see _rehome)
        self.engine.refill_from_queue(
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
        # the whole boarding rule, structure included, *before* nominating
        # victims: detaching slots for a job that then fails structural
        # admission would delay the victims for nothing
        at_risk = []
        for sub in self.queue.pending_jobs():
            if not policy.at_risk(sub):
                continue
            try:
                boards = self.engine.may_board(executor, sub)
            except Exception:  # noqa: BLE001 — job-provided builder
                continue           # refill will fail it properly later
            if boards:
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
        self.engine.refill_from_queue(executor, key=policy.rank)

    # ------------------------------------------------------------------ #
    # taking work: the turn rule
    # ------------------------------------------------------------------ #
    def _take(self) -> Optional[Tuple[DeviceWorker, WorkItem]]:
        """The next turn as ``(device, work item)``, or ``None`` when the
        cycle is drained: the device with queued work and the smallest
        ``(timeline, name)`` runs the head of its own queue.  A
        quarantined device holds no work: recovery empties its queue and
        placement re-homes what the placer gives it."""
        busy = [worker for worker in self.workers.values() if worker.plans]
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
        ``device_name``), or ``None`` when no healthy device holds it: its
        jobs then go back to the queue for the next cycle to place — a
        plan's as placed, a live executor's from the store (its training
        state was the dead device's).
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
            self.engine.requeue(
                plan.jobs if isinstance(item, PlacementDecision)
                else [slot.sub for slot in item.slots])
            return None
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
    # introspection
    # ------------------------------------------------------------------ #
    def virtual_makespan(self) -> float:
        """The fleet-wide virtual finish time: the furthest any device's
        timeline has advanced (a cost-model projection on either backend;
        only sim mode also runs its clock on it).  Zero before any work
        ran."""
        return max((worker.sim_time for worker in self.workers.values()),
                   default=0.0)

    def quarantined_devices(self) -> List[str]:
        """Devices currently quarantined after a crash (no new work)."""
        with self._state_lock:
            return sorted(self._quarantined)
