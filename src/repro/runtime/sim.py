"""Virtual-time simulation backend for the training-array runtime.

The elastic runtime's control plane — admission, placement, eviction,
preemption, checkpointing, crash recovery — has until now
only ever been exercised by *actually training* numpy models, which caps
any test at tens of jobs.  This module replaces the training physics with
the analytical device model that already prices placements
(:func:`repro.hwsim.estimate_array_cost`) and replaces the wall clock with
an injectable :class:`VirtualClock`, so a single process can push hundreds
of thousands of jobs across thousands of simulated devices through the
*identical* lifecycle code in seconds.

Three pieces:

* :class:`VirtualClock` — a monotonic, thread-safe virtual ``now``.  It is
  callable, so it drops straight into every seam that already accepts an
  injectable clock (``ServingGateway(clock=...)``, token buckets, SLO
  settlement).
* :class:`SimPhysics` — the physics object an ``execution="sim"``
  fleet's :class:`~repro.runtime.engine.ArrayExecutor` holds instead of
  :class:`~repro.runtime.engine.FusedPhysics`: loss curves come from a
  deterministic synthetic decay (or the job's own ``sim_loss`` callable)
  instead of a train loop, and there is nothing to fuse, merge, split or
  export — no model is ever built, so results carry no checkpoint.  The
  executor above it — lifecycle transitions, stop signals, accounting,
  journaling and checkpoint-manifest writes — is the one real arrays use.
* :class:`TraceReplayer` — feeds a timestamped arrival trace (e.g. from
  :func:`repro.cluster.generator.generate_serving_trace`) into a
  :class:`~repro.runtime.gateway.ServingGateway`, advancing the virtual
  clock to the next arrival whenever the fleet goes idle.

Chaos testing: :class:`SimulatedCrash` is a ``BaseException`` so it passes
through the runtime's ``except Exception`` quarantine handlers untouched;
the fleet's ``chaos`` hook raises it at an epoch boundary to kill a
device mid-array, exercising the fleet's one crash rule — any
non-``Exception`` escaping a work item is a dead device — and the
WAL-recovery path behind it (see docs/simulation.md).

Determinism: given the same jobs, fleet and seeds, a simulation is fully
deterministic — the fleet's event loop is serial (devices take turns in
``(timeline, name)`` order, on either backend), synthetic losses are pure
functions of the step index, and every queue/placement tie-break is
already deterministic.  Every epoch is priced once (:func:`price_epoch`,
on the device ``executor.device_name`` names) and charged to that
device's timeline (:func:`charge_epoch`) on both backends, so a real fleet
makes the same scheduling decisions as its simulation by construction;
the real-vs-sim equivalence tests pin this down on one- and two-device
fleets.

The placement optimizer (:mod:`repro.runtime.placement_lp`) obeys the
same rule: its wall-clock solver latency is *recorded* in the metrics but
never charged to virtual time — a simulated fleet charges each solve as
the policy's deterministic ``solver_virtual_cost_s`` instead (the fleet
advances the clock by it after every solve), so the same seed yields the
same timeline whether scipy solved in two milliseconds or twenty.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..hwsim import estimate_array_cost, get_workload
from .engine import Stepped
from .queue import SubmittedJob, TrainingJob

__all__ = ["VirtualClock", "SimulatedCrash", "TraceReplayer",
           "charge_epoch", "default_sim_loss"]


class VirtualClock:
    """A monotonic virtual ``now`` shared by every simulated component.

    Callable (``clock()``), so it is a drop-in for ``time.monotonic`` at
    every injectable-clock seam.  Time only moves when something advances
    it: each simulated device pushes the clock to its own timeline as it
    finishes epochs, and the trace replayer jumps it to the next arrival
    when the fleet drains.  ``advance_to`` never moves backwards, so
    concurrent device timelines fold into one monotonic fleet-wide "now".
    """

    def __init__(self, start: float = 0.0):
        self._lock = threading.Lock()
        self._now = float(start)

    def __call__(self) -> float:
        return self.now()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` (>= 0); returns the new now."""
        if seconds < 0:
            raise ValueError(f"cannot advance time backwards ({seconds})")
        with self._lock:
            self._now += seconds
            return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move time forward to ``timestamp`` if ahead; returns now."""
        with self._lock:
            self._now = max(self._now, float(timestamp))
            return self._now


class SimulatedCrash(BaseException):
    """Injected device failure (the fleet's ``chaos`` hook raises this).

    Deliberately a ``BaseException``: the runtime isolates *array*
    failures with ``except Exception`` (quarantine-then-recover), and a
    simulated device crash must not be absorbed by that machinery — it
    kills the whole device (the fleet's crash rule: any non-``Exception``
    escaping a work item) and is recovered where the fleet catches it
    (``FleetScheduler._run_item``).
    """


def default_sim_loss(job: TrainingJob, step: int) -> float:
    """Deterministic synthetic training loss: a monotone decay whose
    scale/rate derive from the job's seed, so different jobs produce
    different (but reproducible) curves and ``target_loss`` stop signals
    have something meaningful to trigger on."""
    base = 2.0 + (job.seed % 5) * 0.5
    rate = 0.05 + (job.seed % 7) * 0.02
    return base / (1.0 + rate * (step + 1))


@dataclass(frozen=True)
class _WidthProbe:
    """Duck-typed plan for costing a hypothetical array width (here and in
    the fleet placer)."""

    num_models: int
    steps: int


def price_epoch(device, precision: str, workload: str, width: int):
    """The cost model's price of one iteration of a width-``width``
    ``workload`` array on ``device`` (:func:`repro.hwsim.estimate_array_cost`,
    called through this module's global)."""
    return estimate_array_cost(_WidthProbe(width, 1), device, precision,
                               workload=get_workload(workload))


def charge_epoch(worker, estimate, steps: int,
                 clock: "VirtualClock | None" = None) -> Tuple[float, int]:
    """Charge one epoch to the device ``worker``'s timeline.

    ``steps`` iterations priced ``estimate`` (:func:`price_epoch`) advance
    ``worker.sim_time`` on both backends — the fleet orders device turns
    by it — and drag a simulated fleet's ``clock`` along, so SLO
    deadlines, token buckets and placement slack see consistent virtual
    time.  Returns the epoch's ``(seconds, samples)``.
    """
    seconds = steps * estimate.iteration_time_s
    worker.sim_time += seconds
    if clock is not None:
        clock.advance_to(worker.sim_time)
    return seconds, int(estimate.throughput * seconds)


class SimPhysics:
    """The physics of a *simulated* array: virtual time, no weights.

    What an ``execution="sim"`` fleet's engine hands its executors; the
    seven-method protocol is documented on
    :class:`~repro.runtime.engine.FusedPhysics`.  A simulated slot's whole
    training state is its progress counter and loss curve, and the
    executor owns both — so this object is stateless: narrowing, detaching
    and merging leave nothing to move.  Nor is its time its own: an epoch
    lasts what :func:`charge_epoch` charges the array's device.
    """

    def __init__(self, engine, plan):
        pass

    def whole(self, subs: Sequence[SubmittedJob]) -> bool:
        # a simulated array has no core: arrays run one at a time
        return False

    def build(self, subs: Sequence[SubmittedJob], mate=None
              ) -> List[SubmittedJob]:
        # nothing is materialized, not even the jobs' templates
        return list(subs)

    def start(self, slots: Sequence, steps: int) -> Stepped:
        """Extend every slot's loss curve; no wall time, no samples."""
        for slot in slots:
            fn = getattr(slot.job, "sim_loss", None) \
                or functools.partial(default_sim_loss, slot.job)
            slot.curve.extend(fn(slot.progress + i) for i in range(steps))
        return Stepped(0.0, 0)

    def take(self, indices: Sequence[int]) -> "SimPhysics":
        return self

    def absorb(self, other: "SimPhysics") -> None:
        pass

    def export(self, index: int, slot) -> Tuple[None, Callable]:
        # a simulated job has no weights: progress and curve are its state
        return None, lambda: ({}, {})

    def load_resume(self, index: int, resume) -> None:
        # no optimizer to inject into; the executor still fast-forwards
        # progress and the loss curve, which is the whole training state
        # a simulated job carries
        pass


class TraceReplayer:
    """Replays a timestamped arrival trace into a serving gateway.

    ``events`` are duck-typed arrivals (``time_s`` plus whatever the
    ``job_factory`` needs — :class:`repro.cluster.generator.ArrivalEvent`
    fits); ``job_factory(event)`` builds the :class:`TrainingJob` to
    submit.  The replay loop alternates between releasing every arrival
    due at the current virtual time and running gateway scheduling cycles;
    when the fleet drains with arrivals still ahead, the clock jumps to
    the next arrival (plus ``cycle_quantum_s``, which batches arrivals
    into periodic scheduler wake-ups the way a production control loop
    would, instead of one cycle per lone arrival).  When the fleet drains
    between bursts, a job's latency is therefore mostly the wait for the
    next wake-up: on ``sim_fleet`` (seed 0) its p50 was 0.33, 4.30 and
    30.13 s at ``cycle_quantum_s`` 0, 10 and 60 s (ROADMAP item 17).

    Returns per-job results keyed by job id; shed submissions are kept in
    ``rejected`` with their tickets for assertion.
    """

    def __init__(self, gateway, events: Sequence,
                 job_factory: Callable[[object], TrainingJob],
                 cycle_quantum_s: float = 0.0):
        clock = gateway.clock
        if not isinstance(clock, VirtualClock):
            raise TypeError("TraceReplayer needs a gateway on a "
                            "VirtualClock (build the fleet with "
                            "execution='sim')")
        if cycle_quantum_s < 0:
            raise ValueError("cycle_quantum_s must be >= 0")
        self.gateway = gateway
        self.clock = clock
        self.events = sorted(events, key=lambda e: e.time_s)
        self.job_factory = job_factory
        self.cycle_quantum_s = cycle_quantum_s
        self.results: Dict[int, object] = {}
        self.tickets: List = []
        self.rejected: List[Tuple[object, object]] = []

    def run(self) -> Dict[int, object]:
        """Replay the whole trace; returns results keyed by job id."""
        events = self.events
        index = 0
        while True:
            while index < len(events) \
                    and events[index].time_s <= self.clock.now():
                event = events[index]
                index += 1
                job = self.job_factory(event)
                ticket = self.gateway.submit(
                    job, tenant=getattr(event, "tenant", None),
                    deadline_s=getattr(event, "deadline_s", None))
                self.tickets.append(ticket)
                if not ticket.admitted:
                    self.rejected.append((event, ticket))
            if self.gateway.queue.pending_count:
                for result in self.gateway.run_cycle():
                    self.results[result.job_id] = result
                continue
            if index < len(events):
                self.clock.advance_to(
                    events[index].time_s + self.cycle_quantum_s)
                continue
            return self.results
