"""The lifecycle event stream and the runtime counters folded from it.

Every runtime transition — a submission, a placement, an array launch, a
retirement, a checkpoint, a crash — is emitted exactly once, as one
:class:`Event`, through ``emit`` on the engine or the fleet.  Two sinks
fold the stream: :meth:`RuntimeMetrics.record_event` (the counters, the
per-tenant ledger, the :class:`ArrayRecord` list and the opt-in event
log) and :meth:`repro.runtime.checkpoint.RecoveryManager.record_event`
(the write-ahead log).  ``docs/runtime.md`` tables every event kind and
what each fold does with it.

The aggregates follow the conventions of the paper-reproduction benchmark
harness (``benchmarks/test_fig*_counters.py``): each fused array
contributes one record, aggregates expose the quantities the paper's
figures report (training throughput in samples/s as in Figures 4-5, array
occupancy as the runtime analogue of the Figure 7/14 utilization counters,
jobs-per-array as the fusion ratio), and :meth:`RuntimeMetrics.report`
emits rows directly printable by the harness's ``print_table``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .queue import StopReason

__all__ = ["ArrayRecord", "Event", "RuntimeMetrics"]


@dataclass(slots=True)
class Event:
    """One lifecycle transition of the runtime (never mutated once
    emitted).

    ``kind`` names the transition (the table in ``docs/runtime.md``);
    ``job_ids``, ``array_id``, ``device`` and ``tenant`` say what it
    happened to, and ``data`` carries the numbers its folds need — a
    retirement's ``(stop reason, steps trained)``, a checkpoint's
    :class:`~repro.runtime.checkpoint.WriteReceipt`, an epoch's
    ``{tenant: (slot_steps, slot_seconds)}`` usage.
    """

    kind: str
    job_ids: Tuple[int, ...] = ()
    array_id: int = -1
    device: str = ""
    tenant: str = ""
    data: Any = None


@dataclass(frozen=True)
class ArrayRecord:
    """Accounting for one launched fused array.

    An array may shrink (evictions), grow (freed-width admissions) and
    absorb whole executors (:meth:`ArrayExecutor.merge_with`) before it
    drains;
    ``slot_steps_total`` counts every physically executed slot-step and
    ``slot_steps_occupied`` those doing useful work for a live job — equal
    for every array the engine runs, since a slot whose stop signal fired
    leaves at that epoch boundary instead of riding its width to the end.
    """

    array_id: int
    signature: str        # cohort workload signature
    num_models: int       # array width actually launched
    width_cap: int        # policy limit at launch time
    steps: int            # gang-scheduled step budget
    samples: int          # total training samples processed (all models)
    seconds: float        # wall-clock training time
    device: str = ""      # fleet device that executed the array ("" = n/a)
    sim_seconds: float = 0.0  # placer's cost-model projection for the array
    jobs_served: int = 0  # distinct jobs completed (evicted + drained,
                          # not cancelled)
    slot_steps_total: int = 0     # physically executed slot-steps
    slot_steps_occupied: int = 0  # slot-steps spent on live (useful) jobs
    evictions: int = 0    # slots retired before the array drained
    admissions: int = 0   # queued jobs admitted into freed width
    merges: int = 0       # executors absorbed whole (merge_with)

    @property
    def occupancy(self) -> float:
        """Fraction of the permitted width the array actually filled."""
        return self.num_models / self.width_cap

    @property
    def throughput(self) -> float:
        """Training throughput in samples/s (Figure 4/5 convention)."""
        return self.samples / self.seconds if self.seconds > 0 else 0.0

    @property
    def fused_width_efficiency(self) -> float:
        """Occupied over executed slot-steps (1.0 = no width wasted)."""
        if self.slot_steps_total == 0:
            return 1.0
        return self.slot_steps_occupied / self.slot_steps_total


#: the scheduler decisions among the event kinds, and the ``(kind,
#: payload)`` payload :meth:`RuntimeMetrics.decisions` reports for each —
#: time-free (job ids, devices, step counts), so a real fleet's decisions
#: equal its simulation's element for element
_DECISIONS = {
    "dequeue": lambda e: e.job_ids,
    "place": lambda e: (e.device, e.job_ids),
    "solve": lambda e: (e.data.solver, len(e.data.assignment)),
    "retire": lambda e: (e.job_ids[0],) + e.data,
    "admit": lambda e: (e.array_id, e.data),
    "preempt": lambda e: e.job_ids,
}


class RuntimeMetrics:
    """Aggregated runtime counters: a fold over the lifecycle events.

    :meth:`record_event` is the only writer, so replaying a logged event
    stream into a fresh object rebuilds every counter, the tenant ledger
    and ``records`` exactly.  What each kind moves is tabled in
    ``docs/runtime.md``; :meth:`as_dict` is the flat scrape surface.
    """

    def __init__(self):
        # submissions may come from any thread (see JobQueue): fold locked
        self._lock = threading.Lock()
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.arrays_failed = 0
        self.jobs_evicted = 0
        self.jobs_admitted = 0
        self.arrays_merged = 0
        self.jobs_shed = 0
        self.jobs_preempted = 0
        self.checkpoints_written = 0
        self.checkpoint_payload_bytes = 0
        self.checkpoint_bytes_written = 0
        self.checkpoint_seconds = 0.0
        self.checkpoint_failures = 0
        self.checkpoints_skipped = 0
        self.jobs_recovered = 0
        self.workers_crashed = 0
        self.admissions_replayed = 0
        #: tenant -> admission/SLO/consumption counters (see tenant_summary)
        self._tenants: "Dict[str, Dict[str, float]]" = {}
        self.records: List[ArrayRecord] = []
        #: wall-clock seconds the fleet spent serving (devices concurrent);
        #: 0 for the single-device engine, whose train_seconds is its wall
        self.wall_seconds = 0.0
        #: decisions taken (jobs dequeued, placements, admissions,
        #: retirements, preemptions, solves) — the scale benchmark's
        #: throughput numerator
        self.scheduler_decisions = 0
        #: every folded event, in order, once enable_event_log() turned it
        #: on — off by default: a 100k-job simulation would hold them all
        self.events: Optional[List[Event]] = None
        #: placement optimizer (repro.runtime.placement_lp): one (solver,
        #: objective, projected makespan) ledger entry per solve
        self.lp_solves = 0
        self.lp_fallback_solves = 0
        self.lp_solver_seconds = 0.0
        self.makespan_ledger: List[Tuple[str, float, float]] = []

    # ------------------------------------------------------------------ #
    # the fold
    # ------------------------------------------------------------------ #
    def record_event(self, event: Event) -> None:
        """Fold one lifecycle event into the counters (the only writer)."""
        # acquire/release, not ``with``: half the cost on the hottest path
        self._lock.acquire()
        try:
            _FOLDS[event.kind](self, event)
            if self.events is not None:
                self.events.append(event)
        finally:
            self._lock.release()

    def enable_event_log(self) -> None:
        """Start keeping every folded event in ``events``."""
        with self._lock:
            if self.events is None:
                self.events = []

    def decisions(self, *kinds: str) -> "List[Tuple[str, Tuple]]":
        """The scheduler decisions in the event log as ``(kind, payload)``
        tuples, optionally only the given kinds."""
        wanted = set(kinds or _DECISIONS) & set(_DECISIONS)
        with self._lock:
            log = list(self.events or ())
        return [(e.kind, _DECISIONS[e.kind](e)) for e in log
                if e.kind in wanted]

    # the folds of the kinds that do more than count (see _FOLDS below the
    # class); each runs under the lock
    def _on_accept(self, e: Event) -> None:
        self.jobs_submitted += 1
        ledger = self._tenant(e.tenant)
        ledger["submitted"] += 1
        ledger["admitted"] += 1

    def _on_refuse(self, e: Event) -> None:
        ledger = self._tenant(e.tenant)
        ledger["submitted"] += 1
        ledger["shed"] += 1
        self.jobs_shed += 1

    def _on_shed(self, e: Event) -> None:
        ledger = self._tenant(e.tenant)
        if e.data:              # the gateway had counted the victim admitted
            ledger["admitted"] -= 1
        ledger["shed"] += 1
        self.jobs_shed += 1

    def _on_dequeue(self, e: Event) -> None:
        self.scheduler_decisions += len(e.job_ids)

    def _on_solve(self, e: Event) -> None:
        solution = e.data
        self.lp_solves += 1
        if solution.solver != "lp+round":
            self.lp_fallback_solves += 1
        self.lp_solver_seconds += solution.solve_seconds
        self.makespan_ledger.append(
            (solution.solver, solution.objective, solution.makespan))
        self.scheduler_decisions += 1

    def _on_usage(self, e: Event) -> None:
        for tenant, (steps, seconds) in e.data.items():
            ledger = self._tenant(tenant)
            ledger["slot_steps"] += steps
            ledger["slot_seconds"] += seconds

    def _on_retire(self, e: Event) -> None:
        reason = e.data[0]
        if reason == StopReason.CANCELLED:
            self.jobs_cancelled += 1
        if reason != StopReason.BUDGET:
            self.jobs_evicted += 1
        self.scheduler_decisions += 1

    def _on_admit(self, e: Event) -> None:
        self.jobs_admitted += len(e.data)
        self.scheduler_decisions += len(e.data)

    def _on_preempt(self, e: Event) -> None:
        for tenant in e.data:
            self._tenant(tenant)["preempted"] += 1
        self.jobs_preempted += len(e.job_ids)
        self.scheduler_decisions += len(e.job_ids)

    def _on_array(self, e: Event) -> None:
        self.records.append(e.data)
        self.jobs_completed += e.data.jobs_served

    def _on_checkpoint(self, e: Event) -> None:
        receipt = e.data
        self.checkpoints_written += 1
        self.checkpoint_payload_bytes += receipt.payload_bytes
        self.checkpoint_bytes_written += receipt.written_bytes
        self.checkpoint_seconds += receipt.seconds

    def _on_replay(self, e: Event) -> None:
        self.admissions_replayed += 1
        self.jobs_recovered += bool(e.data)

    def _on_slo(self, e: Event) -> None:
        self._tenant(e.tenant)["slo_hits" if e.data else "slo_misses"] += 1

    def _on_wall(self, e: Event) -> None:
        self.wall_seconds += e.data

    # ------------------------------------------------------------------ #
    # per-tenant accounting (serving gateway)
    # ------------------------------------------------------------------ #
    _TENANT_KEYS = ("submitted", "admitted", "shed", "preempted",
                    "slo_hits", "slo_misses", "slot_steps", "slot_seconds")

    def _tenant(self, tenant: str) -> Dict[str, float]:
        # caller holds self._lock
        if tenant not in self._tenants:
            self._tenants[tenant] = {k: 0.0 for k in self._TENANT_KEYS}
        return self._tenants[tenant]

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    def placement_summary(self) -> Dict[str, float]:
        """Placement-optimizer aggregates: solve counts, fallback share,
        summed solver latency, and the latest ledger entry's
        objective/makespan (0.0 before any solve)."""
        with self._lock:
            last = self.makespan_ledger[-1] if self.makespan_ledger \
                else ("", 0.0, 0.0)
            return {
                "lp_solves": self.lp_solves,
                "lp_fallback_solves": self.lp_fallback_solves,
                "lp_solver_seconds": self.lp_solver_seconds,
                "last_objective": last[1],
                "last_makespan": last[2],
            }

    @property
    def arrays_launched(self) -> int:
        """Fused arrays that completed and recorded their accounting."""
        return len(self.records)

    @property
    def fused_steps(self) -> int:
        """Gang-scheduled training steps summed across all arrays."""
        return sum(r.steps for r in self.records)

    @property
    def serial_steps_saved(self) -> int:
        """Steps a serial runtime would have executed minus fused steps."""
        return sum(r.steps * (r.num_models - 1) for r in self.records)

    @property
    def samples_processed(self) -> int:
        """Training samples consumed across all arrays (all models)."""
        return sum(r.samples for r in self.records)

    @property
    def train_seconds(self) -> float:
        """Summed per-array wall-clock training time (not fleet wall
        time — see :attr:`aggregate_throughput` for that)."""
        return sum(r.seconds for r in self.records)

    @property
    def throughput(self) -> float:
        """Overall training throughput in samples/s."""
        seconds = self.train_seconds
        return self.samples_processed / seconds if seconds > 0 else 0.0

    @property
    def models_per_array(self) -> float:
        """Mean array width (the fusion ratio; 1.0 means no fusion)."""
        if not self.records:
            return 0.0
        return sum(r.num_models for r in self.records) / len(self.records)

    @property
    def occupancy(self) -> float:
        """Step-weighted mean fraction of the width cap arrays filled."""
        weight = sum(r.steps for r in self.records)
        if weight == 0:
            return 0.0
        return sum(r.occupancy * r.steps for r in self.records) / weight

    @property
    def slot_steps_total(self) -> int:
        """Physically executed slot-steps across all arrays."""
        return sum(r.slot_steps_total for r in self.records)

    @property
    def slot_steps_occupied(self) -> int:
        """Slot-steps spent on live (useful) jobs across all arrays."""
        return sum(r.slot_steps_occupied for r in self.records)

    @property
    def fused_width_efficiency(self) -> float:
        """Occupied over executed slot-steps across all arrays.

        1.0 means no fused slot ever carried a finished job, which is what
        eviction at epoch boundaries guarantees
        (``benchmarks/test_elastic_utilization.py`` counts the slot-steps
        that saves against run-to-completion).
        """
        total = self.slot_steps_total
        if total == 0:
            return 1.0
        return self.slot_steps_occupied / total

    # ------------------------------------------------------------------ #
    # tenant aggregates (gateway-free runs bill the "default" tenant:
    # every epoch records usage, so consumption is complete either way)
    # ------------------------------------------------------------------ #
    def tenant_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant admission/SLO/consumption counters.

        ``admit_rate`` is admitted over submitted requests, ``slo_rate``
        is hits over deadline-carrying completions (1.0 when the tenant
        never set a deadline — no SLO means no misses), ``slot_steps`` /
        ``slot_seconds`` are the fused-slot resources actually consumed.
        """
        with self._lock:
            summary: Dict[str, Dict[str, float]] = {}
            for tenant, c in self._tenants.items():
                slo_total = c["slo_hits"] + c["slo_misses"]
                summary[tenant] = dict(
                    c,
                    admit_rate=(c["admitted"] / c["submitted"]
                                if c["submitted"] else 1.0),
                    slo_rate=(c["slo_hits"] / slo_total
                              if slo_total else 1.0))
            return summary

    def tenant_report(self) -> Tuple[List[Tuple], Tuple[str, ...]]:
        """Per-tenant rows + header, printable by the benchmark harness."""
        header = ("tenant", "submitted", "admitted", "shed", "preempted",
                  "slo_hits", "slo_misses", "slot_steps", "slot_seconds")
        rows = [(name, int(s["submitted"]), int(s["admitted"]),
                 int(s["shed"]), int(s["preempted"]), int(s["slo_hits"]),
                 int(s["slo_misses"]), int(s["slot_steps"]),
                 s["slot_seconds"])
                for name, s in self.tenant_summary().items()]
        return rows, header

    # ------------------------------------------------------------------ #
    # fleet aggregates (per-device counters; empty for single-device runs)
    # ------------------------------------------------------------------ #
    @property
    def devices(self) -> List[str]:
        """Device names that executed at least one array, in first-use order."""
        seen: List[str] = []
        for r in self.records:
            if r.device and r.device not in seen:
                seen.append(r.device)
        return seen

    def device_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-device utilization/occupancy counters.

        ``busy_seconds`` is the device's total in-array training time;
        ``utilization`` is that time over the fleet's wall-clock serving
        time (1.0 = the device never sat idle while the fleet was serving).
        """
        summary: Dict[str, Dict[str, float]] = {}
        for name in self.devices:
            recs = [r for r in self.records if r.device == name]
            busy = sum(r.seconds for r in recs)
            samples = sum(r.samples for r in recs)
            steps = sum(r.steps for r in recs)
            occupancy = (sum(r.occupancy * r.steps for r in recs) / steps
                         if steps else 0.0)
            summary[name] = {
                "arrays": len(recs),
                "jobs": sum(r.num_models for r in recs),
                "samples": samples,
                "busy_seconds": busy,
                "sim_seconds": sum(r.sim_seconds for r in recs),
                "throughput": samples / busy if busy > 0 else 0.0,
                "occupancy": occupancy,
                "utilization": (busy / self.wall_seconds
                                if self.wall_seconds > 0 else 0.0),
            }
        return summary

    @property
    def aggregate_throughput(self) -> float:
        """Fleet-level samples/s: total samples over wall-clock serving time.

        Unlike :attr:`throughput` (which divides by *summed* per-array
        training time), this credits the fleet for running devices
        concurrently.  0.0 until a wall time is recorded.
        """
        if self.wall_seconds <= 0:
            return 0.0
        return self.samples_processed / self.wall_seconds

    @property
    def simulated_makespan(self) -> float:
        """Cost-model makespan: the busiest device's summed projections."""
        per_device = [sum(r.sim_seconds for r in self.records
                          if r.device == name) for name in self.devices]
        return max(per_device, default=0.0)

    @property
    def simulated_aggregate_throughput(self) -> float:
        """Samples/s the cost model projects for this placement.

        Devices run concurrently, so the fleet finishes when its busiest
        device does; a single-device placement's makespan is its whole
        summed projection.  This is the quantity the fleet benchmark
        compares across fleet sizes.
        """
        makespan = self.simulated_makespan
        return self.samples_processed / makespan if makespan > 0 else 0.0

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, float]:
        """Every aggregate counter as one flat dict (the scrape surface
        a monitoring system ingests; see docs/operations.md)."""
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "jobs_cancelled": self.jobs_cancelled,
            "jobs_evicted": self.jobs_evicted,
            "jobs_admitted": self.jobs_admitted,
            "jobs_shed": self.jobs_shed,
            "jobs_preempted": self.jobs_preempted,
            "arrays_launched": self.arrays_launched,
            "arrays_failed": self.arrays_failed,
            "arrays_merged": self.arrays_merged,
            "fused_width_efficiency": self.fused_width_efficiency,
            "models_per_array": self.models_per_array,
            "occupancy": self.occupancy,
            "fused_steps": self.fused_steps,
            "serial_steps_saved": self.serial_steps_saved,
            "samples_processed": self.samples_processed,
            "train_seconds": self.train_seconds,
            "throughput_samples_per_s": self.throughput,
            "wall_seconds": self.wall_seconds,
            "scheduler_decisions": self.scheduler_decisions,
            "lp_solves": self.lp_solves,
            "lp_fallback_solves": self.lp_fallback_solves,
            "lp_solver_seconds": self.lp_solver_seconds,
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_payload_bytes": self.checkpoint_payload_bytes,
            "checkpoint_bytes_written": self.checkpoint_bytes_written,
            "checkpoint_seconds": self.checkpoint_seconds,
            "checkpoint_failures": self.checkpoint_failures,
            "jobs_recovered": self.jobs_recovered,
            "workers_crashed": self.workers_crashed,
            "admissions_replayed": self.admissions_replayed,
            "aggregate_throughput_samples_per_s": self.aggregate_throughput,
            "simulated_aggregate_throughput": (
                self.simulated_aggregate_throughput),
        }

    def report(self) -> Tuple[List[Tuple], Tuple[str, ...]]:
        """Per-array rows + header, printable by the benchmark harness."""
        header = ("array", "signature", "models", "cap", "occupancy",
                  "steps", "samples", "samples/s")
        rows = [(r.array_id, r.signature[:14], r.num_models, r.width_cap,
                 r.occupancy, r.steps, r.samples, r.throughput)
                for r in self.records]
        return rows, header

    def fleet_report(self) -> Tuple[List[Tuple], Tuple[str, ...]]:
        """Per-device rows + header, printable by the benchmark harness."""
        header = ("device", "arrays", "jobs", "samples", "busy_s",
                  "utilization", "occupancy", "samples/s")
        rows = [(name, s["arrays"], s["jobs"], s["samples"],
                 s["busy_seconds"], s["utilization"], s["occupancy"],
                 s["throughput"])
                for name, s in self.device_summary().items()]
        return rows, header


#: the kinds whose fold adds one to one counter
_COUNTERS = {
    "submit": "jobs_submitted", "cancel": "jobs_cancelled",
    "fail": "jobs_failed", "place": "scheduler_decisions",
    "merge": "arrays_merged", "array_failed": "arrays_failed",
    "crash": "workers_crashed", "checkpoint_skip": "checkpoints_skipped",
    "checkpoint_failed": "checkpoint_failures", "recover": "jobs_recovered",
}


def _count(counter: str):
    def fold(metrics: RuntimeMetrics, event: Event) -> None:
        setattr(metrics, counter, getattr(metrics, counter) + 1)
    return fold


#: event kind -> its fold; launch, evict and drain move only the WAL
_FOLDS = {kind: _count(counter) for kind, counter in _COUNTERS.items()}
_FOLDS.update(dict.fromkeys(("launch", "evict", "drain"),
                            lambda metrics, event: None))
_FOLDS.update((name[len("_on_"):], fold)
              for name, fold in vars(RuntimeMetrics).items()
              if name.startswith("_on_"))
