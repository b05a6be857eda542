"""Throughput and occupancy accounting for the training-array runtime.

The counters follow the conventions of the paper-reproduction benchmark
harness (``benchmarks/test_fig*_counters.py``): each fused array contributes
one record, aggregates expose the quantities the paper's figures report
(training throughput in samples/s as in Figures 4-5, array occupancy as the
runtime analogue of the Figure 7/14 utilization counters, jobs-per-array as
the fusion ratio), and :meth:`RuntimeMetrics.report` emits rows directly
printable by the harness's ``print_table``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["ArrayRecord", "RuntimeMetrics"]


@dataclass(frozen=True)
class ArrayRecord:
    """Accounting for one launched fused array.

    An array may shrink (evictions), grow (freed-width admissions) and
    absorb whole stragglers (defrag merges) before it drains;
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
    merges: int = 0       # straggler arrays absorbed (defragmentation)

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


class RuntimeMetrics:
    """Aggregated runtime counters."""

    def __init__(self):
        # submissions may come from any thread (see JobQueue), so counter
        # updates take a lock
        self._lock = threading.Lock()
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.arrays_failed = 0
        #: elastic-lifecycle counters: slots retired before their array
        #: drained, queued jobs admitted into freed width, straggler arrays
        #: absorbed by defragmentation, and merged arrays re-placed onto a
        #: different device by the cost model
        self.jobs_evicted = 0
        self.jobs_admitted = 0
        self.arrays_merged = 0
        self.arrays_replaced = 0
        #: serving-gateway counters: jobs dropped by admission control
        #: (rate limit / quota / backpressure) and slots preempted out of a
        #: live array so a deadline-at-risk job could board
        self.jobs_shed = 0
        self.jobs_preempted = 0
        #: durability counters (repro.runtime.checkpoint): per-slot
        #: checkpoints persisted, their serialized/deduplicated byte
        #: volumes and cumulative write latency, plus the recovery side —
        #: jobs resumed from a durable checkpoint, device workers detected
        #: dead mid-array, and gateway admissions replayed after a restart
        self.checkpoints_written = 0
        self.checkpoint_payload_bytes = 0
        self.checkpoint_bytes_written = 0
        self.checkpoint_seconds = 0.0
        self.checkpoint_failures = 0
        #: cadence checkpoints skipped outright because the slot had not
        #: stepped since its last durable write (incremental checkpointing)
        self.checkpoints_skipped = 0
        self.jobs_recovered = 0
        self.workers_crashed = 0
        self.admissions_replayed = 0
        #: tenant -> admission/SLO/consumption counters (see tenant_summary)
        self._tenants: "Dict[str, Dict[str, float]]" = {}
        self.records: List[ArrayRecord] = []
        #: wall-clock seconds the fleet spent serving (devices concurrent),
        #: recorded by FleetScheduler.run_until_idle; 0 for the single-device
        #: engine, whose train_seconds IS its wall time
        self.wall_seconds = 0.0
        #: paused stragglers adopted by a device other than the one they
        #: paused on (queued plans never change device)
        self.plans_stolen = 0
        #: scheduler decisions taken (dequeues, placements, admissions,
        #: retirements, preemptions) — the scale benchmark's throughput
        #: numerator.  ``decision_log`` is off by default (a 100k-job sim
        #: would hold 100k+ tuples); :meth:`enable_decision_log` turns it
        #: on for the real-vs-sim equivalence test, which compares the
        #: exact decision sequences of both backends
        self.scheduler_decisions = 0
        self.decision_log: Optional[List[Tuple[str, Tuple]]] = None
        #: placement-optimizer counters (repro.runtime.placement_lp): LP
        #: solves run, how many fell back to the standalone greedy rounder
        #: (scipy absent, instance over the variable cap, or the rounded
        #: relaxation losing to greedy under the shared objective), summed
        #: solver wall latency, live-array migrations actually emitted, and
        #: the makespan ledger — one (solver, objective, projected
        #: makespan) entry per solve, the before/after trail an operator
        #: reads to see what the optimizer is buying
        self.lp_solves = 0
        self.lp_fallback_solves = 0
        self.lp_solver_seconds = 0.0
        self.migrations_emitted = 0
        self.makespan_ledger: List[Tuple[str, float, float]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_submit(self, count: int = 1) -> None:
        """Jobs accepted into the intake queue."""
        with self._lock:
            self.jobs_submitted += count

    def record_array(self, record: ArrayRecord) -> None:
        """A drained array's lifetime record (credits its completions)."""
        with self._lock:
            self.records.append(record)
            self.jobs_completed += record.jobs_served

    def record_failure(self, count: int = 1) -> None:
        """Jobs that reached the terminal FAILED state."""
        with self._lock:
            self.jobs_failed += count

    def record_cancelled(self, count: int = 1) -> None:
        """A job cancelled by its caller (partial checkpoint exported)."""
        with self._lock:
            self.jobs_cancelled += count

    def record_eviction(self, count: int = 1) -> None:
        """Slots retired from a live array, freeing fused width."""
        with self._lock:
            self.jobs_evicted += count

    def record_admission(self, count: int = 1) -> None:
        """Queued jobs admitted into a live array's freed width."""
        with self._lock:
            self.jobs_admitted += count

    def record_merge(self) -> None:
        """A straggler array absorbed into another (defragmentation)."""
        with self._lock:
            self.arrays_merged += 1

    def record_replacement(self) -> None:
        """A merged array moved to the cost-model-optimal device."""
        with self._lock:
            self.arrays_replaced += 1

    def record_array_failure(self) -> None:
        """An array launch that raised (its jobs retry solo or fail)."""
        with self._lock:
            self.arrays_failed += 1

    def record_wall(self, seconds: float) -> None:
        """Add fleet wall-clock serving time (devices run concurrently)."""
        with self._lock:
            self.wall_seconds += seconds

    def record_steal(self) -> None:
        """A paused straggler from the pool was adopted by a device other
        than the one it paused on (queued plans never change device)."""
        with self._lock:
            self.plans_stolen += 1

    def enable_decision_log(self) -> None:
        """Start keeping the ordered (kind, payload) decision trace."""
        with self._lock:
            if self.decision_log is None:
                self.decision_log = []

    def record_decision(self, kind: str, payload: Tuple = (),
                        count: int = 1) -> None:
        """One scheduler decision (``count`` jobs affected); appends to
        the decision trace when :meth:`enable_decision_log` turned it on."""
        with self._lock:
            self.scheduler_decisions += count
            if self.decision_log is not None:
                self.decision_log.append((kind, tuple(payload)))

    def decisions(self, *kinds: str) -> "List[Tuple[str, Tuple]]":
        """The decision trace, optionally filtered to the given kinds."""
        with self._lock:
            log = list(self.decision_log or ())
        if not kinds:
            return log
        wanted = set(kinds)
        return [entry for entry in log if entry[0] in wanted]

    # ------------------------------------------------------------------ #
    # placement optimization (repro.runtime.placement_lp)
    # ------------------------------------------------------------------ #
    def record_lp_solve(self, solver: str, objective: float,
                        makespan: float, seconds: float) -> None:
        """One global placement solve: the winning path (``"lp+round"``
        or ``"greedy"``), its objective value and projected makespan, and
        the solver's wall latency (never charged to virtual time)."""
        with self._lock:
            self.lp_solves += 1
            if solver != "lp+round":
                self.lp_fallback_solves += 1
            self.lp_solver_seconds += seconds
            self.makespan_ledger.append((solver, objective, makespan))

    def record_migration(self) -> None:
        """A live array migrated to the device the optimizer chose (a
        bounded, budget-charged move — distinct from defrag replacement)."""
        with self._lock:
            self.migrations_emitted += 1

    def placement_summary(self) -> Dict[str, float]:
        """Placement-optimizer aggregates: solve counts, fallback share,
        summed solver latency, migrations emitted, and the latest ledger
        entry's objective/makespan (0.0 before any solve)."""
        with self._lock:
            last = self.makespan_ledger[-1] if self.makespan_ledger \
                else ("", 0.0, 0.0)
            return {
                "lp_solves": self.lp_solves,
                "lp_fallback_solves": self.lp_fallback_solves,
                "lp_solver_seconds": self.lp_solver_seconds,
                "migrations_emitted": self.migrations_emitted,
                "last_objective": last[1],
                "last_makespan": last[2],
            }

    # ------------------------------------------------------------------ #
    # durability (checkpointing and crash recovery)
    # ------------------------------------------------------------------ #
    def record_checkpoint(self, payload_bytes: int, written_bytes: int,
                          seconds: float) -> None:
        """One per-slot checkpoint persisted: serialized payload size,
        bytes that actually hit disk (0 when content-addressing
        deduplicated every object), and the write latency."""
        with self._lock:
            self.checkpoints_written += 1
            self.checkpoint_payload_bytes += payload_bytes
            self.checkpoint_bytes_written += written_bytes
            self.checkpoint_seconds += seconds

    def record_checkpoint_skip(self) -> None:
        """A cadence checkpoint skipped with zero encode/write work: the
        slot's state was already durable (dirty-slot tracking)."""
        with self._lock:
            self.checkpoints_skipped += 1

    def record_checkpoint_failure(self) -> None:
        """A checkpoint write raised (training continued; durability of
        that epoch was lost)."""
        with self._lock:
            self.checkpoint_failures += 1

    def record_recovery(self, count: int = 1) -> None:
        """Jobs re-queued with a durable checkpoint attached instead of
        restarting from step 0 (crash recovery / quarantine retry)."""
        with self._lock:
            self.jobs_recovered += count

    def record_worker_crash(self) -> None:
        """A fleet device worker died mid-array (in-flight registration
        never cleared); its device is quarantined and its jobs recovered."""
        with self._lock:
            self.workers_crashed += 1

    def record_replay(self, count: int = 1) -> None:
        """Gateway admissions replayed from the write-ahead log after a
        restart (the jobs were admitted before the crash and never
        settled)."""
        with self._lock:
            self.admissions_replayed += count

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

    def record_tenant_request(self, tenant: str, admitted: bool) -> None:
        """One gateway submission: admitted into the queue, or shed."""
        with self._lock:
            counters = self._tenant(tenant)
            counters["submitted"] += 1
            if admitted:
                counters["admitted"] += 1
            else:
                counters["shed"] += 1
                self.jobs_shed += 1

    def record_shed(self, tenant: str) -> None:
        """An *already queued* job dropped later (priority displacement).

        The admitted counter only rolls back when this tenant was counted
        admitted in the first place — a displaced job that entered the
        queue without passing the gateway (legacy direct submission) must
        not drive the ledger negative.
        """
        with self._lock:
            counters = self._tenant(tenant)
            if counters["admitted"] > 0:
                counters["admitted"] -= 1
            counters["shed"] += 1
            self.jobs_shed += 1

    def record_preemption(self, tenant: str, count: int = 1) -> None:
        """Slots of ``tenant`` detached from a live array mid-training so a
        deadline-at-risk job could take their fused width."""
        with self._lock:
            self._tenant(tenant)["preempted"] += count
            self.jobs_preempted += count

    def record_slo(self, tenant: str, hit: bool) -> None:
        """A deadline-carrying job finished before (hit) or after (miss)
        its SLO deadline."""
        with self._lock:
            self._tenant(tenant)["slo_hits" if hit else "slo_misses"] += 1

    def record_tenant_usage(self,
                            usage: Dict[str, Tuple[int, float]]) -> None:
        """Fused-slot consumption for one epoch: ``usage`` maps tenant ->
        ``(slot_steps, slot_seconds)``.  Slot-seconds attribute the epoch's
        wall clock to every live slot (gang-stepping means each fused slot
        occupies the device for the whole epoch), so a tenant's total is
        the fused-slot-seconds its jobs consumed — the quantity gateway
        quotas and fair shares are denominated in."""
        with self._lock:
            for tenant, (steps, seconds) in usage.items():
                counters = self._tenant(tenant)
                counters["slot_steps"] += steps
                counters["slot_seconds"] += seconds

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
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
    @property
    def tenants(self) -> List[str]:
        """Tenant names with any recorded activity, in first-use order."""
        with self._lock:
            return list(self._tenants)

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
            "arrays_replaced": self.arrays_replaced,
            "fused_width_efficiency": self.fused_width_efficiency,
            "models_per_array": self.models_per_array,
            "occupancy": self.occupancy,
            "fused_steps": self.fused_steps,
            "serial_steps_saved": self.serial_steps_saved,
            "samples_processed": self.samples_processed,
            "train_seconds": self.train_seconds,
            "throughput_samples_per_s": self.throughput,
            "wall_seconds": self.wall_seconds,
            "plans_stolen": self.plans_stolen,
            "scheduler_decisions": self.scheduler_decisions,
            "lp_solves": self.lp_solves,
            "lp_fallback_solves": self.lp_fallback_solves,
            "lp_solver_seconds": self.lp_solver_seconds,
            "migrations_emitted": self.migrations_emitted,
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
