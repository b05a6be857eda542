"""Runs one workload: set-up, timed laps, checks, one result.

The noise rules live here.  A lap is a fixed amount of work (``spec``) and
every timing metric is computed per lap.  On this box a disturbance is a
burst that only ever slows laps down, so a run takes many short laps and
reports, for each metric, its **second-best value over the laps** — the
least disturbed laps; the very best is left out because one lap in a
hundred is a fluke of thread timing — and keeps the median, quartiles and
lap count of every metric beside it in the result file.  Real-execution
laps are interleaved with short serial laps; the fused speed-up is the
second-best fused rate over the second-best serial rate.  ``gc.collect()``
runs before each lap, and the previous lap's objects are dropped first so
every lap sees the same heap.  Lap count and lap size are constants of
``spec``: neither the clock nor the speed of the code under test decides
how much work a run does or how many laps it chooses from.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import check, spec
from .compare import quartiles
from .tracing import SPAN_NAMES, Tracer
from .workloads import WORKLOADS

RESTART_LAP = -2          # the lap number stamped on restart-phase spans

#: per-layer count -> key of ``Lap.counts`` (the system's own counters)
LAYER_COUNTS = {
    "hfta.fused_steps": "fused_steps",
    "bufferpool.takes": "pool_takes",
    "bufferpool.hit_rate": "pool_hit_rate",
    "engine.arrays_launched": "arrays_launched",
    "engine.evictions": "jobs_evicted",
    "engine.admissions": "jobs_admitted",
    "engine.fused_width_efficiency": "fused_width_efficiency",
    "placement_lp.solves": "lp_solves",
    "placement_lp.migrations": "migrations_emitted",
    "fleet.steals": "plans_stolen",
    "fleet.merges": "arrays_merged",
    "fleet.decisions": "scheduler_decisions",
    "gateway.admitted": "admitted",
    "gateway.shed": "shed",
    "gateway.preempted": "preempted",
    "gateway.slo_misses": "slo_misses",
    "checkpoint.saves": "checkpoints_written",
    "checkpoint.bytes_written": "checkpoint_bytes_written",
    "checkpoint.wal_entries": "wal_entries",
    "sim.virtual_makespan_s": "virtual_makespan_s",
    "sim.arrival_lateness_p50_s": "lateness_p50_s",
}
#: per-layer count -> key of the tracer's lap summary
TRACE_COUNTS = {
    "hfta.splits": "hfta.splits",
    "hfta.merges": "hfta.merges",
    "batcher.cohorts": "batcher.cohorts",
    "placement.decisions": "placement.decisions",
    "fleet.worker_busy_share": "worker_busy_share",
    "queue.wait_p50_s": "queue_wait_p50_s",
}
TRACE_CALLS = {
    "hwsim.estimates": "hwsim.estimate",
    "fleet.cycles": "fleet.run_cycle",
    "metrics.records": "metrics.record",
}
#: measured in the restart phase, not in the laps
RESTART_METRICS = ("checkpoint.load_slot_s", "checkpoint.recover_s",
                   "checkpoint.recovered_jobs")


#: per-lap metric -> which way is better; the rest are reported as medians
LAP_METRICS = {
    "lap_wall_s": "lower", "slot_steps_per_s": "higher",
    "jobs_per_s": "higher", "job_latency_p50_s": "lower",
    "job_latency_p90_s": "lower", "serial.slot_steps_per_s": "higher",
}


def second_best(values, better) -> float:
    """The value of the second least disturbed lap (of one lap: its own)."""
    ordered = sorted(values, reverse=better == "higher")
    return ordered[min(1, len(ordered) - 1)]


def summarize(values, better=None) -> dict:
    """A metric's entry in the result file: the reported ``value`` (the
    second best when ``better`` says which way that is, else the median)
    with the median, quartiles and sample count beside it."""
    q1, median, q3 = quartiles(values)
    return {"value": second_best(values, better) if better else median,
            "median": median, "q1": q1, "q3": q3, "n": len(values)}


def layer_row(summary, counts, wall_s) -> dict:
    """One traced lap's per-layer values, from the tracer's summary of
    the lap and the system's own counters."""
    row = {f"{span}_s": summary.get(f"{span}_s", 0.0) for span in SPAN_NAMES}
    row.update((name, counts.get(key, 0.0))
               for name, key in LAYER_COUNTS.items())
    row.update((name, summary.get(key, 0.0))
               for name, key in TRACE_COUNTS.items())
    row.update((name, summary["calls"][key])
               for name, key in TRACE_CALLS.items())
    row["batcher.mean_cohort_width"] = (
        summary.get("batcher.cohort_jobs", 0) /
        max(1, summary.get("batcher.cohorts", 0)))
    payload = counts.get("checkpoint_payload_bytes", 0)
    row["checkpoint.dedup_share"] = (
        1.0 - counts["checkpoint_bytes_written"] / payload if payload
        else 0.0)
    row["run.unattributed_share"] = summary["unattributed_s"] / wall_s
    row["run.step_share"] = summary["step_share"]
    return row


class Run:
    """One workload's run; ``t0`` is the process start."""

    def __init__(self, name, seed, trace, out, smoke, t0, import_s):
        self.name, self.seed = name, seed
        self.out, self.smoke = Path(out), smoke
        sizes = spec.SMOKE_SIZES if smoke else spec.SIZES
        self.laps = spec.TRACE_LAPS if smoke else sizes[name]["laps"]
        self.out.mkdir(parents=True, exist_ok=True)
        self.tracer = Tracer() if trace else None
        self.failures = []
        self.attempted = self.refused = 0
        self.last_lap = None
        self.rows = []            # one dict of metrics per untraced lap
        self.fingerprints = []    # sim_fleet: what each lap must repeat
        self.setup = {"import_s": import_s}

        start = time.perf_counter()
        self.workload = WORKLOADS[name](sizes[name], seed, self.out,
                                        self.tracer)
        self.setup["generate_s"] = time.perf_counter() - start
        start = time.perf_counter()
        try:
            self.workload.lap()
            if self.workload.has_serial:     # the width-1 path warms up too
                self.workload.serial_lap()
        except BaseException:
            self.workload.close()
            raise
        self.setup["warmup_s"] = time.perf_counter() - start
        self.setup_s = time.perf_counter() - t0

    # ------------------------------------------------------------------ #
    def _lap(self, traced_as=None):
        """One lap with the heap as every other lap finds it."""
        self.last_lap = None
        gc.collect()
        if traced_as is not None:
            self.tracer.lap = traced_as
            self.tracer.install()
        try:
            cpu = time.process_time()
            lap = self.workload.lap()
            cpu = time.process_time() - cpu
        finally:
            if traced_as is not None:
                self.tracer.uninstall()
        lap.failures += check.check_delivery(lap.jobs, lap.results)
        self.failures += lap.failures
        self.attempted += lap.attempted
        self.refused += lap.refused
        self.last_lap = lap
        return lap, cpu / lap.wall_s

    @staticmethod
    def _latencies(lap) -> dict:
        return {
            "job_latency_p50_s": statistics.median(lap.latencies),
            # inclusive: never beyond the slowest job, however few jobs
            "job_latency_p90_s": statistics.quantiles(
                lap.latencies, n=10, method="inclusive")[-1],
        }

    def _row(self, lap, cpu_share, serial):
        """One lap's metrics; ``serial`` is the neighbouring serial lap."""
        rate = lap.slot_steps / lap.wall_s
        serial_rate = serial[1] / serial[0] if serial else 0.0
        return dict(self._latencies(lap), **{
            "lap_wall_s": lap.wall_s,
            "slot_steps_per_s": rate,
            "jobs_per_s": len(lap.results) / lap.wall_s,
            "fused_speedup": (rate / serial_rate if serial
                              else lap.oracle_speedup),
            "serial.slot_steps_per_s": serial_rate,
            "run.cpu_share": cpu_share,
        })

    def _untraced_round(self):
        """A fused lap, then its neighbouring serial lap: one more row.
        A method of its own so that no local keeps this lap's objects
        alive into the next lap (``last_lap`` is dropped by ``_lap``)."""
        workload = self.workload
        lap, cpu_share = self._lap()
        serial = None
        if workload.has_serial:
            gc.collect()      # the fused lap's garbage is not the serial's
            serial = workload.serial_lap()
        self.rows.append(self._row(lap, cpu_share, serial))
        if not workload.has_serial:
            self.fingerprints.append(check.fingerprint(lap))

    def _traced_round(self, number):
        """A traced lap: (its wall, its per-layer row)."""
        lap, _ = self._lap(traced_as=number)
        summary = self.tracer.summarize(number, lap.wall_s,
                                        self.workload.worker_threads)
        return lap.wall_s, layer_row(summary, lap.counts, lap.wall_s)

    # ------------------------------------------------------------------ #
    def measure(self) -> dict:
        """The untraced pass: every end-to-end metric."""
        rows = self.rows
        for _ in range(self.laps):
            self._untraced_round()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        virtual = self._whole_trace() if self.workload.has_whole_trace else {}
        self._check_after_laps()

        setup_samples = [self.setup_s] + [
            self._child_setup() for _ in range(spec.SETUP_CHILDREN)]
        detail = {key: summarize([row[key] for row in rows],
                                 LAP_METRICS.get(key)) for key in rows[0]}
        if self.workload.has_serial:     # sim_fleet's is exact on every lap
            detail["fused_speedup"]["value"] = (
                detail["slot_steps_per_s"]["value"] /
                detail["serial.slot_steps_per_s"]["value"])
        detail["setup_s"] = summarize(setup_samples)
        detail["peak_rss_mb"] = summarize([peak_rss_mb])
        detail.update((key, summarize([value]))
                      for key, value in virtual.items())
        return detail

    def measure_layers(self) -> dict:
        """The traced pass: alternate untraced and traced laps, so the
        overhead of tracing is a ratio of neighbours too."""
        rows, traced_walls, layer_rows = self.rows, [], []
        for number in range(spec.TRACE_LAPS):
            self._untraced_round()
            wall, row = self._traced_round(number)
            traced_walls.append(wall)
            layer_rows.append(row)
        restart = self._check_after_laps(traced=True)
        self.tracer.write(self.out / f"trace.{self.name}.jsonl")

        values = {name: statistics.median(row[name] for row in layer_rows)
                  for name in layer_rows[0]}
        for name in RESTART_METRICS:
            values[name] = restart.get(name, 0.0)
        values["run.cpu_share"] = statistics.median(
            row["run.cpu_share"] for row in rows)
        values["serial.slot_steps_per_s"] = second_best(
            [row["serial.slot_steps_per_s"] for row in rows], "higher")
        q1, mid, q3 = quartiles([row["lap_wall_s"] for row in rows])
        values["run.lap_wall_iqr_share"] = (q3 - q1) / mid
        values["run.trace_overhead_share"] = \
            statistics.median(traced_walls) / mid - 1.0
        values["run.loadavg_1m"] = os.getloadavg()[0]
        for key, seconds in self.setup.items():
            values[f"setup.{key}"] = seconds
        return {name: {"value": value} for name, value in values.items()}

    # ------------------------------------------------------------------ #
    def _whole_trace(self) -> dict:
        """Off the clock: one replay of the whole trace, for the metrics on
        the virtual clock (exact for a seed, whatever the box does)."""
        self.last_lap = None
        lap = self.workload.whole_trace()
        self.failures += lap.failures + check.check_delivery(lap.jobs,
                                                             lap.results)
        self.attempted += lap.attempted
        self.refused += lap.refused
        return dict(self._latencies(lap), fused_speedup=lap.oracle_speedup)

    def _check_after_laps(self, traced=False) -> dict:
        """Off the clock: serial equivalence of a sample of the last lap,
        the restart phase, the repeat check.  Returns restart metrics."""
        workload, lap = self.workload, self.last_lap
        restart_metrics = {}
        tolerances = (spec.CURVE_TOLERANCE.get(self.name),
                      spec.OUTPUT_TOLERANCE.get(self.name))
        if workload.has_serial:
            self.failures += check.sample_serial_equivalence(
                lap.jobs, lap.results, self.seed, tolerances)
            if self.smoke:
                self.failures += check.missed_negatives(
                    lap.jobs, lap.results, self.seed, tolerances)
        else:
            self.failures += check.check_repeats(self.fingerprints)
        if workload.has_restart:
            self.last_lap = lap = None
            if traced:
                self.tracer.lap = RESTART_LAP
                self.tracer.install()
            try:
                start = time.perf_counter()
                restart = workload.restart()
                wall = time.perf_counter() - start
            finally:
                if traced:
                    self.tracer.uninstall()
            self.attempted += len(restart["jobs"])
            self.failures += check.check_restart(restart, self.seed,
                                                 tolerances)
            restart_metrics = {
                "checkpoint.recover_s": restart["recover_s"],
                "checkpoint.recovered_jobs": len(restart["readmitted"])}
            if traced:
                summary = self.tracer.summarize(RESTART_LAP, wall,
                                                workload.worker_threads)
                restart_metrics["checkpoint.load_slot_s"] = \
                    summary.get("checkpoint.load_slot_s", 0.0)
        return restart_metrics

    def _child_setup(self) -> float:
        """One more set-up sample: a fresh interpreter doing the same
        imports, input generation and warm-up lap, then exiting."""
        done = subprocess.run(
            [sys.executable, "-m", "bench_e2e", "--workload", self.name,
             "--seed", str(self.seed), "--out", str(self.out),
             "--setup-only"] + (["--smoke"] if self.smoke else []),
            cwd=spec.ROOT, capture_output=True, text=True, timeout=170,
            check=True)
        return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def result_line(run: Run, detail: dict, units: dict, names) -> dict:
    """The one JSON object the contract asks for, from the run's detail."""
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": detail[name]["value"],
                           "unit": units[name]} for name in names},
    }
