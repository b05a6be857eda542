"""Real-vs-sim equivalence: both backends make the same decisions.

The simulation backend's value rests on one claim: only the *physics*
(tensor math, wall clock) are swapped out — every scheduling decision
runs through the identical control plane.  This suite pins the claim
down: the same 20-job trace, submitted to a real fleet and to a sim
fleet under a fixed seed, must produce the **identical sequence of
scheduling decisions** — same dequeue order, same placements, same
freed-width admissions, same retirement order with the same per-job
trained-step counts.

Both backends run on the fleet's one serial event loop, and device
timelines advance by the same cost-model projection on both, so the
claim holds on any fleet: the single-device trace exercises freed-width
admission, the two-device heterogeneous one adds early-stop evictions
whose freed width queued jobs board on either device.  Stop signals are
budgets and epoch counts only (no loss-driven ones) because synthetic
sim losses and real training losses legitimately diverge — *when* a
target-loss stop fires is physics, not scheduling.
"""

import numpy as np

from repro.hwsim import RTX6000, V100
from repro.runtime import FleetScheduler, RuntimeMetrics, TrainingJob

from .conftest import SIM_CLASSES, SIM_FEATURES, build_sim_model

JOBS = 20
BATCH = 4


def real_stream(seed, steps):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, SIM_FEATURES))
                .astype(np.float32),
                rng.integers(0, SIM_CLASSES, size=BATCH))
               for _ in range(steps)]
    return lambda step: batches[step]


def stop_after_one_epoch(epochs, curve):
    return epochs >= 1


def make_trace_jobs(early_stops=False):
    """20 jobs with heterogeneous step budgets, so slots retire at
    different epochs and freed-width admissions fire.  With
    ``early_stops`` every fourth job also stops after its first epoch,
    freeing width mid-array."""
    jobs = []
    for i in range(JOBS):
        steps = 4 if i % 3 else 8
        jobs.append(TrainingJob(
            name=f"eq{i}", build_model=build_sim_model,
            data=real_stream(4_000 + i, steps), steps=steps,
            epoch_steps=2, seed=i,
            stop=stop_after_one_epoch if early_stops and i % 4 == 0
            else None))
    return jobs


def run_backend(execution, devices=(V100,)):
    metrics = RuntimeMetrics()
    metrics.enable_event_log()
    fleet = FleetScheduler(devices=devices, max_width=4,
                           execution=execution, metrics=metrics)
    fleet.submit_all(make_trace_jobs(early_stops=len(devices) > 1))
    # cap each control cycle's dequeue so a backlog stays queued while
    # arrays run — that is what arms freed-width admissions mid-array
    results = {}
    while fleet.queue.pending_count:
        for result in fleet.run_cycle(8):
            results[result.job_id] = result
    return fleet, results, metrics.decisions()


class TestDecisionEquivalence:
    def test_same_trace_same_decisions_real_vs_sim(self):
        real_fleet, real_results, real_log = run_backend("real")
        sim_fleet, sim_results, sim_log = run_backend("sim")

        # both backends completed the full trace
        assert len(real_results) == len(sim_results) == JOBS
        # decision payloads are time-free (job ids, devices, step counts),
        # so the two logs must match element-for-element
        assert real_log == sim_log
        # sanity: the log is non-trivial — it contains every decision kind
        # the elastic single-device lifecycle can make
        kinds = {kind for kind, _ in real_log}
        assert {"dequeue", "place", "admit", "retire"} <= kinds

    def test_two_heterogeneous_devices_same_decisions_real_vs_sim(self):
        """Eviction and freed-width admission on two devices of different
        speeds: the turn order comes from the projected device timelines,
        so the logs still match element for element."""
        fleet = (V100, RTX6000)
        real_fleet, real_results, real_log = run_backend("real", fleet)
        sim_fleet, sim_results, sim_log = run_backend("sim", fleet)

        assert len(real_results) == len(sim_results) == JOBS
        assert real_log == sim_log
        for metrics in (real_fleet.metrics, sim_fleet.metrics):
            assert metrics.jobs_evicted >= 1
            assert metrics.jobs_admitted >= 1
            assert len(metrics.devices) == 2
        # the projection orders turns in real mode; it is the same number
        assert real_fleet.virtual_makespan() == sim_fleet.virtual_makespan()

    def test_results_agree_on_everything_but_physics(self):
        _, real_results, _ = run_backend("real")
        _, sim_results, _ = run_backend("sim")
        for job_id, real in real_results.items():
            sim = sim_results[job_id]
            assert real.name == sim.name
            assert real.steps_trained == sim.steps_trained
            assert real.array_id == sim.array_id
            assert real.slot == sim.slot
            assert real.stop_reason == sim.stop_reason
            assert len(real.loss_curve) == len(sim.loss_curve)
            assert sim.checkpoint is None and real.checkpoint is not None

    def test_sim_decision_log_is_reproducible(self):
        _, _, first = run_backend("sim")
        _, _, second = run_backend("sim")
        assert first == second

    def test_decision_counter_matches_log_length(self):
        metrics = RuntimeMetrics()
        metrics.enable_event_log()
        fleet = FleetScheduler(devices=(V100,), max_width=4,
                               execution="sim", metrics=metrics)
        fleet.submit_all(make_trace_jobs())
        fleet.run_until_idle()
        # the counter counts affected jobs; the log counts decision
        # events — every logged event accounts for >= 1 counted job
        assert metrics.scheduler_decisions >= len(metrics.decisions())
        assert metrics.decisions("dequeue")
