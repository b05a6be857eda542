"""Tests for the multi-device fleet: placement, execution, failure isolation.

Covers the fleet layer's contract:

* placement is cost-model-optimal — the device the placer picks for an
  array is the one :func:`repro.hwsim.estimate_array_cost` projects to
  finish it first;
* a cohort wider than the chosen device's memory cap falls back to partial
  fusion (capacity-sized chunks), not rejection;
* a failing array on one device neither stalls the other devices nor loses
  its healthy cohort-mates (quarantine-and-retry across cycles);
* fleet execution preserves the runtime invariant: every exported
  checkpoint is bit-equivalent to serial training.
"""

import numpy as np
import pytest

from repro import nn, optim as serial_optim
from repro.hwsim import (A100, RTX6000, TPU_V3, V100, estimate_array_cost,
                         get_workload, max_models)
from repro.hfta.ops.factory import OpsLibrary
from repro.nn import functional as F
from repro.runtime import (Batcher, FleetPlacer, FleetScheduler, JobQueue,
                           JobState, TrainingJob, synthetic_fleet)

STEPS = 4
BATCH = 6
CLASSES = 3
FEATURES = 10

FLEET = (V100, RTX6000, A100, TPU_V3)


class TinyMLP(nn.Module):
    """Minimal OpsLibrary model used as the tests' job architecture."""

    def __init__(self, hidden=8, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(FEATURES, hidden, generator=generator)
        self.fc2 = lib.Linear(hidden, CLASSES, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


def stream(seed, batch=BATCH):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((batch, FEATURES)).astype(np.float32),
                rng.integers(0, CLASSES, size=batch))
               for _ in range(STEPS)]
    return lambda step: batches[step]


def make_job(index, lr=1e-3, hidden=8, workload=None, **kwargs):
    config = {"lr": lr, "optimizer": kwargs.pop("optimizer", "adam")}
    return TrainingJob(
        name=f"job{index}_lr{lr}", seed=index, steps=STEPS, config=config,
        build_model=lambda B=None, g=None: TinyMLP(hidden, B, g),
        data=stream(1000 + index), workload=workload, **kwargs)


def form_cohorts(jobs):
    queue = JobQueue()
    for job in jobs:
        queue.submit(job)
    cohorts, failures = Batcher().form_cohorts(queue.pop_pending())
    assert not failures
    return cohorts


# --------------------------------------------------------------------- #
class TestCostEstimate:
    def test_estimate_matches_hfta_simulation(self):
        workload = get_workload("pointnet_cls")
        est = estimate_array_cost(
            type("Probe", (), {"num_models": 4, "steps": 8})(), V100,
            precision="amp", workload=workload)
        assert est.fits
        assert est.device == "V100"
        assert est.num_models == 4
        assert est.train_seconds == pytest.approx(8 * est.iteration_time_s)
        assert est.throughput > 0

    def test_plan_without_workload_hint_requires_explicit_workload(self):
        probe = type("Probe", (), {"num_models": 2, "steps": 1})()
        with pytest.raises(ValueError, match="workload"):
            estimate_array_cost(probe, V100)

    def test_plan_workload_hint_is_resolved_by_name(self):
        probe = type("Probe", (), {"num_models": 2, "steps": 3,
                                   "workload": "dcgan"})()
        est = estimate_array_cost(probe, A100)
        assert est.workload == "dcgan"
        assert est.steps == 3


# --------------------------------------------------------------------- #
class TestFleetPlacer:
    def test_idle_fleet_assignment_is_cost_model_optimal(self):
        """With no load, the chosen device is the one the cost model says
        trains the array fastest."""
        cohorts = form_cohorts([make_job(i, lr=1e-3 * (i + 1),
                                         workload="resnet18")
                                for i in range(3)])
        placer = FleetPlacer(devices=FLEET, max_width=4)
        (decision,) = placer.place(cohorts)

        workload = get_workload("resnet18")
        projected = {
            device.name: estimate_array_cost(
                decision.plan, device, "amp", workload=workload).train_seconds
            for device in FLEET
            if placer.width_cap(workload, device) >= decision.plan.num_models}
        assert decision.device_name == min(projected, key=projected.get)
        assert decision.projected_seconds == pytest.approx(
            projected[decision.device_name])

    def test_memory_cap_fallback_splits_via_partial_fusion(self):
        """A cohort wider than the best device's memory cap is chunked to
        that cap, not rejected or truncated."""
        placer = FleetPlacer(devices=(V100,), max_width=64,
                             default_workload="bert_medium")
        cap = placer.width_cap(get_workload("bert_medium"), V100)
        assert cap == max_models(get_workload("bert_medium"), V100, "hfta",
                                 "amp")
        assert 1 < cap < 12   # the scenario: memory, not max_width, binds

        cohorts = form_cohorts([make_job(i, lr=1e-3 * (i + 1),
                                         workload="bert_medium")
                                for i in range(12)])
        decisions = placer.place(cohorts)
        widths = [d.plan.num_models for d in decisions]
        assert sum(widths) == 12
        assert max(widths) == cap                 # full chunks at capacity
        assert all(d.plan.width_cap == cap for d in decisions)
        # every job placed exactly once
        placed = sorted(i for d in decisions for i in d.plan.indices)
        assert placed == list(range(12))

    def test_memory_bound_cap_uses_hwsim(self):
        """The fleet's one memory cap is hwsim's HFTA ``max_models`` for the
        device, the workload and the placer's precision."""
        workload = get_workload("pointnet_cls")
        caps = {}
        for precision in ("amp", "fp32"):
            placer = FleetPlacer(devices=FLEET, max_width=1000,
                                 precision=precision)
            for device in FLEET:
                caps[precision, device.name] = placer.width_cap(workload,
                                                                device)
                assert caps[precision, device.name] == max_models(
                    workload, device, "hfta", precision)
        assert caps["amp", "V100"] > caps["fp32", "V100"]

    def test_explicit_cap_wins_when_smaller(self):
        """``max_width`` below the memory cap binds, and a wider cohort is
        chunked at it."""
        workload = get_workload("pointnet_cls")
        placer = FleetPlacer(devices=(V100,), max_width=2,
                             default_workload="pointnet_cls")
        assert max_models(workload, V100, "hfta", "amp") > 2
        assert placer.width_cap(workload, V100) == 2

        decisions = placer.place(form_cohorts(
            [make_job(i, lr=1e-3 * (i + 1), workload="pointnet_cls")
             for i in range(5)]))
        assert sorted(d.plan.num_models for d in decisions) == [1, 2, 2]
        assert all(d.plan.width_cap == 2 for d in decisions)

    def test_load_awareness_spreads_chunks_across_devices(self):
        """Many same-cost arrays do not pile onto one device."""
        jobs = [make_job(i, hidden=8 + 2 * i, workload="pointnet_cls")
                for i in range(8)]          # 8 structurally distinct cohorts
        placer = FleetPlacer(devices=FLEET, max_width=4)
        decisions = placer.place(form_cohorts(jobs))
        assert len({d.device_name for d in decisions}) > 1

    def test_ties_spread_over_replicas_across_calls(self):
        """On an idle fleet every replica of the fastest profile ties on
        finish time and throughput; successive ``place`` calls, each
        starting from zero load, visit every replica before any repeats
        (the seconds the placer has already put on a device break the
        tie) and never pick the slower profile."""
        replicas = synthetic_fleet(4, base=(V100,))
        placer = FleetPlacer(devices=replicas + (A100,), max_width=4,
                             default_workload="pointnet_cls")
        workload = get_workload("pointnet_cls")
        probe = type("P", (), {"num_models": 1, "steps": STEPS})()
        fast, slow = (estimate_array_cost(probe, device, "amp",
                                          workload=workload).train_seconds
                      for device in (V100, A100))
        assert fast < slow                           # scenario premise

        def place_one(index, load=None):
            (decision,) = placer.place(form_cohorts([make_job(index)]),
                                       load=load)
            return decision.device_name

        names = [d.name for d in replicas]
        visited = [place_one(i) for i in range(4)]
        assert sorted(visited) == names
        # all four used once: the tie falls back to fleet order
        assert place_one(4) == names[0]
        # a strictly earlier finish beats a less-used device
        load = {name: 1e-9 for name in names[1:]}
        assert place_one(5, load=load) == names[0]

    def test_capacity_asymmetry_does_not_defuse_the_cohort(self):
        """Regression: ranking devices by a single chunk's finish time let a
        low-capacity device (narrow chunk = less work = finishes sooner)
        beat the device that can fuse the whole cohort at once.  Devices
        must be compared on the full remaining chunk set."""
        workload = get_workload("pointnet_seg")
        placer = FleetPlacer(devices=(V100, A100), max_width=16,
                             default_workload="pointnet_seg")
        cap_v100 = placer.width_cap(workload, V100)
        cap_a100 = placer.width_cap(workload, A100)
        assert cap_v100 < 16 <= cap_a100   # the asymmetric scenario

        cohorts = form_cohorts([make_job(i, lr=1e-3 * (i + 1),
                                         workload="pointnet_seg")
                                for i in range(16)])
        decisions = placer.place(cohorts)

        # The cost model projects A100 trains all 16 fused faster than
        # V100 trains 7+7+2; the placer must therefore fuse on A100.
        a100_whole = estimate_array_cost(
            decisions[0].plan, A100, "amp", workload=workload)
        v100_widths = [cap_v100] * (16 // cap_v100)
        if 16 % cap_v100:
            v100_widths.append(16 % cap_v100)
        v100_chunks = sum(
            estimate_array_cost(
                type("P", (), {"num_models": w, "steps": STEPS})(),
                V100, "amp", workload=workload).train_seconds
            for w in v100_widths)
        assert a100_whole.train_seconds < v100_chunks  # scenario premise
        assert [d.device_name for d in decisions] == ["A100"]
        assert decisions[0].plan.num_models == 16

    def test_unplaceable_workload_raises(self):
        placer = FleetPlacer(devices=(TPU_V3,), max_width=4,
                             default_workload="bert_medium")
        workload = get_workload("bert_medium")
        if placer.width_cap(workload, TPU_V3) >= 1:
            pytest.skip("bert_medium fits a TPUv3 core in this calibration")
        with pytest.raises(RuntimeError, match="cannot fit"):
            placer.place(form_cohorts([make_job(0,
                                                workload="bert_medium")]))


# --------------------------------------------------------------------- #
class TestFleetScheduler:
    def test_serves_jobs_equivalently_to_serial_training(self):
        """Fleet execution changes where jobs train, never what they learn."""
        jobs = [make_job(i, lr=1e-3 * (i + 1)) for i in range(5)]
        fleet = FleetScheduler(devices=(V100, A100), max_width=2)
        job_ids = fleet.submit_all(jobs)
        results = fleet.run_until_idle()

        assert len(results) == 5
        assert fleet.metrics.jobs_completed == 5
        for job, job_id in zip(jobs, job_ids):
            result = results[job_id]
            reference = job.build_model(None, np.random.default_rng(job.seed))
            opt = serial_optim.Adam(reference.parameters(),
                                    lr=job.config["lr"])
            for step in range(STEPS):
                x, y = job.data(step)
                opt.zero_grad()
                loss = F.cross_entropy(reference(nn.tensor(x)), y)
                loss.backward()
                opt.step()
            for (name, p_ref), (_, p_out) in zip(
                    reference.named_parameters(),
                    result.checkpoint.named_parameters()):
                np.testing.assert_allclose(p_out.data, p_ref.data,
                                           rtol=1e-4, atol=1e-6,
                                           err_msg=f"{result.name} {name}")

    def test_array_ids_unique_across_concurrent_devices(self):
        fleet = FleetScheduler(devices=FLEET, max_width=2)
        fleet.submit_all([make_job(i, hidden=8 + 2 * (i % 4))
                          for i in range(8)])
        fleet.run_until_idle()
        ids = [r.array_id for r in fleet.metrics.records]
        assert len(ids) == len(set(ids))
        # every record is stamped with a real fleet device
        names = {d.name for d in FLEET}
        assert all(r.device in names for r in fleet.metrics.records)

    def test_failing_array_on_one_device_does_not_stall_the_others(self):
        """A poisoned cohort fails its shared array; the other devices'
        arrays complete, and the quarantined jobs retry solo."""
        fleet = FleetScheduler(devices=(V100, RTX6000), max_width=4)
        healthy = [fleet.submit(make_job(i, hidden=16)) for i in range(3)]
        good_mate = fleet.submit(make_job(10))
        bad_mate = fleet.submit(TrainingJob(
            name="job11_lr0.001", seed=11, steps=STEPS,
            config={"lr": 1e-3, "optimizer": "adam"},
            build_model=lambda B=None, g=None: TinyMLP(8, B, g),
            data=stream(1011, batch=BATCH + 3)))   # mismatched batch size

        results = fleet.run_until_idle()
        for job_id in healthy + [good_mate, bad_mate]:
            assert fleet.queue.state(job_id) == JobState.COMPLETED
            assert job_id in results
        assert fleet.metrics.arrays_failed == 1
        # the quarantine retries trained as width-1 arrays
        retry_widths = sorted(r.num_models for r in fleet.metrics.records
                              if r.num_models == 1)
        assert len(retry_widths) >= 2

    def test_fleet_metrics_report_per_device(self):
        fleet = FleetScheduler(devices=(V100, A100), max_width=2)
        fleet.submit_all([make_job(i, hidden=8 + 2 * (i % 3))
                          for i in range(6)])
        fleet.run_until_idle()

        summary = fleet.metrics.device_summary()
        assert set(summary) == set(fleet.metrics.devices)
        total_jobs = sum(s["jobs"] for s in summary.values())
        assert total_jobs == 6
        assert fleet.metrics.wall_seconds > 0
        assert fleet.metrics.aggregate_throughput > 0
        for s in summary.values():
            assert 0.0 <= s["utilization"] <= 1.0 + 1e-6
            assert s["busy_seconds"] <= fleet.metrics.wall_seconds + 1e-6

        rows, header = fleet.metrics.fleet_report()
        assert len(rows) == len(summary)
        assert all(len(row) == len(header) for row in rows)
        as_dict = fleet.metrics.as_dict()
        assert as_dict["wall_seconds"] == fleet.metrics.wall_seconds
        assert (as_dict["aggregate_throughput_samples_per_s"]
                == fleet.metrics.aggregate_throughput)

    def test_workload_hints_keep_cost_models_per_array(self):
        """Jobs with different workload hints never share an array, so each
        array has exactly one cost model."""
        jobs = [make_job(0, workload="pointnet_cls"),
                make_job(1, workload="dcgan")]    # same structure, diff hint
        cohorts = form_cohorts(jobs)
        assert len(cohorts) == 2
        assert sorted(c.workload for c in cohorts) == ["dcgan",
                                                       "pointnet_cls"]
