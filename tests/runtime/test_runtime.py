"""Unit and integration tests for the dynamic training-array runtime."""

import dataclasses

import numpy as np
import pytest

from repro import nn, optim as serial_optim
from repro.hfta.ops.factory import OpsLibrary
from repro.hfht.space import HyperParameter, SearchSpace
from repro.nn import functional as F
from repro.runtime import (ArrayPolicy, Batcher, JobQueue, JobState,
                           RuntimeMetrics, TrainingArrayEngine, TrainingJob)
from repro.runtime.metrics import ArrayRecord, Event

STEPS = 4
BATCH = 6
CLASSES = 3
FEATURES = 10


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


def make_job(index, lr=1e-3, hidden=8, steps=STEPS, **kwargs):
    config = {"lr": lr, "optimizer": kwargs.pop("optimizer", "adam")}
    config.update(kwargs.pop("config", {}))
    return TrainingJob(
        name=f"job{index}_lr{lr}", seed=kwargs.pop("seed", index),
        steps=steps, config=config,
        build_model=lambda B=None, g=None: TinyMLP(hidden, B, g),
        data=stream(1000 + index), **kwargs)


# --------------------------------------------------------------------- #
class TestJobQueue:
    def test_lifecycle(self):
        queue = JobQueue()
        job_id = queue.submit(make_job(0))
        assert queue.state(job_id) == JobState.QUEUED
        assert queue.pending_count == 1

        (sub,) = queue.pop_pending()
        assert sub.job_id == job_id
        assert sub.state == JobState.SCHEDULED
        assert queue.pending_count == 0

        queue.mark_running(sub)
        queue.mark_completed(sub, result="checkpoint")
        assert queue.state(job_id) == JobState.COMPLETED
        assert queue.result(job_id) == "checkpoint"

    def test_pop_pending_respects_max_jobs_and_order(self):
        queue = JobQueue()
        ids = [queue.submit(make_job(i)) for i in range(5)]
        first = queue.pop_pending(max_jobs=2)
        assert [s.job_id for s in first] == ids[:2]
        rest = queue.pop_pending()
        assert [s.job_id for s in rest] == ids[2:]

    def test_requeue_puts_job_back_at_front(self):
        queue = JobQueue()
        ids = [queue.submit(make_job(i)) for i in range(2)]
        (sub,) = queue.pop_pending(max_jobs=1)
        queue.requeue(sub)
        assert [s.job_id for s in queue.pop_pending()] == ids

    def test_result_of_failed_job_raises(self):
        queue = JobQueue()
        job_id = queue.submit(make_job(0))
        (sub,) = queue.pop_pending()
        queue.mark_failed(sub, "boom")
        with pytest.raises(RuntimeError, match="boom"):
            queue.result(job_id)

    def test_job_without_data_is_rejected(self):
        with pytest.raises(ValueError, match="data stream"):
            TrainingJob(name="nodata", build_model=lambda B, g: TinyMLP(8),
                        data=None)

    @pytest.mark.parametrize("field", ["steps", "epoch_steps"])
    @pytest.mark.parametrize("value", [2.5, True, "3", np.float32(4)])
    def test_non_integer_step_budget_is_rejected(self, field, value):
        with pytest.raises(TypeError, match=f"TrainingJob.{field} must be "
                                            f"an integer"):
            make_job(0, **{field: value})

    def test_numpy_integer_step_budget_is_accepted(self):
        job = make_job(0, steps=np.int64(4), epoch_steps=np.int64(2))
        assert job.steps == 4 and job.epoch_steps == 2

    @pytest.mark.parametrize("field, value, error, match", [
        ("workload", "no_such_workload", ValueError, "pointnet_cls"),
        ("priority", "high", TypeError, "TrainingJob.priority"),
        ("priority", True, TypeError, "TrainingJob.priority"),
        ("priority", 1.5, TypeError, "TrainingJob.priority"),
        ("deadline_s", "soon", TypeError, "TrainingJob.deadline_s"),
        ("deadline_s", False, TypeError, "TrainingJob.deadline_s"),
        ("seed", 2.5, TypeError, "TrainingJob.seed must be an integer"),
        ("seed", True, TypeError, "TrainingJob.seed must be an integer"),
        ("seed", "7", TypeError, "TrainingJob.seed must be an integer"),
        ("target_loss", "0.1", TypeError, "TrainingJob.target_loss"),
        ("target_loss", True, TypeError, "TrainingJob.target_loss"),
        ("loss", "hinge", ValueError, r"'cross_entropy', 'mse', 'nll'"),
        ("name", 5, TypeError, "TrainingJob.name must be a str"),
        ("user", None, TypeError, "TrainingJob.user must be a str"),
        ("tenant", b"alpha", TypeError, "TrainingJob.tenant must be a str"),
        ("config", None, TypeError, "TrainingJob.config must be a mapping"),
        ("config", [("lr", 0.1)], TypeError, "TrainingJob.config"),
        ("build_model", "mlp", TypeError,
         "TrainingJob.build_model must be callable"),
        ("data", [(np.zeros((BATCH, FEATURES)), np.zeros(BATCH))], TypeError,
         "TrainingJob.data must be callable"),
        ("stop", 1, TypeError, "TrainingJob.stop must be callable or None"),
        ("sim_loss", 0.5, TypeError,
         "TrainingJob.sim_loss must be callable or None"),
    ])
    def test_malformed_serving_field_is_rejected(self, field, value, error,
                                                 match):
        """Rejected at construction: admitted, such a job raised later
        inside placement, the fair dequeue, the first cycle or the array,
        and stranded its batch."""
        with pytest.raises(error, match=match):
            dataclasses.replace(make_job(0), **{field: value})

    def test_well_formed_mates_of_rejected_jobs_are_delivered(self):
        """``config=None``, ``config=[("lr", 0.1)]`` and ``name=5`` used to
        be admitted; the first cycle raised after popping the batch and the
        well-formed mates stayed ``scheduled``, never delivered."""
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        for bad in (dict(config=None), dict(config=[("lr", 0.1)]),
                    dict(name=5)):
            with pytest.raises(TypeError):
                engine.submit(dataclasses.replace(make_job(9), **bad))
        mates = [engine.submit(make_job(i)) for i in range(2)]
        results = engine.run_cycle()
        assert sorted(r.job_id for r in results) == sorted(mates)
        assert all(engine.queue.state(job_id) == JobState.COMPLETED
                   for job_id in mates)
        assert engine.queue.pending_count == 0

    def test_well_formed_serving_fields_are_accepted(self):
        job = make_job(0, workload="dcgan", priority=np.int64(2),
                       deadline_s=np.float32(30.0))
        assert job.priority == 2 and job.deadline_s == 30.0
        assert make_job(1, deadline_s=5).deadline_s == 5
        job = make_job(2, seed=np.int64(3), target_loss=np.float32(0.5),
                       loss="mse")
        assert job.seed == 3 and job.target_loss == 0.5
        assert make_job(3, target_loss=1).target_loss == 1


# --------------------------------------------------------------------- #
class TestBatcher:
    def _schedule(self, jobs):
        queue = JobQueue()
        for job in jobs:
            queue.submit(job)
        return queue.pop_pending()

    def test_same_architecture_same_config_fuse(self):
        batch = self._schedule([make_job(i, lr=1e-3 * (i + 1))
                                for i in range(4)])
        cohorts, failures = Batcher().form_cohorts(batch)
        assert not failures
        assert len(cohorts) == 1
        assert cohorts[0].num_models == 4
        assert len(cohorts[0].jobs) == 4

    def test_different_architectures_split(self):
        batch = self._schedule([make_job(0, hidden=8), make_job(1, hidden=8),
                                make_job(2, hidden=16)])
        cohorts, _ = Batcher().form_cohorts(batch)
        assert sorted(c.num_models for c in cohorts) == [1, 2]

    def test_infusible_config_keys_split(self):
        batch = self._schedule([make_job(0), make_job(1, optimizer="sgd")])
        cohorts, _ = Batcher().form_cohorts(batch)
        assert len(cohorts) == 2

    def test_step_budgets_split(self):
        batch = self._schedule([make_job(0, steps=2), make_job(1, steps=3)])
        cohorts, _ = Batcher().form_cohorts(batch)
        assert len(cohorts) == 2

    def test_search_space_cannot_make_default_infusible_keys_fusible(self):
        """Regression: a space declaring only its own infusible names used
        to *replace* the default infusible key set, silently fusing jobs
        with different optimizers — and training both with the first
        job's optimizer.  The space's names must union with the defaults."""
        space = SearchSpace([HyperParameter("lr", True, 1e-4, 1e-2)])
        jobs = [make_job(0, space=space),
                make_job(1, optimizer="sgd", space=space)]
        cohorts, _ = Batcher().form_cohorts(self._schedule(jobs))
        assert len(cohorts) == 2   # optimizer stays infusible

    def test_search_space_declares_infusible_keys(self):
        space = SearchSpace([
            HyperParameter("lr", True, 1e-4, 1e-2),
            HyperParameter("width_mult", False, choices=(1, 2)),
        ])
        jobs = [make_job(0, config={"width_mult": 1}, space=space),
                make_job(1, config={"width_mult": 2}, space=space),
                make_job(2, config={"width_mult": 1}, space=space)]
        cohorts, _ = Batcher().form_cohorts(self._schedule(jobs))
        assert sorted(c.num_models for c in cohorts) == [1, 2]

    def test_broken_builder_reported_not_raised(self):
        def broken(B=None, g=None):
            raise RuntimeError("bad model")

        bad = TrainingJob(name="bad", build_model=broken, data=stream(0))
        batch = self._schedule([make_job(0), bad, make_job(1)])
        cohorts, failures = Batcher().form_cohorts(batch)
        assert len(failures) == 1
        assert "bad model" in failures[0][1]
        assert sum(c.num_models for c in cohorts) == 2


# --------------------------------------------------------------------- #
class TestArrayPolicy:
    def _cohort(self, num_jobs):
        batch = []
        queue = JobQueue()
        for i in range(num_jobs):
            queue.submit(make_job(i))
        (cohort,), _ = Batcher().form_cohorts(queue.pop_pending())
        return cohort

    def test_width_cap_splits_oversized_cohorts(self):
        plans = ArrayPolicy(max_width=3).plan([self._cohort(7)])
        assert [p.num_models for p in plans] == [3, 3, 1]
        assert all(p.width_cap == 3 for p in plans)
        assert plans[0].occupancy == 1.0
        assert plans[-1].occupancy == pytest.approx(1 / 3)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="max_width"):
            ArrayPolicy(max_width=0)


# --------------------------------------------------------------------- #
class TestEngine:
    def test_serves_jobs_equivalently_to_serial_training(self):
        jobs = [make_job(i, lr=1e-3 * (i + 1)) for i in range(5)]
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=2))
        job_ids = engine.submit_all(jobs)
        results = engine.run_until_idle()

        assert len(results) == 5
        assert engine.metrics.arrays_launched == 3  # 2 + 2 + 1 under cap 2
        assert engine.metrics.jobs_completed == 5

        for job, job_id in zip(jobs, job_ids):
            result = results[job_id]
            assert len(result.loss_curve) == STEPS
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

    def test_heterogeneous_jobs_form_separate_arrays(self):
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        engine.submit_all([make_job(0), make_job(1),
                           make_job(2, hidden=16), make_job(3, hidden=16)])
        engine.run_until_idle()
        assert engine.metrics.arrays_launched == 2
        assert engine.metrics.models_per_array == 2.0

    def test_cohort_mate_omitting_a_fusible_key_gets_the_default(self):
        """Fusible keys are not part of the cohort key, so a job that omits
        'lr' may fuse with one that sets it; the omitting job must train
        with the optimizer's own default, not fail the array."""
        explicit = make_job(0, lr=5e-3)
        implicit = TrainingJob(
            name="job1_lr0", seed=1, steps=STEPS,  # same cohort key
            config={"optimizer": "adam"},
            build_model=lambda B=None, g=None: TinyMLP(8, B, g),
            data=stream(1001))
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        ids = engine.submit_all([explicit, implicit])
        results = engine.run_until_idle()
        assert set(results) == set(ids)
        assert engine.metrics.arrays_launched == 1   # they fused
        assert engine.metrics.arrays_failed == 0

        reference = implicit.build_model(None,
                                         np.random.default_rng(implicit.seed))
        opt = serial_optim.Adam(reference.parameters())  # default lr
        for step in range(STEPS):
            x, y = implicit.data(step)
            opt.zero_grad()
            loss = F.cross_entropy(reference(nn.tensor(x)), y)
            loss.backward()
            opt.step()
        for (name, p_ref), (_, p_out) in zip(
                reference.named_parameters(),
                results[ids[1]].checkpoint.named_parameters()):
            np.testing.assert_allclose(p_out.data, p_ref.data,
                                       rtol=1e-4, atol=1e-6, err_msg=name)

    def test_sgd_and_adadelta_jobs_train(self):
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        ids = engine.submit_all([
            make_job(0, optimizer="sgd", lr=0.05),
            make_job(1, optimizer="adadelta", lr=0.5),
        ])
        results = engine.run_until_idle()
        assert set(results) == set(ids)
        assert engine.metrics.arrays_launched == 2  # infusible optimizers

    def test_unknown_optimizer_fails_only_its_array(self):
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        good = engine.submit(make_job(0))
        bad = engine.submit(make_job(1, optimizer="lion"))
        results = engine.run_until_idle()
        assert good in results and bad not in results
        assert engine.queue.state(bad) == JobState.FAILED
        assert engine.metrics.jobs_failed == 1
        with pytest.raises(RuntimeError, match="lion"):
            engine.queue.result(bad)

    def test_broken_data_stream_fails_only_its_array(self):
        def bad_stream(step):
            raise IOError("dataset offline")

        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        good = engine.submit(make_job(0))
        bad = engine.submit(TrainingJob(
            name="baddata", seed=9,
            config={"lr": 1e-3, "optimizer": "sgd"},  # infusible: own array
            build_model=lambda B=None, g=None: TinyMLP(8, B, g),
            data=bad_stream, steps=STEPS))
        results = engine.run_until_idle()
        assert good in results
        assert engine.queue.state(bad) == JobState.FAILED

    def test_bad_cohort_mate_quarantined_not_fatal_to_others(self):
        """A job whose data stream mismatches its cohort (same config, so
        the batcher fuses them) fails the shared array; the engine must
        retry the jobs solo so the healthy one still completes."""
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        good = engine.submit(make_job(0))
        bad = engine.submit(TrainingJob(
            name="job1_lr0.001", seed=1, steps=STEPS,
            config={"lr": 1e-3, "optimizer": "adam"},
            build_model=lambda B=None, g=None: TinyMLP(8, B, g),
            data=stream(1001, batch=BATCH + 3)))  # mismatched batch size
        results = engine.run_until_idle()
        assert good in results
        assert bad in results  # trains fine alone
        assert engine.queue.state(good) == JobState.COMPLETED
        assert engine.queue.state(bad) == JobState.COMPLETED
        assert engine.metrics.arrays_failed == 1
        # the retry trained each job in its own width-1 array
        assert [r.num_models for r in engine.metrics.records] == [1, 1]

    def test_incremental_cycles_serve_a_live_stream(self):
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        first = engine.submit(make_job(0))
        engine.run_cycle()
        assert engine.queue.state(first) == JobState.COMPLETED
        second = engine.submit(make_job(1))
        third = engine.submit(make_job(2))
        engine.run_cycle()
        assert engine.queue.state(second) == JobState.COMPLETED
        assert engine.queue.state(third) == JobState.COMPLETED
        assert engine.metrics.arrays_launched == 2
        assert engine.metrics.records[1].num_models == 2


# --------------------------------------------------------------------- #
class TestRuntimeMetrics:
    def test_aggregates(self):
        metrics = RuntimeMetrics()
        for job_id in range(5):
            metrics.record_event(Event("submit", (job_id,)))
        for job_id in range(5):
            metrics.record_event(Event("retire", (job_id,),
                                       data=("budget", 10)))
        metrics.record_event(Event("array", data=ArrayRecord(
            array_id=0, num_models=4, width_cap=4,
            steps=10, samples=400, seconds=2.0, slot_steps_total=40)))
        metrics.record_event(Event("array", data=ArrayRecord(
            array_id=1, num_models=1, width_cap=4,
            steps=10, samples=100, seconds=1.0, slot_steps_total=10)))
        metrics.record_event(Event("fail", (5,)))

        assert metrics.jobs_submitted == 5
        assert metrics.jobs_completed == 5
        assert metrics.jobs_failed == 1
        assert metrics.arrays_launched == 2
        assert metrics.models_per_array == 2.5
        assert metrics.occupancy == pytest.approx((1.0 + 0.25) / 2)
        assert metrics.serial_steps_saved == 30
        assert metrics.throughput == pytest.approx(500 / 3.0)

        rows, header = metrics.report()
        assert len(rows) == 2
        assert len(rows[0]) == len(header)
        as_dict = metrics.as_dict()
        assert as_dict["arrays_launched"] == 2
        assert as_dict["throughput_samples_per_s"] == metrics.throughput

    def test_empty_metrics_are_well_defined(self):
        metrics = RuntimeMetrics()
        assert metrics.throughput == 0.0
        assert metrics.occupancy == 0.0
        assert metrics.models_per_array == 0.0
