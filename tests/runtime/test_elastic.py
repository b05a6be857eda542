"""Tests for the elastic array lifecycle: stepwise execution, stop signals,
live eviction and freed-width admission.

The invariant under test everywhere: elasticity changes *when and with
whom* a job trains — never what it learns.  Every exported checkpoint
(evicted early or trained to budget, admitted mid-flight or launched
normally) must match serial training of the same job for the same number
of steps, in parameters *and buffers*.
"""

import numpy as np

from repro import nn, optim as serial_optim
from repro.hfta.ops.factory import OpsLibrary
from repro.hfht import MedianStopper, SuccessiveHalvingStopper
from repro.hwsim import RTX6000, V100
from repro.nn import functional as F
from repro.runtime import (ArrayPolicy, ArrayState, FleetPlacer,
                           FleetScheduler, JobState, PlacementDecision,
                           StopReason, TrainingArrayEngine, TrainingJob)

STEPS = 4
BATCH = 6
CLASSES = 3
FEATURES = 10
CHANNELS = 4


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


class TinyCNN(nn.Module):
    """Conv + BatchNorm model: exercises buffer (running stats) movement
    through eviction — the regression surface of export_to_unfused."""

    def __init__(self, channels=CHANNELS, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        # bias=False: BatchNorm cancels the conv bias, so with a bias Adam
        # amplifies float noise in that direction and fused-vs-serial
        # checkpoints drift even without elasticity (see verify notes)
        self.conv = lib.Conv2d(3, channels, 3, padding=1, bias=False,
                               generator=generator)
        self.bn = lib.BatchNorm2d(channels)
        self.relu = lib.ReLU()
        self.pool = lib.AdaptiveAvgPool2d(1)
        self.fc = lib.Linear(channels, CLASSES, generator=generator)

    def fuse_inputs(self, inputs):
        return self.lib.fuse_conv_inputs(inputs)

    def forward(self, x):
        x = self.pool(self.relu(self.bn(self.conv(x))))
        return self.fc(self.lib.conv_to_dense(x))


def mlp_stream(seed, steps=STEPS, batch=BATCH):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((batch, FEATURES)).astype(np.float32),
                rng.integers(0, CLASSES, size=batch))
               for _ in range(steps)]
    return lambda step: batches[step]


def cnn_stream(seed, steps=STEPS):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, 3, 5, 5)).astype(np.float32),
                rng.integers(0, CLASSES, size=BATCH))
               for _ in range(steps)]
    return lambda step: batches[step]


def make_job(index, lr=1e-3, steps=STEPS, model="mlp", **kwargs):
    config = {"lr": lr, "optimizer": kwargs.pop("optimizer", "adam")}
    if model == "mlp":
        build = lambda B=None, g=None: TinyMLP(8, B, g)    # noqa: E731
        data = kwargs.pop("data", None) or mlp_stream(1000 + index, steps)
    else:
        build = lambda B=None, g=None: TinyCNN(CHANNELS, B, g)  # noqa: E731
        data = kwargs.pop("data", None) or cnn_stream(1000 + index, steps)
    return TrainingJob(name=f"{model}job{index}_lr{lr}", seed=index,
                       steps=steps, config=config, build_model=build,
                       data=data, **kwargs)


def train_serial_reference(job, steps):
    """What serial training of ``job`` for ``steps`` steps produces."""
    model = job.build_model(None, np.random.default_rng(job.seed))
    opt = serial_optim.Adam(model.parameters(), lr=job.config["lr"])
    for step in range(steps):
        x, y = job.data(step)
        opt.zero_grad()
        loss = F.cross_entropy(model(nn.tensor(x)), y)
        loss.backward()
        opt.step()
    return model


def assert_checkpoint_matches(result, job, rtol=1e-4, atol=1e-6):
    """Default tolerances fit dense models; conv models pass looser ones
    (grouped convolution sums in a different order than serial conv — the
    same tolerance convention as tests/integration/test_convergence.py)."""
    reference = train_serial_reference(job, result.steps_trained)
    for (name, p_ref), (_, p_out) in zip(
            reference.named_parameters(),
            result.checkpoint.named_parameters()):
        np.testing.assert_allclose(p_out.data, p_ref.data, rtol=rtol,
                                   atol=atol,
                                   err_msg=f"{result.name} {name}")
    for (name, b_ref), (_, b_out) in zip(reference.named_buffers(),
                                         result.checkpoint.named_buffers()):
        if b_ref is None:
            continue
        np.testing.assert_allclose(b_out, b_ref, rtol=rtol, atol=atol,
                                   err_msg=f"{result.name} buffer {name}")


stop_after = lambda n: (lambda epochs, curve: epochs >= n)   # noqa: E731


# --------------------------------------------------------------------- #
class TestElasticEngine:
    def test_early_stopped_jobs_are_evicted_and_serial_equivalent(self):
        jobs = [make_job(i, stop=stop_after(1) if i < 2 else None)
                for i in range(5)]
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=8))
        ids = engine.submit_all(jobs)
        results = engine.run_until_idle()

        assert len(results) == 5
        assert engine.metrics.jobs_evicted == 2
        assert engine.metrics.arrays_launched == 1
        for job, job_id in zip(jobs, ids):
            result = results[job_id]
            expected = 1 if job.stop else STEPS
            assert result.steps_trained == expected
            assert len(result.loss_curve) == expected
            assert_checkpoint_matches(result, job)
        evicted = [results[i] for i in ids[:2]]
        assert all(r.evicted and r.stop_reason == StopReason.EARLY_STOP
                   for r in evicted)

    def test_eviction_exports_batchnorm_buffers_per_slot(self):
        """Regression (export_to_unfused): an evicted conv+BN job's
        checkpoint must carry *its own* running stats, exactly as serial
        training would have left them at the eviction step."""
        jobs = [make_job(i, model="cnn",
                         stop=stop_after(2) if i == 1 else None)
                for i in range(4)]
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        ids = engine.submit_all(jobs)
        results = engine.run_until_idle()

        assert engine.metrics.jobs_evicted == 1
        assert results[ids[1]].steps_trained == 2
        for job, job_id in zip(jobs, ids):
            result = results[job_id]
            checkpoint = dict(result.checkpoint.named_buffers())
            assert "bn.running_mean" in checkpoint   # buffers came along
            assert not np.allclose(checkpoint["bn.running_mean"], 0.0)
            # conv reductions sum in a different order than serial — the
            # repo-wide conv tolerance (tests/integration) applies
            assert_checkpoint_matches(result, job, rtol=1e-3, atol=1e-4)

    def test_target_loss_convergence_evicts(self):
        converger = make_job(0, target_loss=1e9)   # converged after step 1
        runner = make_job(1)
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        ids = engine.submit_all([converger, runner])
        results = engine.run_until_idle()
        assert results[ids[0]].stop_reason == StopReason.CONVERGED
        assert results[ids[0]].steps_trained == 1
        assert results[ids[1]].steps_trained == STEPS
        assert_checkpoint_matches(results[ids[0]], converger)

    def test_cancel_queued_job_never_trains(self):
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        keep = engine.submit(make_job(0))
        cancel = engine.submit(make_job(1))
        assert engine.cancel(cancel)
        results = engine.run_until_idle()
        assert keep in results and cancel not in results
        assert engine.queue.state(cancel) == JobState.CANCELLED
        assert engine.queue.result(cancel) is None

    def test_cancel_running_job_evicts_with_partial_checkpoint(self):
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        victim_id = []

        def cancel_victim(epochs, curve):
            if epochs >= 2:
                engine.cancel(victim_id[0])
            return False

        victim = make_job(0)
        trigger = make_job(1, stop=cancel_victim)
        ids = engine.submit_all([victim, trigger])
        victim_id.append(ids[0])
        results = engine.run_until_idle()

        assert engine.queue.state(ids[0]) == JobState.CANCELLED
        assert engine.metrics.jobs_cancelled == 1
        cancelled = results[ids[0]]
        assert cancelled.stop_reason == StopReason.CANCELLED
        assert cancelled.steps_trained < STEPS
        assert_checkpoint_matches(cancelled, victim)
        assert results[ids[1]].steps_trained == STEPS

    def test_cancel_unknown_job_id_returns_false(self):
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        assert engine.cancel(12345) is False

    def test_cancel_queued_job_is_counted(self):
        """Regression: a job cancelled straight out of the queue must show
        up in jobs_cancelled (the executor never sees it)."""
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        job_id = engine.submit(make_job(0))
        assert engine.cancel(job_id)
        assert engine.metrics.jobs_cancelled == 1
        assert not engine.cancel(job_id)          # idempotent
        assert engine.metrics.jobs_cancelled == 1

    def test_failed_array_keeps_the_record_of_its_completed_work(self):
        """Regression: a width-2 array whose surviving slot's data stream
        breaks after a cohort-mate was already evicted must still record
        the eviction's completions and slot-steps."""
        def breaking_stream(seed):
            inner = mlp_stream(seed, steps=6)

            def data(step):
                if step >= 3:
                    raise IOError("dataset offline")
                return inner(step)
            return data

        early = make_job(0, steps=6, stop=stop_after(1))
        doomed = make_job(1, steps=6, data=breaking_stream(2000))
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=2))
        ids = engine.submit_all([early, doomed])
        results = engine.run_until_idle()

        assert ids[0] in results                   # evicted with checkpoint
        assert engine.queue.state(ids[0]) == JobState.COMPLETED
        assert engine.queue.state(ids[1]) == JobState.FAILED
        assert engine.metrics.jobs_completed == 1  # the evicted job counts
        assert engine.metrics.jobs_failed == 1
        failed_array = engine.metrics.records[0]
        assert failed_array.slot_steps_total > 0
        assert_checkpoint_matches(results[ids[0]], early)

    def test_cancelled_only_array_counts_no_completions(self):
        """Regression: an array whose only job was cancelled must not fall
        back to counting its launch width as completions."""
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        trigger = []

        def cancel_self(epochs, curve):
            if epochs >= 1:
                engine.cancel(trigger[0])
            return False

        trigger.append(engine.submit(make_job(0, stop=cancel_self)))
        engine.run_until_idle()
        assert engine.metrics.jobs_cancelled == 1
        assert engine.metrics.jobs_completed == 0
        assert engine.metrics.arrays_launched == 1

    def test_elastic_mode_frees_the_width_static_mode_wastes(self):
        jobs = [make_job(i, stop=stop_after(1) if i < 2 else None)
                for i in range(4)]
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        engine.submit_all(jobs)
        engine.run_until_idle()
        assert engine.metrics.fused_width_efficiency == 1.0
        assert engine.metrics.jobs_evicted == 2
        record = engine.metrics.records[0]
        assert record.slot_steps_total == 4 + 2 * (STEPS - 1)
        assert engine.metrics.arrays_launched == 1

    def test_queued_job_is_admitted_into_freed_width(self):
        jobs = [make_job(i, steps=6, stop=stop_after(1) if i < 2 else None)
                for i in range(4)]
        late = make_job(9, steps=6)
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        ids = engine.submit_all(jobs)
        late_id = engine.submit(late)

        results = {r.job_id: r for r in engine.run_cycle(max_jobs=4)}
        results.update(engine.run_until_idle())

        assert engine.metrics.jobs_admitted == 1
        assert engine.metrics.arrays_launched == 1   # one array served all 5
        assert results[late_id].array_id == results[ids[0]].array_id
        assert results[late_id].steps_trained == 6
        assert_checkpoint_matches(results[late_id], late)
        for job, job_id in zip(jobs, ids):
            assert_checkpoint_matches(results[job_id], job)

    def test_incompatible_queued_jobs_are_not_admitted(self):
        jobs = [make_job(i, steps=6, stop=stop_after(1) if i == 0 else None)
                for i in range(3)]
        alien = make_job(7, steps=6, optimizer="sgd", lr=0.05)
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        ids = engine.submit_all(jobs)
        alien_id = engine.submit(alien)
        results = {r.job_id: r for r in engine.run_cycle(max_jobs=3)}
        results.update(engine.run_until_idle())

        assert engine.metrics.jobs_admitted == 0
        assert engine.metrics.arrays_launched == 2
        assert results[alien_id].array_id != results[ids[1]].array_id
        assert_checkpoint_matches(results[ids[0]], jobs[0])

    def test_executor_state_machine_transitions(self):
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        engine.submit_all([make_job(i, stop=stop_after(1) if i == 0 else None)
                           for i in range(3)])
        batch = engine.queue.pop_pending()
        cohorts, _ = engine.batcher.form_cohorts(batch)
        (plan,) = engine.policy.plan(cohorts)
        executor = engine.make_executor(plan)

        assert executor.state == ArrayState.PENDING
        executor.prepare()
        assert executor.state == ArrayState.FUSED
        assert executor.live_width == 3

        retired = executor.step_epoch()          # epoch 1: one eviction
        assert [r.stop_reason for r in retired] == [StopReason.EARLY_STOP]
        assert executor.state == ArrayState.STEPPING
        assert executor.live_width == 2
        assert executor.freed_width == 2         # width cap 4, 2 live

        while not executor.done:
            executor.step_epoch()
        assert executor.state == ArrayState.DRAINED
        assert executor.live_width == 0


# --------------------------------------------------------------------- #
class TestElasticFleet:
    def test_eviction_frees_width_that_a_queued_job_occupies(self):
        """The headline scenario: an 8-job array, 3 jobs early-stop at
        epoch 1, and a queued 9th job boards the freed width — with every
        checkpoint (evicted, full-budget, and admitted) matching serial
        training exactly."""
        jobs = [make_job(i, steps=6, stop=stop_after(1) if i < 3 else None)
                for i in range(8)]
        queued = make_job(8, steps=6)
        fleet = FleetScheduler(devices=(V100,), max_width=8)
        ids = fleet.submit_all(jobs)
        queued_id = fleet.submit(queued)

        results = {r.job_id: r for r in fleet.run_cycle(max_jobs=8)}
        results.update(fleet.run_until_idle())

        assert len(results) == 9
        assert fleet.metrics.jobs_evicted == 3
        assert fleet.metrics.jobs_admitted == 1
        assert fleet.metrics.arrays_launched == 1
        assert results[queued_id].array_id == results[ids[0]].array_id
        for job_id in ids[:3]:
            assert results[job_id].steps_trained == 1
            assert results[job_id].evicted
        for job, job_id in list(zip(jobs, ids)) + [(queued, queued_id)]:
            assert fleet.queue.state(job_id) == JobState.COMPLETED
            assert_checkpoint_matches(results[job_id], job)

    def test_early_stopped_arrays_drain_on_the_device_they_launched_on(self):
        """Two devices each hold a 4-wide array; 2 jobs of each early-stop
        at epoch 1, leaving two half-empty arrays and an empty queue.  Each
        array keeps training at width 2 on its own device until it drains:
        nothing merges, and every checkpoint still matches serial
        training."""
        class AlternatingPlacer(FleetPlacer):
            """Pin chunk k to device k%2 so the arrays sit on two devices."""

            def place(self, cohorts, load=None):
                pinned = []
                for i, d in enumerate(super().place(cohorts, load)):
                    device = self.devices[i % len(self.devices)]
                    estimate = self.estimate(d.plan, device)
                    d.plan.device = device.name
                    d.plan.projected_seconds = estimate.train_seconds
                    pinned.append(PlacementDecision(
                        plan=d.plan, device=device, estimate=estimate))
                return pinned

        steps = 12
        jobs = [make_job(i, steps=steps,
                         stop=stop_after(1) if i in (0, 1, 4, 5) else None)
                for i in range(8)]
        fleet = FleetScheduler(
            devices=(V100, RTX6000),
            placer=AlternatingPlacer(devices=(V100, RTX6000), max_width=4))
        fleet.metrics.enable_event_log()
        ids = fleet.submit_all(jobs)
        results = fleet.run_until_idle()

        assert len(results) == 8
        assert fleet.metrics.jobs_completed == 8
        assert fleet.metrics.jobs_evicted == 4
        assert fleet.metrics.arrays_launched == 2
        assert fleet.metrics.arrays_merged == 0
        assert sorted(r.device for r in fleet.metrics.records) == \
            ["RTX6000", "V100"]
        for record in fleet.metrics.records:
            assert record.slot_steps_total == 4 + 2 * (steps - 1)
        devices_of = {job_id: set() for job_id in ids}
        for event in fleet.metrics.events:
            for job_id in event.job_ids:
                if event.device:
                    devices_of[job_id].add(event.device)
        assert all(len(devices) == 1 for devices in devices_of.values())
        assert {results[i].array_id for i in ids[:4]} != \
            {results[i].array_id for i in ids[4:]}
        for job, job_id in zip(jobs, ids):
            expected = 1 if job.stop else steps
            assert results[job_id].steps_trained == expected
            assert_checkpoint_matches(results[job_id], job)

    def test_half_empty_arrays_on_one_device_drain_separately(self):
        """Two compatible 4-wide arrays queued on one device each lose 2
        jobs at epoch 1.  The queue holds nothing to board the freed
        width, so each array finishes at width 2 — the second is not
        folded into the first."""
        steps = 6
        jobs = [make_job(i, steps=steps,
                         stop=stop_after(1) if i in (0, 1, 4, 5) else None)
                for i in range(8)]
        fleet = FleetScheduler(devices=(V100,), max_width=4)
        ids = fleet.submit_all(jobs)
        results = fleet.run_until_idle()

        assert len(results) == 8
        assert fleet.metrics.jobs_completed == 8
        assert fleet.metrics.jobs_evicted == 4
        assert fleet.metrics.jobs_admitted == 0
        assert fleet.metrics.arrays_launched == 2
        assert fleet.metrics.arrays_merged == 0
        for record in fleet.metrics.records:
            assert record.slot_steps_total == 4 + 2 * (steps - 1)
        for job, job_id in zip(jobs, ids):
            expected = 1 if job.stop else steps
            assert results[job_id].steps_trained == expected
            assert_checkpoint_matches(results[job_id], job)


# --------------------------------------------------------------------- #
class TestHfhtStopSignals:
    def test_median_stopper_kills_the_worst_trial(self):
        stopper = MedianStopper(warmup_epochs=1, min_trials=3)
        signals = {i: stopper.signal(i) for i in range(4)}
        curves = {0: [0.1], 1: [0.2], 2: [0.3], 3: [9.0]}
        # epoch 1: warmup, nobody stops
        assert not any(signals[i](1, curves[i]) for i in range(4))
        for i, c in curves.items():
            c.append(c[-1] * 0.9)
        # epoch 2: the outlier is above the median of its peers (which
        # needs min_trials peers to have reported the epoch first)
        assert not signals[0](2, curves[0])
        assert not signals[1](2, curves[1])
        assert not signals[2](2, curves[2])
        assert signals[3](2, curves[3])
        assert signals[3](3, curves[3])   # stays stopped

    def test_successive_halving_stops_losers_at_rungs(self):
        stopper = SuccessiveHalvingStopper(eta=2, min_epochs=1)
        signals = {i: stopper.signal(i) for i in range(4)}
        losses = {0: [0.1], 1: [0.2], 2: [0.3], 3: [0.4]}
        decisions = {}
        for i in (0, 1, 2, 3):
            decisions[i] = signals[i](1, losses[i])
        # rung at epoch 1: keep ceil(n/2) best of those seen at decision
        # time; the best trial always survives, the worst always stops
        assert not decisions[0]
        assert decisions[3]

    def test_median_stopper_drives_eviction_in_an_array(self):
        """End to end: the hfht early-stop signal wired into TrainingJob
        evicts the diverging trial from the fused array."""
        stopper = MedianStopper(warmup_epochs=1, min_trials=3)
        # four "trials": one with a catastophic learning rate diverges
        lrs = [1e-3, 1e-3, 1e-3, 30.0]
        jobs = [TrainingJob(
            name=f"trial{i}_lr{lr}", seed=i, steps=8,
            config={"lr": lr, "optimizer": "sgd"},
            build_model=lambda B=None, g=None: TinyMLP(8, B, g),
            data=mlp_stream(2000 + i, 8), stop=stopper.signal(i))
            for i, lr in enumerate(lrs)]
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        ids = engine.submit_all(jobs)
        results = engine.run_until_idle()

        assert engine.metrics.jobs_evicted >= 1
        diverged = results[ids[3]]
        assert diverged.stop_reason == StopReason.EARLY_STOP
        assert diverged.steps_trained < 8
        healthy = results[ids[0]]
        assert healthy.steps_trained == 8
