"""The template-free control plane, checked by counts rather than clocks.

Scheduling a job never builds a model: the batcher's structural signature
(funnel level 2) is memoized per ``build_model`` callable, a job's template
is built where a real array first touches tensors and memoized on the
submission, the simulation backend builds none at all, and the cost model
behind placement is priced once per process.  What must *not* change is
any decision, and the safety net below the assumption "one builder, one
structure" — ``validate_fusibility`` at every real launch and admission —
must still catch a builder that breaks it.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import (ServingTraceConfig, TenantLoad,
                           generate_serving_trace)
from repro.hwsim import (MAJOR_WORKLOADS, V100, estimate_array_cost,
                         get_workload, sharing)
from repro.runtime import engine as engine_module
from repro.runtime import (Batcher, CheckpointStore, DEFAULT_FLEET,
                           FleetScheduler, JobQueue, JobState,
                           RecoveryManager, ServingGateway, TenantSpec,
                           TraceReplayer, TrainingArrayEngine, TrainingJob,
                           synthetic_fleet)

from .conftest import (SIM_CLASSES, SIM_FEATURES, SimNet, build_sim_model,
                       sim_data)

BATCH = 4


def real_stream(seed, steps):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, SIM_FEATURES))
                .astype(np.float32),
                rng.integers(0, SIM_CLASSES, size=BATCH))
               for _ in range(steps)]
    return lambda step: batches[step]


def real_job(index, build_model, steps=4, **kwargs):
    return TrainingJob(name=f"tf{index}", build_model=build_model,
                       data=real_stream(9_000 + index, steps), steps=steps,
                       epoch_steps=2, seed=index,
                       config={"lr": 1e-3 * (index + 1)}, **kwargs)


def first_draw(seed):
    return int(np.random.default_rng(seed).integers(1 << 30))


# --------------------------------------------------------------------- #
# (a) the cache changes cost, never decisions
# --------------------------------------------------------------------- #
class CountingBuilder:
    def __init__(self):
        self.calls = 0

    def __call__(self, num_models=None, generator=None):
        self.calls += 1
        return build_sim_model(num_models, generator)


def replay_sim_trace(builder_for):
    """Replay one 300-arrival trace on a sim fleet; ``builder_for(event)``
    is each job's ``build_model``.  Returns the decision log."""
    trace = generate_serving_trace(ServingTraceConfig(
        num_jobs=300, duration_s=1800.0, seed=11,
        tenants=(TenantLoad("batch", share=5.0),
                 TenantLoad("prio", share=2.0, priority=2,
                            deadline_s=3600.0, deadline_rate=1.0)),
        mean_burst_size=8.0, max_burst_size=24,
        workloads=("pointnet_cls", "transformer_lm"),
        steps_choices=(4, 8), epoch_steps_choices=(2,)))

    def factory(event):
        return TrainingJob(
            name=event.name, build_model=builder_for(event), data=sim_data,
            steps=event.steps, epoch_steps=event.epoch_steps,
            seed=event.seed, tenant=event.tenant, user=event.user,
            priority=event.priority, workload=event.workload)

    gateway = ServingGateway(
        tenants=(TenantSpec("batch", weight=1.0),
                 TenantSpec("prio", weight=4.0, priority=2)),
        max_pending=301, devices=synthetic_fleet(8), max_width=8,
        execution="sim")
    gateway.metrics.enable_event_log()
    results = TraceReplayer(gateway, trace, factory,
                            cycle_quantum_s=120.0).run()
    assert len(results) == 300
    # a simulated job has no weights
    assert all(result.checkpoint is None for result in results.values())
    return gateway.metrics.decisions()


class TestSchedulingBuildsNoModels:
    def test_shared_builder_is_priced_once_and_decides_the_same(self):
        shared = CountingBuilder()
        shared_log = replay_sim_trace(lambda event: shared)
        assert shared.calls <= 1

        fresh = []

        def fresh_builder(event):
            fresh.append(CountingBuilder())
            return fresh[-1]

        fresh_log = replay_sim_trace(fresh_builder)
        # a per-job-fresh builder pays one template each (never more) ...
        assert [b.calls for b in fresh] == [1] * 300
        # ... and schedules exactly as the shared one does
        assert fresh_log == shared_log
        assert {"dequeue", "place", "retire"} <= {k for k, _ in shared_log}

    def test_real_jobs_build_their_template_exactly_once(self):
        shared = CountingBuilder()
        engine = TrainingArrayEngine()
        engine.submit_all([real_job(i, shared) for i in range(4)])
        results = engine.run_until_idle()
        assert len(results) == 4
        assert engine.metrics.arrays_launched == 1
        # four templates and one width-4 fused model
        assert shared.calls == 5

    def test_retiring_without_a_store_exports_no_state_dict(
            self, monkeypatch):
        exported = []
        monkeypatch.setattr(
            SimNet, "state_dict",
            lambda self, *a, **k: exported.append(self) or {})
        engine = TrainingArrayEngine()          # no store
        engine.submit_all([real_job(i, build_sim_model) for i in range(3)])
        assert len(engine.run_until_idle()) == 3
        assert exported == []


# --------------------------------------------------------------------- #
# (b) level 3 still guards what level 2 now assumes
# --------------------------------------------------------------------- #
class SeedShaped:
    """One builder, but the hidden width comes from the job's seed (the
    fused model follows the last template built)."""

    hidden = None

    @staticmethod
    def hidden_for(seed):
        return 2 + first_draw(seed) % 3

    def __call__(self, num_models=None, generator=None):
        if num_models is None:
            self.hidden = 2 + int(generator.integers(1 << 30)) % 3
        return SimNet(self.hidden, num_models, generator)


def test_seed_dependent_structure_is_caught_at_launch_and_retried_solo():
    builder = SeedShaped()
    hidden = [builder.hidden_for(seed) for seed in range(4)]
    assert len(set(hidden)) > 1              # the builder does break level 2

    engine = TrainingArrayEngine()
    ids = engine.submit_all([real_job(i, builder) for i in range(4)])
    results = engine.run_until_idle()

    # one builder, one cohort; validate_fusibility refused the launch
    assert engine.metrics.arrays_failed == 1
    assert engine.metrics.jobs_failed == 0
    for job_id, width in zip(ids, hidden):
        assert engine.queue.state(job_id) == JobState.COMPLETED
        result = results[job_id]
        assert result.array_width == 1       # quarantined, retrained solo
        assert result.checkpoint.fc1.bias.shape[0] == width
        assert result.steps_trained == 4


def test_seed_dependent_structure_is_refused_admission(monkeypatch):
    """The admission half: a candidate whose real template differs from
    the live array's is turned away by level 3, the array trains on."""
    verdicts = []

    def spy(models, check=engine_module.validate_fusibility):
        try:
            check(models)
        except ValueError:
            verdicts.append((len(models), "refused"))
            raise
        verdicts.append((len(models), "fusible"))

    monkeypatch.setattr(engine_module, "validate_fusibility", spy)
    builder = SeedShaped()
    same = [s for s in range(40) if builder.hidden_for(s) == 2][:2]
    other = next(s for s in range(40) if builder.hidden_for(s) == 3)
    jobs = [TrainingJob(name=f"ad{i}", build_model=builder,
                        data=real_stream(seed, 8), steps=8, epoch_steps=2,
                        seed=seed,
                        stop=(lambda epochs, curve: True) if i == 0
                        else None)
            for i, seed in enumerate(same + [other])]
    engine = TrainingArrayEngine()
    ids = engine.submit_all(jobs)
    # two jobs launch; the first stops after one epoch and frees a slot
    # that the third (a different structure) then asks to board
    results = {r.job_id: r for r in engine.run_cycle(max_jobs=2)}
    results.update(engine.run_until_idle())

    # launch of two, the refused boarding (live slot + newcomer), solo launch
    assert verdicts == [(2, "fusible"), (2, "refused"), (1, "fusible")]
    assert engine.metrics.jobs_admitted == 0
    assert engine.metrics.arrays_failed == 0
    assert [engine.queue.state(i) for i in ids] == [JobState.COMPLETED] * 3
    assert results[ids[1]].steps_trained == 8
    assert results[ids[2]].checkpoint.fc1.bias.shape[0] == 3


# --------------------------------------------------------------------- #
# (c) a builder that raises for one job of a shared builder
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("position", [0, 2])
def test_one_failing_build_fails_one_job_and_its_mates_still_fuse(position):
    poisoned = first_draw(position)

    def build(num_models=None, generator=None):
        if generator is not None and \
                int(generator.integers(1 << 30)) == poisoned:
            raise RuntimeError("corrupt init")
        return build_sim_model(num_models, generator)

    fleet = FleetScheduler(devices=(V100,), max_width=4)
    ids = fleet.submit_all([real_job(i, build) for i in range(4)])
    results = fleet.run_until_idle()

    bad = fleet.queue.get(ids[position])
    assert bad.state == JobState.FAILED
    assert bad.error == "build_model failed: corrupt init"
    mates = [i for i in ids if i != ids[position]]
    assert sorted(results) == mates
    assert fleet.metrics.arrays_launched == 1
    assert fleet.metrics.arrays_failed == 0
    assert fleet.metrics.jobs_failed == 1
    assert {results[i].array_id for i in mates} == {results[mates[0]].array_id}
    assert {results[i].array_width for i in mates} == {3}


# --------------------------------------------------------------------- #
# (d) a resumed job boards with its checkpointed weights
# --------------------------------------------------------------------- #
class TestResumeSeedsTheTemplate:
    def test_template_is_seeded_from_the_resume_payload(self, tmp_path):
        store = CheckpointStore(tmp_path)
        engine = TrainingArrayEngine(store=store, checkpoint_every=1)
        (job_id,) = engine.submit_all([real_job(0, build_sim_model)])
        trained = engine.run_until_idle()[job_id].checkpoint

        queue = JobQueue()
        queue.submit(real_job(0, build_sim_model))
        (sub,) = queue.pop_pending()
        fresh = Batcher.build_template(sub)
        assert Batcher.build_template(sub) is fresh        # memoized
        assert not np.array_equal(fresh.fc1.weight.data,
                                  trained.fc1.weight.data)

        sub.template = None
        sub.resume = store.load_slot(job_id).resume_state()
        resumed = Batcher.build_template(sub)
        for (name, p), (_, q) in zip(resumed.named_parameters(),
                                     trained.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)

    def test_rebuilt_fleet_resumes_bit_identical_with_a_shared_builder(
            self, tmp_path):
        """Process death mid-array, jobs of one shared builder: nothing is
        built to schedule the recovered jobs, and the templates built at
        their launch start from the checkpointed weights."""
        class Murder(BaseException):
            pass

        def jobs(trigger=None):
            made = [real_job(i, build_sim_model, steps=8) for i in range(4)]
            if trigger is not None:
                def dying(step, inner=made[0].data):
                    if step == 4 and trigger:
                        trigger.pop()
                        raise Murder()
                    return inner(step)
                made[0].data = dying
            return made

        def params(results):
            return {r.name: [p.data.copy() for p in
                             r.checkpoint.parameters()]
                    for r in results.values()}

        reference = FleetScheduler(devices=(V100,), max_width=4)
        reference.submit_all(jobs())
        expected = params(reference.run_until_idle())

        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        fleet = FleetScheduler(devices=(V100,), max_width=4, store=store,
                               checkpoint_every=1, recovery=recovery)
        fleet.submit_all(jobs(trigger=[True]))
        fleet.run_cycle()
        del fleet                                  # the process "dies"

        rebuilt = recovery.rebuild_fleet(
            {job.name: job for job in jobs()}, devices=(V100,),
            store=store, recovery=recovery, checkpoint_every=1, max_width=4)
        pending = rebuilt.queue.pending_jobs()
        assert all(sub.resume.progress == 4 for sub in pending)
        actual = params(rebuilt.run_until_idle())
        assert rebuilt.metrics.jobs_recovered == 4
        assert set(actual) == set(expected)
        for name, arrays in expected.items():
            for got, want in zip(actual[name], arrays):
                np.testing.assert_array_equal(got, want, err_msg=name)


# --------------------------------------------------------------------- #
# (e) the cost model is priced once per process
# --------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class Probe:
    num_models: int
    steps: int = 1


class TestProcessWideCostMemo:
    def test_memo_equals_a_fresh_simulation(self):
        for name in MAJOR_WORKLOADS:
            workload = get_workload(name)
            for device in DEFAULT_FLEET:
                for width in range(1, 9):
                    fresh = sharing.simulate(workload, device, "hfta",
                                             width, "amp")
                    for _ in range(2):           # a miss, then a hit
                        est = estimate_array_cost(
                            Probe(width, steps=3), device, "amp",
                            workload=workload)
                        assert (est.workload, est.device, est.num_models,
                                est.steps) == (name, device.name, width, 3)
                        assert est.precision == fresh.precision
                        assert est.fits == fresh.fits
                        assert est.iteration_time_s == fresh.iteration_time_s
                        assert est.throughput == fresh.throughput
                        assert est.memory_gb == fresh.memory_gb
                        assert est.train_seconds == \
                            3 * fresh.iteration_time_s

    def test_same_named_workload_variants_do_not_alias(self):
        base = get_workload("pointnet_cls")
        small = dataclasses.replace(base, kernels=base.kernels[:8])
        large = dataclasses.replace(base, kernels=base.kernels * 2)
        assert small.name == large.name == base.name
        costs = [estimate_array_cost(Probe(4), V100, "amp", workload=w)
                 .iteration_time_s for w in (small, base, large)]
        assert costs[0] < costs[1] < costs[2]
        for workload, cost in zip((small, base, large), costs):
            assert cost == sharing.simulate(
                workload, V100, "hfta", 4, "amp").iteration_time_s

    def test_renamed_replicas_share_an_entry(self, monkeypatch):
        simulated = []
        real_simulate = sharing.simulate

        def counting(workload, device, *args, **kwargs):
            simulated.append(device.name)
            return real_simulate(workload, device, *args, **kwargs)

        monkeypatch.setattr(sharing, "simulate", counting)
        workload = dataclasses.replace(get_workload("dcgan"))   # unseen
        replicas = synthetic_fleet(8, base=(V100,))
        estimates = [estimate_array_cost(Probe(2), device, "amp",
                                         workload=workload)
                     for device in replicas]
        assert simulated == [replicas[0].name]
        assert [e.device for e in estimates] == [d.name for d in replicas]
        assert len({e.iteration_time_s for e in estimates}) == 1
