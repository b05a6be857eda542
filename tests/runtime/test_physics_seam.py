"""The lifecycle / physics seam, driven with a third physics.

``ArrayExecutor`` owns slots, progress, stop signals, accounting and
checkpoint cadence; the one ``physics`` object it holds owns the tensors,
behind seven methods.  ``FusedPhysics`` (numpy training) and ``SimPhysics``
(cost-model projection) are two implementations; this suite scripts a
third, tensor-free one — :class:`RecordingPhysics` — and asserts the exact
sequence of calls the lifecycle makes across every transition, and that
faults raised behind the seam are isolated the way the engine promises.
Fault-schedule search (ROADMAP item 6) grows from this harness.
"""

from repro.runtime import (ArrayPolicy, ArrayState, CheckpointStore, JobState,
                           TrainingArrayEngine, TrainingJob)
from repro.runtime.engine import Stepped

from .conftest import build_sim_model, sim_data


class RecordingPhysics:
    """Holds job ids instead of tensors; replays scripted losses."""

    def __init__(self, seam):
        self.seam = seam
        self.ids = []

    def build(self, subs, mate=None):
        self.ids = [sub.job_id for sub in subs]
        self.seam.log.append(("build", tuple(self.ids),
                              mate.job_id if mate is not None else None))
        return list(subs)

    def whole(self, subs):
        return False

    def start(self, slots, steps):
        # the lifecycle's slot order is the physics' slot order, always
        assert [slot.sub.job_id for slot in slots] == self.ids
        self.seam.log.append(("step", len(slots), steps))
        self.seam.steps_seen += 1
        if self.seam.steps_seen == self.seam.fail_step_number:
            raise RuntimeError("injected step fault")
        for slot in slots:
            slot.curve.extend(self.seam.loss(slot.job, slot.progress + i)
                              for i in range(steps))
        return Stepped(0.25, 10 * len(slots) * steps)

    def take(self, indices):
        self.seam.log.append(("take", tuple(indices)))
        taken = RecordingPhysics(self.seam)
        taken.ids = [self.ids[i] for i in indices]
        return taken

    def absorb(self, other):
        self.seam.log.append(("absorb", len(self.ids), len(other.ids)))
        if self.seam.fail_absorb:
            raise RuntimeError("injected absorb fault")
        self.ids += other.ids
        other.ids = []

    def export(self, index, slot):
        assert slot.sub.job_id == self.ids[index]
        self.seam.log.append(("export", index, slot.sub.job_id))

        def durable():
            self.seam.log.append(("durable", slot.sub.job_id))
            return {}, {}
        return None, durable

    def load_resume(self, index, resume):
        self.seam.log.append(("load_resume", index))


class Seam:
    """The physics factory an engine is pointed at, plus the shared call
    log, the loss script and the fault switches."""

    def __init__(self, losses=None):
        self.log = []
        self.losses = losses or {}
        self.fail_absorb = False
        self.fail_step_number = None     # 1-based, counted across arrays
        self.steps_seen = 0

    def __call__(self, engine, plan):
        return RecordingPhysics(self)

    def loss(self, job, step):
        return self.losses.get(job.name, {}).get(step, 1.0)


def make_job(index, steps=6, **kwargs):
    return TrainingJob(name=f"seam{index}", build_model=build_sim_model,
                       data=sim_data, steps=steps, epoch_steps=2, seed=index,
                       **kwargs)


def seam_engine(seam, max_width=3, **kwargs):
    engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=max_width),
                                 **kwargs)
    engine.make_physics = seam
    return engine


def launch(engine, count):
    """Pop ``count`` pending jobs into one executor (not yet prepared)."""
    cohorts, failures = engine.batcher.form_cohorts(
        engine.queue.pop_pending(count))
    assert not failures
    (plan,) = engine.policy.plan(cohorts)
    return engine.make_executor(plan)


def test_lifecycle_reaches_tensors_only_through_the_six_methods():
    # seam0 converges after its first epoch: the scripted loss drops under
    # its target at step 1
    seam = Seam(losses={"seam0": {1: 0.05}})
    engine = seam_engine(seam)
    j0, j1, j2, j3 = engine.submit_all(
        [make_job(0, target_loss=0.1)] + [make_job(i) for i in (1, 2, 3)])
    executor = launch(engine, 3)

    # launch -> early-stop eviction
    (retired,) = executor.step_epoch()
    assert (retired.job_id, retired.stop_reason) == (j0, "converged")
    assert retired.evicted and retired.checkpoint is None
    assert executor.live_width == 2 and executor.freed_width == 1
    # freed-width admission
    assert engine.refill_from_queue(executor) == 1
    assert [slot.sub.job_id for slot in executor.slots] == [j1, j2, j3]
    # preemption detach, then merge_with of the detached child
    child = executor.detach_slots([0])
    assert [slot.sub.job_id for slot in child.slots] == [j1]
    assert child.physics.ids == [j1] and executor.physics.ids == [j2, j3]
    executor.merge_with(child)
    assert child.done and executor.physics.ids == [j2, j3, j1]
    # drain (every result since launch is delivered here, exactly once)
    engine.run_executor(executor)
    results = {r.job_id: r for r in engine.queue.take_settled()}

    assert seam.log == [
        ("build", (j0, j1, j2), None),
        ("step", 3, 2),
        ("export", 0, j0),
        ("take", (1, 2)),
        ("build", (j3,), j1),           # boards alongside live job j1
        ("absorb", 2, 1),
        ("take", (0,)),                 # the victim leaves ...
        ("take", (1, 2)),               # ... the rest stays
        ("absorb", 2, 1),
        ("step", 3, 2),                 # j2, j1 at 4/6; j3 at 2/6
        ("step", 3, 2),
        ("export", 0, j2),
        ("export", 2, j1),
        ("take", (1,)),
        ("step", 1, 2),
        ("export", 0, j3),              # last slot: nothing left to take
    ]
    assert results.pop(j0) is retired
    assert sorted(results) == [j1, j2, j3]
    assert all(r.steps_trained == 6 and r.stop_reason == "budget"
               for r in results.values())
    assert results[j1].preemptions == 1
    assert all(engine.queue.state(j) == JobState.COMPLETED
               for j in (j0, j1, j2, j3))
    # accounting is the lifecycle's: what step() returned, summed
    record = executor.record()
    assert (record.seconds, record.samples) == (4 * 0.25, 10 * 2 * 10)
    metrics = engine.metrics
    assert (metrics.jobs_evicted, metrics.jobs_admitted,
            metrics.arrays_merged) == (1, 1, 1)
    # no store attached: nothing asked a physics for durable state
    assert not [entry for entry in seam.log if entry[0] == "durable"]

    # the executor holds a physics object and no tensor of its own
    for array in (executor, child):
        for name in ("fused", "optimizer", "criterion"):
            assert not hasattr(array, name)


def test_a_failing_absorb_leaves_the_live_array_untouched():
    seam = Seam(losses={"seam0": {1: 0.05}})
    engine = seam_engine(seam)
    j0, j1, j2 = engine.submit_all(
        [make_job(0, target_loss=0.1), make_job(1), make_job(2)])
    executor = launch(engine, 2)
    executor.step_epoch()                       # j0 leaves, one slot free
    live_physics, live_slots = executor.physics, list(executor.slots)

    seam.fail_absorb = True
    assert engine.refill_from_queue(executor) == 0

    assert executor.physics is live_physics and live_physics.ids == [j1]
    assert executor.slots == live_slots
    assert executor.state == ArrayState.STEPPING
    assert engine.metrics.jobs_admitted == 0
    # the newcomer is back in the queue and not offered to this array again
    assert engine.queue.state(j2) == JobState.QUEUED
    assert j2 in executor.admission_rejects
    assert engine.refill_from_queue(executor) == 0

    seam.fail_absorb = False
    engine.run_executor(executor)
    engine.queue.take_settled()                 # j0's and j1's results
    results = engine.run_until_idle()           # j2 launches its own array
    assert sorted(results) == [j2]
    assert engine.queue.state(j1) == JobState.COMPLETED
    assert engine.metrics.arrays_failed == 0


def test_a_step_fault_quarantines_the_array_into_solo_retries():
    seam = Seam()
    seam.fail_step_number = 2                   # second epoch of the array
    engine = seam_engine(seam)
    ids = engine.submit_all([make_job(i) for i in range(3)])

    assert engine.run_cycle() == []
    assert engine.metrics.arrays_failed == 1
    assert engine.metrics.jobs_failed == 0
    assert all(engine.queue.get(j).solo for j in ids)
    assert all(engine.queue.state(j) == JobState.QUEUED for j in ids)
    assert seam.log == [("build", tuple(ids), None),
                        ("step", 3, 2), ("step", 3, 2)]

    del seam.log[:]
    results = engine.run_until_idle()
    assert sorted(results) == ids
    assert {r.array_width for r in results.values()} == {1}
    assert all(r.steps_trained == 6 for r in results.values())
    # three width-1 arrays, each restarted from step 0 (no store attached)
    assert [e for e in seam.log if e[0] == "build"] == \
        [("build", (j,), None) for j in ids]
    assert engine.metrics.jobs_completed == 3


def test_durable_state_crosses_the_seam_only_when_a_store_writes(tmp_path):
    """Cadence checkpoints ask the physics for durable state; a quarantined
    job's solo retry hands the optimizer half back through ``load_resume``
    and fast-forwards the slot itself."""
    seam = Seam()
    seam.fail_step_number = 2
    engine = seam_engine(seam, store=CheckpointStore(tmp_path),
                         checkpoint_every=1)
    ids = engine.submit_all([make_job(i, steps=4) for i in range(2)])

    engine.run_cycle()                          # epoch 1 persists, 2 faults
    assert seam.log == [
        ("build", tuple(ids), None), ("step", 2, 2),
        ("export", 0, ids[0]), ("durable", ids[0]),
        ("export", 1, ids[1]), ("durable", ids[1]),
        ("step", 2, 2)]
    assert engine.metrics.jobs_recovered == 2

    del seam.log[:]
    results = engine.run_until_idle()
    assert [r.steps_trained for r in results.values()] == [4, 4]
    assert all(len(r.loss_curve) == 4 for r in results.values())
    # each retry resumed at step 2: one more epoch, then the final write
    assert seam.log == [
        entry for j in ids for entry in (
            ("build", (j,), None), ("load_resume", 0), ("step", 1, 2),
            ("export", 0, j), ("durable", j))]
