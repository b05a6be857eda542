"""Fusibility is structural: a job's name never decides its cohort.

The paper fuses models that "have the same types of operators with the
same shapes" (Section 3).  The batcher's cohort key is exactly that
precondition plus what gang scheduling needs: the builder's structural
signature, the infusible hyper-parameter values, the step budget and
epoch cadence, the loss, the hwsim workload and the solo flag of a
quarantined retry.  These tests pin both directions: jobs with unrelated
names but one builder fuse into one array that trains each slot bitwise
like serial training, and a job differing from its mates in any one key
field alone gets its own cohort.
"""

import numpy as np
import pytest

from repro import nn, optim as serial_optim
from repro.hfta.ops.factory import OpsLibrary
from repro.nn import functional as F
from repro.runtime import ArrayPolicy, Batcher, JobQueue, \
    TrainingArrayEngine, TrainingJob

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


def build(num_models=None, generator=None):
    """The one builder every job of these tests shares."""
    return TinyMLP(8, num_models, generator)


def build_wider(num_models=None, generator=None):
    return TinyMLP(16, num_models, generator)


def stream(seed):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, FEATURES)).astype(np.float32),
                rng.integers(0, CLASSES, size=BATCH))
               for _ in range(STEPS)]
    return lambda step: batches[step]


def make_job(name, seed, lr=1e-3, optimizer="adam", build_model=build,
             **kwargs):
    return TrainingJob(
        name=name, seed=seed, steps=kwargs.pop("steps", STEPS),
        config={"lr": lr, "optimizer": optimizer}, build_model=build_model,
        data=stream(1000 + seed), **kwargs)


def schedule(jobs):
    queue = JobQueue()
    for job in jobs:
        queue.submit(job)
    return queue.pop_pending()


def train_serial(job):
    """What serial training of ``job`` for its whole budget produces."""
    model = job.build_model(None, np.random.default_rng(job.seed))
    opt = serial_optim.Adam(model.parameters(), lr=job.config["lr"])
    for step in range(job.steps):
        x, y = job.data(step)
        opt.zero_grad()
        F.cross_entropy(model(nn.tensor(x)), y).backward()
        opt.step()
    return model


#: names a trace classifier would put in different buckets
UNRELATED = ("dcgan_lr0.0002_beta1_trial3", "lstm_hidden256_wd_trial9")


def test_unrelated_names_one_builder_fuse_bitwise():
    jobs = [make_job(UNRELATED[0], seed=3, lr=2e-4),
            make_job(UNRELATED[1], seed=9, lr=3e-3)]
    cohorts, failures = Batcher().form_cohorts(schedule(jobs))
    assert not failures
    assert [c.num_models for c in cohorts] == [2]

    engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
    ids = engine.submit_all(jobs)
    results = engine.run_until_idle()
    assert set(results) == set(ids)
    assert engine.metrics.arrays_launched == 1
    assert engine.metrics.records[0].num_models == 2
    for job_id, job in zip(ids, jobs):
        reference = train_serial(job)
        fused = results[job_id].checkpoint
        for (name, p_ref), (_, p_out) in zip(reference.named_parameters(),
                                             fused.named_parameters()):
            np.testing.assert_array_equal(p_out.data, p_ref.data,
                                          err_msg=f"{job.name} {name}")


#: one key field each: the job differs from its two mates in that alone
KEY_FIELDS = {
    "optimizer": dict(optimizer="sgd"),
    "steps": dict(steps=2 * STEPS),
    "epoch_steps": dict(epoch_steps=2),
    "loss": dict(loss="nll"),
    "workload": dict(workload="pointnet_cls"),
    "structure": dict(build_model=build_wider),
    "solo": {},
}


@pytest.mark.parametrize("field", sorted(KEY_FIELDS))
def test_a_job_differing_in_one_key_field_gets_its_own_cohort(field):
    mates = [make_job(UNRELATED[0], seed=0), make_job("anything", seed=1)]
    odd = make_job(UNRELATED[1], seed=2, **KEY_FIELDS[field])
    batch = schedule(mates + [odd])
    if field == "solo":
        batch[-1].solo = True
    cohorts, failures = Batcher().form_cohorts(batch)
    assert not failures
    assert [[sub.job.name for sub in c.jobs] for c in cohorts] == [
        [UNRELATED[0], "anything"], [UNRELATED[1]]]


def test_admission_profile_is_equal_across_names():
    batcher = Batcher()
    first, second, other = schedule([
        make_job(UNRELATED[0], seed=0, lr=1e-3),
        make_job(UNRELATED[1], seed=1, lr=5e-3),
        make_job("sweep0", seed=2, optimizer="sgd")])
    assert batcher.admission_profile(first) == \
        batcher.admission_profile(second)
    assert batcher.admission_profile(first) != \
        batcher.admission_profile(other)
