"""Elastic utilization: live eviction reclaims the width dead jobs waste.

The paper's horizontally fused arrays pay off only while every fused slot
does useful work — but hyper-parameter tuning exists precisely to kill
trials early, so a run-to-completion runtime ends up gang-stepping dead
slots for the remainder of each array.  This benchmark serves a workload
where **40% of the jobs early-stop** after the first epoch: stop signals
evict finished slots, the fused array is narrowed via ``split_fused`` and
the freed width returns to the scheduler.

Run-to-completion would execute ``JOBS * STEPS`` slot-steps for the same
useful work, so the slot-steps the runtime really executes give the
utilization gain as plain arithmetic; the test pins both, and that every
evicted job's exported checkpoint matches its serial-training checkpoint
exactly (same tolerance as the runtime's serial-equivalence suite —
eviction may not change what a job learned).
"""

import numpy as np

from repro import nn, optim as serial_optim
from repro.hfta.ops.factory import OpsLibrary
from repro.nn import functional as F
from repro.runtime import ArrayPolicy, TrainingArrayEngine, TrainingJob
from .conftest import print_table

JOBS = 10
EARLY_STOPPERS = 4          # 40% of the stream stops after the 1st epoch
STEPS = 5                   # epoch_steps=1 -> 5 epochs per full job
WIDTH_CAP = 10
BATCH = 8
FEATURES, CLASSES = 12, 4


class SweepMLP(nn.Module):
    """Stand-in sweep architecture (one cohort, maximally fusible)."""

    def __init__(self, hidden=16, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(FEATURES, hidden, generator=generator)
        self.fc2 = lib.Linear(hidden, CLASSES, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


def job_stream(seed):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, FEATURES)).astype(np.float32),
                rng.integers(0, CLASSES, size=BATCH))
               for _ in range(STEPS)]
    return lambda step: batches[step]


def early_stop_workload():
    """10 sweep jobs; the first 4 carry an epoch-1 early-stop signal."""
    stop_after_first_epoch = lambda epochs, curve: epochs >= 1  # noqa: E731
    return [TrainingJob(
        name=f"sweep_lr{1e-3 * (i + 1):.0e}",
        seed=i, steps=STEPS,
        config={"lr": 1e-3 * (i + 1), "optimizer": "adam"},
        build_model=lambda B=None, g=None: SweepMLP(16, B, g),
        data=job_stream(700 + i),
        stop=stop_after_first_epoch if i < EARLY_STOPPERS else None)
        for i in range(JOBS)]


def serve():
    engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=WIDTH_CAP))
    engine.submit_all(early_stop_workload())
    results = engine.run_until_idle()
    assert len(results) == JOBS
    return engine.metrics, results


def assert_serial_equivalent(result, job):
    """The eviction acceptance bar: the checkpoint equals serial training
    of the same job for the same number of steps."""
    reference = job.build_model(None, np.random.default_rng(job.seed))
    opt = serial_optim.Adam(reference.parameters(), lr=job.config["lr"])
    for step in range(result.steps_trained):
        x, y = job.data(step)
        opt.zero_grad()
        F.cross_entropy(reference(nn.tensor(x)), y).backward()
        opt.step()
    for (name, p_ref), (_, p_out) in zip(
            reference.named_parameters(),
            result.checkpoint.named_parameters()):
        np.testing.assert_allclose(p_out.data, p_ref.data, rtol=1e-4,
                                   atol=1e-6,
                                   err_msg=f"{result.name} {name}")


def test_eviction_lifts_fused_width_efficiency():
    metrics, results = serve()

    run_to_completion = JOBS * STEPS        # every job rides to the end
    gain = run_to_completion / metrics.slot_steps_total

    print_table(
        f"Fused slot-steps, {JOBS} jobs / {EARLY_STOPPERS} early-stop "
        f"at epoch 1 of {STEPS}",
        [("run-to-completion", run_to_completion),
         ("evict + re-fuse", metrics.slot_steps_total),
         ("gain", gain)],
        header=("runtime", "slot-steps"))
    print_table(
        "Elastic lifecycle counters",
        sorted((k, float(v)) for k, v in metrics.as_dict().items()
               if k.startswith(("jobs_", "arrays_"))),
        header=("counter", "value"))

    # the runtime really freed the dead width: no executed slot-step
    # carried a finished job
    assert metrics.jobs_evicted == EARLY_STOPPERS == 4
    assert metrics.slot_steps_total == \
        JOBS * STEPS - EARLY_STOPPERS * (STEPS - 1) == 34
    assert metrics.fused_width_efficiency == 1.0
    assert gain == 50 / 34

    # every evicted checkpoint exactly matches serial training (and the
    # survivors too, while we are at it)
    by_name = {job.name: job for job in early_stop_workload()}
    evicted = 0
    for result in results.values():
        assert_serial_equivalent(result, by_name[result.name])
        evicted += result.evicted
    assert evicted == EARLY_STOPPERS
