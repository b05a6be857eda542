"""Elastic hyper-parameter tuning: HFHT early stopping drives live eviction.

This demo wires the three layers the elastic lifecycle connects:

1. :class:`repro.hfht.RandomSearch` proposes a batch of learning-rate
   configurations (the tuning workload of the paper's Section 3).
2. Each proposal becomes a :class:`repro.runtime.TrainingJob` whose
   ``stop`` callback is a :class:`repro.hfht.MedianStopper` signal — the
   median stopping rule kills trials whose loss is worse than the median
   of their peers at the same epoch.
3. The elastic :class:`repro.runtime.TrainingArrayEngine` fuses all trials
   into one training array, steps it epoch by epoch, *evicts* every
   stopped trial (narrowing the fused array with ``split_fused`` and
   freeing its width), and exports each trial's checkpoint as of its own
   last step.

The payoff is printed at the end: fused-width efficiency stays at 1.0
because evicted trials stop occupying fused slots, while a
run-to-completion runtime would have dragged them along as dead width.
Eviction never changes what a trial learns — the demo re-trains one
evicted trial serially and compares the checkpoints.

Run:  PYTHONPATH=src python examples/elastic_tuning.py
"""

import numpy as np

from repro import nn, optim as serial_optim
from repro.hfta.ops.factory import OpsLibrary
from repro.hfht import HyperParameter, MedianStopper, RandomSearch, \
    SearchSpace
from repro.nn import functional as F
from repro.runtime import ArrayPolicy, TrainingArrayEngine, TrainingJob

TRIALS = 8
STEPS = 10          # step budget per trial (1 step == 1 epoch here)
BATCH = 8
FEATURES, CLASSES = 12, 4


class SweepMLP(nn.Module):
    """The sweep's architecture, written once via OpsLibrary."""

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


def trial_stream(seed):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, FEATURES)).astype(np.float32),
                rng.integers(0, CLASSES, size=BATCH))
               for _ in range(STEPS)]
    return lambda step: batches[step]


def main():
    # 1. the tuning algorithm proposes a batch of configurations
    space = SearchSpace([HyperParameter("lr", fusible=True,
                                        low=1e-4, high=0.5,
                                        log_scale=True)])
    search = RandomSearch(space, total_sets=TRIALS, epochs_per_set=STEPS,
                          seed=7)
    trials = search.propose()

    # 2. each trial becomes a TrainingJob carrying a median-rule signal
    stopper = MedianStopper(warmup_epochs=2, min_trials=3)
    jobs = [TrainingJob(
        name=f"trial{i}_lr{trial.config['lr']:.2e}",
        seed=i, steps=STEPS, space=space,
        config={"lr": trial.config["lr"], "optimizer": "adam"},
        build_model=lambda B=None, g=None: SweepMLP(16, B, g),
        data=trial_stream(400 + i),
        stop=stopper.signal(i))
        for i, trial in enumerate(trials)]

    # 3. the elastic engine fuses, steps, evicts and re-fuses
    engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=TRIALS))
    job_ids = engine.submit_all(jobs)
    results = engine.run_until_idle()

    print(f"{TRIALS} trials served by {engine.metrics.arrays_launched} "
          f"fused array(s)")
    print(f"  evicted early      : {engine.metrics.jobs_evicted}")
    print(f"  fused-width eff.   : "
          f"{engine.metrics.fused_width_efficiency:.3f}")
    survivors = []
    for i, job_id in enumerate(job_ids):
        result = results[job_id]
        flag = "evicted" if result.evicted else "ran to budget"
        print(f"  {result.name:<22} {result.steps_trained:>2} steps "
              f"final loss {result.loss_curve[-1]:.4f}  ({flag})")
        if not result.evicted:
            survivors.append(result)
    best = min(survivors, key=lambda r: r.loss_curve[-1])
    print(f"best surviving trial : {best.name}")

    # eviction must not change what a trial learned: re-train one evicted
    # trial serially for the same number of steps and compare
    evicted = next(r for r in results.values() if r.evicted)
    job = jobs[job_ids.index(evicted.job_id)]
    reference = job.build_model(None, np.random.default_rng(job.seed))
    opt = serial_optim.Adam(reference.parameters(), lr=job.config["lr"])
    for step in range(evicted.steps_trained):
        x, y = job.data(step)
        opt.zero_grad()
        F.cross_entropy(reference(nn.tensor(x)), y).backward()
        opt.step()
    for (name, p_ref), (_, p_out) in zip(
            reference.named_parameters(),
            evicted.checkpoint.named_parameters()):
        np.testing.assert_array_equal(p_out.data, p_ref.data, err_msg=name)
    print(f"evicted checkpoint ({evicted.name}) verified against serial "
          f"training — eviction changed when it trained, not what it "
          f"learned")
    assert engine.metrics.jobs_evicted > 0
    assert engine.metrics.fused_width_efficiency == 1.0


if __name__ == "__main__":
    main()
