"""Serve a stream of heterogeneous training jobs with the dynamic runtime.

This is the end-to-end demo of :mod:`repro.runtime`: nine training jobs —
two CNN architectures and an MLP, different learning rates, one job on a
different optimizer — are submitted to the :class:`TrainingArrayEngine`.
The runtime groups them into fusible cohorts (same structure, same
infusible hyper-parameters), sizes each array against a width cap of 3
(splitting the four-job CNN sweep into a 3-wide and a 1-wide array — the
partial-fusion fallback), trains every array, and hands each job back an
unfused checkpoint.

Every checkpoint is then compared against a reference model trained
*serially* on the same data: HFTA's transformations are mathematically
equivalent, so the runtime must not change what any job learns.

Run:  PYTHONPATH=src python examples/runtime_serving.py
"""

import numpy as np

from repro import nn, optim as serial_optim
from repro.hfta.ops.factory import OpsLibrary
from repro.nn import functional as F
from repro.runtime import ArrayPolicy, TrainingArrayEngine, TrainingJob

WIDTH_CAP = 3
STEPS = 6
BATCH = 8
NUM_CLASSES = 5


# --------------------------------------------------------------------- #
# Model families (written once, built unfused or fused via OpsLibrary)
# --------------------------------------------------------------------- #
class ConvNet(nn.Module):
    """A small CNN classifier; ``channels`` changes the architecture."""

    def __init__(self, channels=8, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        # bias=False: a conv bias feeding BatchNorm is cancelled by the
        # normalization, leaving a zero-gradient direction whose numerical
        # noise Adam would amplify differently in serial vs fused runs.
        self.conv1 = lib.Conv2d(3, channels, 3, padding=1, bias=False,
                                generator=generator)
        self.bn1 = lib.BatchNorm2d(channels)
        self.conv2 = lib.Conv2d(channels, 2 * channels, 3, padding=1,
                                bias=False, generator=generator)
        self.bn2 = lib.BatchNorm2d(2 * channels)
        self.relu = lib.ReLU()
        self.pool = lib.MaxPool2d(2)
        self.gap = lib.AdaptiveAvgPool2d(1)
        self.fc = lib.Linear(2 * channels, NUM_CLASSES, generator=generator)

    def fuse_inputs(self, images):
        return self.lib.fuse_conv_inputs(images)

    def forward(self, x):
        h = self.pool(self.relu(self.bn1(self.conv1(x))))
        h = self.gap(self.relu(self.bn2(self.conv2(h))))
        return self.fc(self.lib.conv_to_dense(h))


class MLPNet(nn.Module):
    """A two-layer MLP classifier over flat feature vectors."""

    def __init__(self, in_features=24, hidden=32, num_models=None,
                 generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(in_features, hidden, generator=generator)
        self.fc2 = lib.Linear(hidden, NUM_CLASSES, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


# --------------------------------------------------------------------- #
# The job stream
# --------------------------------------------------------------------- #
def image_stream(seed):
    """A job's private data stream: deterministic batches per step."""
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, 3, 8, 8)).astype(np.float32),
                rng.integers(0, NUM_CLASSES, size=BATCH))
               for _ in range(STEPS)]
    return lambda step: batches[step]


def feature_stream(seed):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, 24)).astype(np.float32),
                rng.integers(0, NUM_CLASSES, size=BATCH))
               for _ in range(STEPS)]
    return lambda step: batches[step]


def make_jobs():
    """Nine heterogeneous jobs, the way a sweep generator would emit them."""
    jobs = []
    # a four-job CNN learning-rate sweep (one fusible cohort, wider than
    # the cap -> the policy splits it 3 + 1)
    for i, lr in enumerate([1e-3, 2e-3, 4e-3, 8e-3]):
        jobs.append(TrainingJob(
            name=f"cnn8_lr{lr}", seed=10 + i, steps=STEPS,
            config={"lr": lr, "optimizer": "adam"},
            build_model=lambda B=None, g=None: ConvNet(8, B, g),
            data=image_stream(100 + i)))
    # two jobs of a *wider* CNN: same family name pattern, different shapes
    # -> structurally infusible with the sweep above, own cohort
    for i, lr in enumerate([1e-3, 3e-3]):
        jobs.append(TrainingJob(
            name=f"cnn16_lr{lr}", seed=20 + i, steps=STEPS,
            config={"lr": lr, "optimizer": "adam"},
            build_model=lambda B=None, g=None: ConvNet(16, B, g),
            data=image_stream(200 + i)))
    # two MLP jobs on Adam (own cohort: different architecture)
    for i, lr in enumerate([1e-3, 5e-3]):
        jobs.append(TrainingJob(
            name=f"mlp_lr{lr}", seed=30 + i, steps=STEPS,
            config={"lr": lr, "optimizer": "adam"},
            build_model=lambda B=None, g=None: MLPNet(24, 32, B, g),
            data=feature_stream(300 + i)))
    # one MLP job on SGD: same architecture, infusible optimizer -> its own
    # (width-1) array
    jobs.append(TrainingJob(
        name="mlp_sgd_lr0.05", seed=40, steps=STEPS,
        config={"lr": 0.05, "optimizer": "sgd"},
        build_model=lambda B=None, g=None: MLPNet(24, 32, B, g),
        data=feature_stream(400)))
    return jobs


# --------------------------------------------------------------------- #
# Serial references
# --------------------------------------------------------------------- #
def train_serial_reference(job):
    """Train the same job alone, exactly as a dedicated process would."""
    model = job.build_model(None, np.random.default_rng(job.seed))
    if job.config["optimizer"] == "adam":
        opt = serial_optim.Adam(model.parameters(), lr=job.config["lr"])
    else:
        opt = serial_optim.SGD(model.parameters(), lr=job.config["lr"])
    for step in range(job.steps):
        x, y = job.data(step)
        opt.zero_grad()
        loss = F.cross_entropy(model(nn.tensor(x)), y)
        loss.backward()
        opt.step()
    return model


def max_param_deviation(checkpoint, reference):
    worst = 0.0
    for (_, p_ckpt), (_, p_ref) in zip(checkpoint.named_parameters(),
                                       reference.named_parameters()):
        scale = max(np.abs(p_ref.data).max(), 1e-8)
        worst = max(worst, float(np.abs(p_ckpt.data - p_ref.data).max() / scale))
    return worst


# --------------------------------------------------------------------- #
def main():
    jobs = make_jobs()
    engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=WIDTH_CAP))
    job_ids = engine.submit_all(jobs)
    print(f"Submitted {len(jobs)} heterogeneous jobs "
          f"(width cap {WIDTH_CAP})\n")

    results = engine.run_until_idle()

    rows, header = engine.metrics.report()
    print("Fused arrays launched:")
    print("  " + " | ".join(f"{h:>10s}" for h in header))
    for row in rows:
        print("  " + " | ".join(
            f"{v:>10.2f}" if isinstance(v, float) else f"{str(v):>10s}"
            for v in row))

    assert engine.metrics.arrays_launched >= 2, "expected multiple arrays"
    assert all(r.num_models <= WIDTH_CAP for r in engine.metrics.records), \
        "width cap violated"
    assert len(results) == len(jobs), "not every job completed"

    print("\nChecking every exported checkpoint against serial training:")
    worst_overall = 0.0
    for job, job_id in zip(jobs, job_ids):
        result = results[job_id]
        reference = train_serial_reference(job)
        deviation = max_param_deviation(result.checkpoint, reference)
        worst_overall = max(worst_overall, deviation)
        print(f"  {job.name:16s} array {result.array_id} slot {result.slot} "
              f"(width {result.array_width})  max dev {deviation:.2e}  "
              f"final loss {result.loss_curve[-1]:.4f}")
        assert deviation == 0, f"{job.name} diverged from serial training"
    print(f"\nAll {len(jobs)} checkpoints match serial training "
          f"(worst relative deviation {worst_overall:.2e}).")

    m = engine.metrics
    print(f"\nRuntime counters: {m.arrays_launched} arrays for "
          f"{m.jobs_completed} jobs "
          f"(mean width {m.models_per_array:.2f}, occupancy "
          f"{m.occupancy:.2f}), {m.serial_steps_saved} serial steps saved, "
          f"throughput {m.throughput:,.0f} samples/s.")


if __name__ == "__main__":
    main()
