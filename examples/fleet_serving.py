"""Serve a mixed stream of training jobs across a simulated device fleet.

This is the end-to-end demo of :mod:`repro.runtime.fleet`: eleven training
jobs from three model families — two CNN architectures and an MLP, with
per-family hwsim workload hints — are submitted to the
:class:`FleetScheduler` over the paper's four evaluation devices
(V100, RTX6000, A100, TPUv3).  Each scheduling cycle groups the pending
jobs into fusible cohorts, asks the analytical device model which device
trains each array fastest (splitting any cohort that exceeds the chosen
device's width/memory cap — partial fusion), and trains the placed arrays
on one deterministic event loop, in the order the devices' projected
timelines say they would finish.

The fleet changes *where* and *with whom* each job trains — never what it
learns: every exported checkpoint is compared against a reference model
trained serially on the same data, exactly like the single-device demo in
``examples/runtime_serving.py``.

Run:  PYTHONPATH=src python examples/fleet_serving.py
"""

import numpy as np

from repro import nn, optim as serial_optim
from repro.hfta.ops.factory import OpsLibrary
from repro.hwsim import A100, RTX6000, TPU_V3, V100
from repro.nn import functional as F
from repro.runtime import FleetScheduler, TrainingJob

FLEET = (V100, RTX6000, A100, TPU_V3)
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
    """Eleven heterogeneous jobs; workload hints drive device placement."""
    jobs = []
    # a five-job CNN learning-rate sweep: one fusible cohort wider than the
    # width cap, so placement falls back to partial fusion (3 + 2)
    for i, lr in enumerate([1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2]):
        jobs.append(TrainingJob(
            name=f"cnn8_lr{lr}", seed=10 + i, steps=STEPS,
            config={"lr": lr, "optimizer": "adam"},
            build_model=lambda B=None, g=None: ConvNet(8, B, g),
            data=image_stream(100 + i), workload="resnet18"))
    # three jobs of a *wider* CNN: structurally infusible with the sweep
    # above, hinted as the compute-bound DCGAN workload
    for i, lr in enumerate([1e-3, 3e-3, 9e-3]):
        jobs.append(TrainingJob(
            name=f"cnn16_lr{lr}", seed=20 + i, steps=STEPS,
            config={"lr": lr, "optimizer": "adam"},
            build_model=lambda B=None, g=None: ConvNet(16, B, g),
            data=image_stream(200 + i), workload="dcgan"))
    # three MLP jobs, hinted as the memory-bound PointNet workload
    for i, lr in enumerate([1e-3, 5e-3, 2.5e-2]):
        jobs.append(TrainingJob(
            name=f"mlp_lr{lr}", seed=30 + i, steps=STEPS,
            config={"lr": lr, "optimizer": "adam"},
            build_model=lambda B=None, g=None: MLPNet(24, 32, B, g),
            data=feature_stream(300 + i), workload="pointnet_cls"))
    return jobs


# --------------------------------------------------------------------- #
# Serial references
# --------------------------------------------------------------------- #
def train_serial_reference(job):
    """Train the same job alone, exactly as a dedicated process would."""
    model = job.build_model(None, np.random.default_rng(job.seed))
    opt = serial_optim.Adam(model.parameters(), lr=job.config["lr"])
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
    fleet = FleetScheduler(devices=FLEET, max_width=WIDTH_CAP)
    job_ids = fleet.submit_all(jobs)
    print(f"Submitted {len(jobs)} heterogeneous jobs to a "
          f"{len(FLEET)}-device fleet "
          f"({', '.join(d.name for d in FLEET)}; width cap {WIDTH_CAP})\n")

    results = fleet.run_until_idle()

    rows, header = fleet.metrics.report()
    print("Fused arrays launched:")
    print("  " + " | ".join(f"{h:>10s}" for h in header))
    for row in rows:
        print("  " + " | ".join(
            f"{v:>10.2f}" if isinstance(v, float) else f"{str(v):>10s}"
            for v in row))

    rows, header = fleet.metrics.fleet_report()
    print("\nPer-device fleet counters:")
    print("  " + " | ".join(f"{h:>11s}" for h in header))
    for row in rows:
        print("  " + " | ".join(
            f"{v:>11.3f}" if isinstance(v, float) else f"{str(v):>11s}"
            for v in row))

    assert len(results) == len(jobs), "not every job completed"
    assert len(fleet.metrics.devices) >= 2, \
        "expected the stream to spread over multiple devices"
    assert all(r.num_models <= WIDTH_CAP for r in fleet.metrics.records), \
        "width cap violated"

    print("\nChecking every exported checkpoint against serial training:")
    worst_overall = 0.0
    for job, job_id in zip(jobs, job_ids):
        result = results[job_id]
        record = next(r for r in fleet.metrics.records
                      if r.array_id == result.array_id)
        reference = train_serial_reference(job)
        deviation = max_param_deviation(result.checkpoint, reference)
        worst_overall = max(worst_overall, deviation)
        print(f"  {job.name:16s} array {result.array_id} on "
              f"{record.device:8s} slot {result.slot} "
              f"(width {result.array_width})  max dev {deviation:.2e}")
        assert deviation == 0, f"{job.name} diverged from serial training"
    print(f"\nAll {len(jobs)} checkpoints match serial training "
          f"(worst relative deviation {worst_overall:.2e}).")

    m = fleet.metrics
    print(f"\nFleet counters: {m.arrays_launched} arrays for "
          f"{m.jobs_completed} jobs over {len(m.devices)} devices "
          f"(mean width {m.models_per_array:.2f}), "
          f"aggregate throughput {m.aggregate_throughput:,.0f} samples/s.")


if __name__ == "__main__":
    main()
