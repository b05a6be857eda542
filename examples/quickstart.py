"""Quickstart: fuse three hyper-parameter-tuning jobs into one HFTA array.

This reproduces the paper's Figure 1 scenario: three training jobs that share
the same model architecture but differ in learning rate train *simultaneously
on one device* as a single horizontally fused job, and each follows exactly
the trajectory it would follow if trained alone.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import nn, hfta, hwsim
from repro.hfta import ops as hops, optim as fused_optim


def build_serial_model(seed):
    """A small CNN classifier (the 'novel model' a researcher is tuning)."""
    gen = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 16, 3, padding=1, generator=gen), nn.BatchNorm2d(16),
        nn.ReLU(), nn.MaxPool2d(2),
        nn.Conv2d(16, 32, 3, padding=1, generator=gen), nn.BatchNorm2d(32),
        nn.ReLU(), nn.AdaptiveAvgPool2d(1))


def build_fused_model(num_models):
    """The same network with HFTA fused operators (note: same structure,
    only the layers with parameters change — this is the paper's Figure 2
    recipe; the activations and pools are the serial layers, which act on
    the fused layout unchanged)."""
    return nn.Sequential(
        hops.Conv2d(num_models, 3, 16, 3, padding=1),
        hops.BatchNorm2d(num_models, 16),
        nn.ReLU(), nn.MaxPool2d(2),
        hops.Conv2d(num_models, 16, 32, 3, padding=1),
        hops.BatchNorm2d(num_models, 32),
        nn.ReLU(), nn.AdaptiveAvgPool2d(1))


def main():
    learning_rates = [1e-3, 3e-3, 1e-2]    # the hyper-parameter sweep
    num_models = len(learning_rates)
    rng = np.random.default_rng(0)

    # --- build the array and import the three jobs' initial weights -------
    serial_jobs = [build_serial_model(seed) for seed in range(num_models)]
    fused_trunk = build_fused_model(num_models)
    hfta.load_from_unfused(fused_trunk, serial_jobs)
    # one seeded generator per job: slot b of the fused head holds what a
    # serial nn.Linear(32, 10) built with generator b would, every run
    fused_head = hops.Linear(num_models, 32, 10, generator=[
        np.random.default_rng(100 + seed) for seed in range(num_models)])

    optimizer = fused_optim.Adam(
        list(fused_trunk.parameters()) + list(fused_head.parameters()),
        num_models=num_models, lr=learning_rates)
    criterion = hfta.FusedCrossEntropyLoss(num_models)

    # --- train all three jobs simultaneously ------------------------------
    print(f"Training {num_models} jobs (lrs={learning_rates}) as ONE fused job")
    for step in range(10):
        images = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        labels = rng.integers(0, 10, size=8)
        optimizer.zero_grad()
        # channel-folded input: every job sees its own copy of the batch
        fused_images = hops.fuse_channel([nn.tensor(images)] * num_models)
        features = fused_trunk(fused_images)                    # [N, B*32, 1, 1]
        features = hops.channel_to_batch(features, num_models)  # [B, N, 32, 1, 1]
        logits = fused_head(features.reshape(num_models, 8, 32))
        # each job's own loss; their sum is the fused loss (Appendix C)
        losses = criterion.per_model(logits, np.stack([labels] * num_models))
        losses.sum().backward()
        optimizer.step()
        print(f"  step {step:2d}  per-job losses: "
              + "  ".join(f"{v:.4f}" for v in losses.data))

    # --- what would this buy on real hardware? ----------------------------
    workload = hwsim.get_workload("pointnet_cls")
    speedups = hwsim.peak_speedups(workload, hwsim.V100)
    print("\nSimulated V100 peak-throughput speedups of HFTA for the "
          "PointNet-classification sweep:")
    for baseline, value in speedups.items():
        print(f"  vs {baseline:11s}: {value:.2f}x")


if __name__ == "__main__":
    main()
