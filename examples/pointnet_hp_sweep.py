"""PointNet hyper-parameter sweep with HFTA (the paper's motivating workload).

Four PointNet classifiers with different learning rates / weight decays train
simultaneously on synthetic ShapeNet-part point clouds as one fused array.
The script verifies at the end that every fused model matches a reference
model trained independently with the same hyper-parameters.

Run:  python examples/pointnet_hp_sweep.py
"""

import numpy as np

from repro import nn, hfta, optim as serial_optim
from repro.data import DataLoader, SyntheticShapeNetParts
from repro.hfta import optim as fused_optim
from repro.models import PointNetCls
from repro.nn import functional as F

NUM_MODELS = 4
LRS = [5e-4, 1e-3, 2e-3, 4e-3]
WEIGHT_DECAYS = [0.0, 1e-4, 1e-3, 0.0]
STEPS = 8


def main():
    dataset = SyntheticShapeNetParts(num_samples=64, num_points=128,
                                     num_classes=8, seed=0)
    loader = DataLoader(dataset, batch_size=8, shuffle=True, seed=0)
    batches = []
    for i, (points, labels, _) in enumerate(loader):
        batches.append((points, labels))
        if len(batches) >= STEPS:
            break

    # --- the fused sweep ---------------------------------------------------
    serial_init = [PointNetCls(num_classes=8, width=0.25, dropout=0.0,
                               generator=np.random.default_rng(b))
                   for b in range(NUM_MODELS)]
    fused = PointNetCls(num_classes=8, num_models=NUM_MODELS, width=0.25,
                        dropout=0.0)
    hfta.load_from_unfused(fused, serial_init)
    optimizer = fused_optim.Adam(fused.parameters(), num_models=NUM_MODELS,
                                 lr=LRS, weight_decay=WEIGHT_DECAYS)
    criterion = hfta.FusedNLLLoss(NUM_MODELS)

    print(f"Fused sweep: {NUM_MODELS} PointNet jobs, lrs={LRS}")
    for step, (points, labels) in enumerate(batches):
        optimizer.zero_grad()
        fused_points = fused.fuse_inputs([nn.tensor(points)] * NUM_MODELS)
        log_probs = fused(fused_points)
        losses = criterion.per_model(log_probs,
                                     np.stack([labels] * NUM_MODELS))
        losses.sum().backward()
        optimizer.step()
        print(f"  step {step}  " + "  ".join(f"{v:.3f}" for v in losses.data))

    # --- verify against one independently trained job ----------------------
    check_index = 1
    reference = PointNetCls(num_classes=8, width=0.25, dropout=0.0,
                            generator=np.random.default_rng(check_index))
    ref_opt = serial_optim.Adam(reference.parameters(), lr=LRS[check_index],
                                weight_decay=WEIGHT_DECAYS[check_index])
    for points, labels in batches:
        ref_opt.zero_grad()
        F.nll_loss(reference(nn.tensor(points)), labels).backward()
        ref_opt.step()

    extracted = PointNetCls(num_classes=8, width=0.25, dropout=0.0)
    hfta.export_to_unfused(fused, check_index, extracted)
    worst = max(np.abs(p_ref.data - p_ext.data).max()
                for (_, p_ref), (_, p_ext) in zip(
                    reference.named_parameters(),
                    extracted.named_parameters()))
    print(f"\nMax |weight difference| between fused slot {check_index} and an "
          f"independently trained job: {worst:.2e}")
    assert worst == 0, "fused training diverged from independent training"
    print("Fused training is bitwise equivalent to independent training.")


if __name__ == "__main__":
    main()
