"""Figure 11 / Appendix D: HFTA does not change convergence.

Paper: training ResNet-18 on CIFAR-10 with three learning rates, the
per-iteration training-loss curves of serial training and HFTA-fused training
overlap entirely.  Here the same experiment runs at reduced scale (synthetic
CIFAR-10, a narrow ResNet-18) and the curves are compared numerically.
"""

import numpy as np

from repro import nn, optim as serial_optim, hfta
from repro.data import DataLoader, SyntheticCIFAR10
from repro.hfta import optim as fused_optim
from repro.models import ResNet18
from repro.nn import functional as F
from .conftest import print_table

LRS = [0.0005, 0.001, 0.002]
STEPS = 5
B = len(LRS)


def _batches():
    dataset = SyntheticCIFAR10(num_samples=64, image_size=16, num_classes=4,
                               seed=3)
    loader = DataLoader(dataset, batch_size=16, shuffle=True, seed=3)
    batch = next(iter(loader))
    return [batch] * STEPS


def _serial_models():
    return [ResNet18(num_classes=4, width=0.125,
                     generator=np.random.default_rng(900 + b))
            for b in range(B)]


def run_serial(batches):
    models = _serial_models()
    optimizers = [serial_optim.Adadelta(m.parameters(), lr=LRS[b])
                  for b, m in enumerate(models)]
    curves = [[] for _ in range(B)]
    for x, y in batches:
        for b, model in enumerate(models):
            optimizers[b].zero_grad()
            loss = F.cross_entropy(model(nn.tensor(x)), y)
            loss.backward()
            optimizers[b].step()
            curves[b].append(loss.item())
    return curves


def run_fused(batches):
    fused = ResNet18(num_classes=4, num_models=B, width=0.125)
    hfta.load_from_unfused(fused, _serial_models())
    optimizer = fused_optim.Adadelta(fused.parameters(), num_models=B, lr=LRS)
    criterion = hfta.FusedCrossEntropyLoss(B)
    curves = [[] for _ in range(B)]
    for x, y in batches:
        optimizer.zero_grad()
        logits = fused(fused.fuse_inputs([nn.tensor(x)] * B))
        losses = criterion.per_model(logits, np.stack([y] * B))
        losses.sum().backward()
        optimizer.step()
        for b in range(B):
            curves[b].append(float(losses.data[b]))
    return curves


def test_fig11_convergence_equivalence(benchmark):
    batches = _batches()
    serial_curves = run_serial(batches)
    fused_curves = benchmark.pedantic(lambda: run_fused(batches), rounds=1,
                                      iterations=1)

    rows = []
    for b in range(B):
        gap = float(np.abs(np.array(serial_curves[b])
                           - np.array(fused_curves[b])).max())
        rows.append((f"lr={LRS[b]}", serial_curves[b][0], serial_curves[b][-1],
                     fused_curves[b][-1], gap))
    print_table("Figure 11: per-iteration loss, serial vs HFTA", rows,
                header=("model", "first loss", "serial last", "hfta last",
                        "max |gap|"))

    for b in range(B):
        np.testing.assert_allclose(fused_curves[b], serial_curves[b],
                                   rtol=5e-3, atol=5e-3)
        # Training makes progress (so the overlap is not vacuous).
        assert serial_curves[b][-1] < serial_curves[b][0] + 1e-3
