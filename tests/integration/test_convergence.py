"""Integration tests: end-to-end fused training equals independent training.

This is the reproduction of the paper's convergence claim (Section 3
"Convergence", Appendix D / Figure 11): because every HFTA transformation is
mathematically equivalent, the per-iteration loss curve of each model inside
a fused array is identical (up to floating-point noise) to the curve the same
model produces when trained alone.
"""

import numpy as np

from repro import nn, optim as serial_optim, hfta
from repro.data import DataLoader, SyntheticCIFAR10
from repro.hfta import ops as hops, optim as fused_optim
from repro.models import ResNet18, PointNetCls
from repro.nn import functional as F

B = 2
LRS = [5e-4, 2e-3]


def train_serial_resnets(steps, batches):
    models = [ResNet18(num_classes=4, width=0.125,
                       generator=np.random.default_rng(500 + b))
              for b in range(B)]
    optimizers = [serial_optim.Adadelta(m.parameters(), lr=LRS[b])
                  for b, m in enumerate(models)]
    curves = [[] for _ in range(B)]
    for step in range(steps):
        x, y = batches[step]
        for b, model in enumerate(models):
            optimizers[b].zero_grad()
            loss = F.cross_entropy(model(nn.tensor(x)), y)
            loss.backward()
            optimizers[b].step()
            curves[b].append(loss.item())
    return models, curves


def train_fused_resnets(steps, batches, serial_init):
    fused = ResNet18(num_classes=4, num_models=B, width=0.125)
    hfta.load_from_unfused(fused, serial_init)
    optimizer = fused_optim.Adadelta(fused.parameters(), num_models=B, lr=LRS)
    criterion = hfta.FusedCrossEntropyLoss(B)
    curves = [[] for _ in range(B)]
    for step in range(steps):
        x, y = batches[step]
        optimizer.zero_grad()
        fused_x = fused.fuse_inputs([nn.tensor(x)] * B)
        logits = fused(fused_x)
        losses = criterion.per_model(logits, np.stack([y] * B))
        losses.sum().backward()
        optimizer.step()
        for b in range(B):
            curves[b].append(float(losses.data[b]))
    return fused, curves


class TestConvergenceEquivalence:
    def test_resnet_fused_loss_curves_overlap_serial(self):
        """Figure 11: fused and serial training-loss curves coincide."""
        dataset = SyntheticCIFAR10(num_samples=64, image_size=16,
                                   num_classes=4, seed=0)
        loader = DataLoader(dataset, batch_size=16, shuffle=True, seed=0)
        batches = [next(iter(loader)) for _ in range(1)]
        batches = batches * 6  # re-use the same batches for both runs
        steps = 6

        serial_init = [ResNet18(num_classes=4, width=0.125,
                                generator=np.random.default_rng(500 + b))
                       for b in range(B)]
        serial_models, serial_curves = train_serial_resnets(steps, batches)
        _, fused_curves = train_fused_resnets(steps, batches, serial_init)

        for b in range(B):
            np.testing.assert_allclose(fused_curves[b], serial_curves[b],
                                       rtol=5e-3, atol=5e-3)

    def test_fused_weights_match_serial_after_training(self):
        dataset = SyntheticCIFAR10(num_samples=32, image_size=16,
                                   num_classes=4, seed=1)
        loader = DataLoader(dataset, batch_size=16, seed=1)
        batch = next(iter(loader))
        batches = [batch] * 4

        serial_init = [ResNet18(num_classes=4, width=0.125,
                                generator=np.random.default_rng(500 + b))
                       for b in range(B)]
        serial_models, _ = train_serial_resnets(4, batches)
        fused, _ = train_fused_resnets(4, batches, serial_init)

        for b in range(B):
            template = ResNet18(num_classes=4, width=0.125)
            hfta.export_to_unfused(fused, b, template)
            for (name, p_serial), (_, p_fused) in zip(
                    serial_models[b].named_parameters(),
                    template.named_parameters()):
                np.testing.assert_allclose(p_fused.data, p_serial.data,
                                           rtol=1e-3, atol=1e-4,
                                           err_msg=f"model {b} param {name}")

    def test_pointnet_array_trains_all_models(self):
        """A fused PointNet array reduces every model's loss simultaneously."""
        rng = np.random.default_rng(0)
        fused = PointNetCls(num_classes=4, num_models=B, width=0.125,
                            dropout=0.0, input_transform=False)
        optimizer = fused_optim.Adam(fused.parameters(), num_models=B,
                                     lr=[1e-3, 3e-3])
        criterion = hfta.FusedNLLLoss(B)
        x = rng.standard_normal((8, 3, 32)).astype(np.float32)
        y = rng.integers(0, 4, size=8)
        first, last = None, None
        for step in range(10):
            optimizer.zero_grad()
            out = fused(fused.fuse_inputs([nn.tensor(x)] * B))
            losses = criterion.per_model(out, np.stack([y] * B))
            losses.sum().backward()
            optimizer.step()
            if first is None:
                first = losses.data
            last = losses.data
        assert np.all(last < first)

    def test_different_lrs_diverge_models_within_array(self):
        """Models in one array follow different trajectories when their
        hyper-parameters differ (they are independent jobs, not an ensemble)."""
        fused = hops.Linear(B, 4, 2)
        initial = fused.weight.data.copy()
        opt = fused_optim.SGD(fused.parameters(), num_models=B,
                              lr=[0.0, 0.5])
        x = nn.randn(B, 6, 4)
        (fused(x) ** 2).sum().backward()
        opt.step()
        np.testing.assert_array_equal(fused.weight.data[0], initial[0])
        assert not np.allclose(fused.weight.data[1], initial[1])
