"""Fused optimizer / fused-loss equivalence tests.

The central claim (paper Section 3 "Convergence", Appendix C/D): training B
models inside one fused array with per-model hyper-parameter vectors follows
exactly the same trajectory as training the B models independently.
"""

import numpy as np
import pytest

from repro import nn, optim as serial_optim, hfta
from repro.hfta import ops as hops, optim as fused_optim
from repro.nn import functional as F

B = 3
LRS = [1e-2, 5e-3, 2e-2]


def build_pair(seed_base=50, width=B):
    """``width`` serial Linear models and the fused array initialized
    identically."""
    serial = [nn.Linear(6, 4, generator=np.random.default_rng(seed_base + b))
              for b in range(width)]
    return serial, hfta.load_from_unfused(hops.Linear(width, 6, 4), serial)


def train_pair(serial_opts, fused_opt, serial, fused, steps=4, seed=0,
               fused_criterion=None):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        x = rng.standard_normal((5, 6)).astype(np.float32)
        t = rng.standard_normal((5, 4)).astype(np.float32)
        for b, model in enumerate(serial):
            serial_opts[b].zero_grad()
            F.mse_loss(model(nn.tensor(x)), t).backward()
            serial_opts[b].step()
        fused_opt.zero_grad()
        pred = fused(hops.fuse_batch([nn.tensor(x)] * B))
        criterion = fused_criterion or hfta.FusedMSELoss(B)
        criterion(pred, np.stack([t] * B)).backward()
        fused_opt.step()


def max_weight_divergence(serial, fused):
    worst = 0.0
    for b, model in enumerate(serial):
        slot = hfta.export_to_unfused(fused, b, nn.Linear(6, 4))
        worst = max(worst, np.abs(model.weight.data - slot.weight.data).max(),
                    np.abs(model.bias.data - slot.bias.data).max())
    return worst


class TestFusedOptimizerEquivalence:
    def test_adam_per_model_lrs_match_serial(self):
        serial, fused = build_pair()
        sopts = [serial_optim.Adam(m.parameters(), lr=LRS[b])
                 for b, m in enumerate(serial)]
        fopt = fused_optim.Adam(fused.parameters(), num_models=B, lr=LRS)
        train_pair(sopts, fopt, serial, fused)
        assert max_weight_divergence(serial, fused) == 0

    def test_sgd_momentum_match_serial(self):
        serial, fused = build_pair(60)
        momenta = [0.0, 0.5, 0.9]
        sopts = [serial_optim.SGD(m.parameters(), lr=LRS[b],
                                  momentum=momenta[b])
                 for b, m in enumerate(serial)]
        fopt = fused_optim.SGD(fused.parameters(), num_models=B, lr=LRS,
                               momentum=momenta)
        train_pair(sopts, fopt, serial, fused)
        assert max_weight_divergence(serial, fused) == 0

    def test_adadelta_match_serial(self):
        serial, fused = build_pair(70)
        sopts = [serial_optim.Adadelta(m.parameters(), lr=1.0)
                 for m in serial]
        fopt = fused_optim.Adadelta(fused.parameters(), num_models=B, lr=1.0)
        train_pair(sopts, fopt, serial, fused)
        assert max_weight_divergence(serial, fused) == 0

    def test_adam_different_weight_decay_per_model(self):
        serial, fused = build_pair(80)
        wds = [0.0, 0.1, 0.3]
        sopts = [serial_optim.Adam(m.parameters(), lr=1e-2, weight_decay=wds[b])
                 for b, m in enumerate(serial)]
        fopt = fused_optim.Adam(fused.parameters(), num_models=B, lr=1e-2,
                                weight_decay=wds)
        train_pair(sopts, fopt, serial, fused)
        assert max_weight_divergence(serial, fused) == 0

    def test_fused_param_shape_validation(self):
        bad = nn.Parameter(np.zeros((B + 1, 4)))
        with pytest.raises(ValueError):
            fused_optim.Adam([bad], num_models=B)

    def test_hyperparameter_vector_length_validation(self):
        _, fused = build_pair()
        with pytest.raises(ValueError):
            fused_optim.Adam(fused.parameters(), num_models=B, lr=[0.1, 0.2])

    def test_unfused_param_group_for_partial_fusion(self):
        """Partial fusion: unfused params update with their model's scalars."""
        _, fused = build_pair()
        extra = nn.Parameter(np.ones(4, dtype=np.float32))
        opt = fused_optim.SGD(fused.parameters(), num_models=B, lr=LRS)
        opt.add_unfused_param_group([extra], model_index=2)
        extra.grad = np.ones(4, dtype=np.float32)
        for p in fused.parameters():
            p.grad = np.zeros_like(p.data)
        opt.step()
        np.testing.assert_allclose(extra.data, 1.0 - LRS[2], rtol=1e-6)


#: criterion -> (fused class, serial functional, target maker, and the
#: map from a Linear's output to the criterion's input)
CRITERIA = {
    "cross_entropy": (hfta.FusedCrossEntropyLoss, F.cross_entropy,
                      lambda rng, n: rng.integers(0, 4, size=n),
                      lambda out: out),
    "nll": (hfta.FusedNLLLoss, F.nll_loss,
            lambda rng, n: rng.integers(0, 4, size=n),
            lambda out: F.log_softmax(out, axis=-1)),
    "mse": (hfta.FusedMSELoss, F.mse_loss,
            lambda rng, n: rng.standard_normal((n, 4)).astype(np.float32),
            lambda out: out),
    "bce": (hfta.FusedBCELoss, F.binary_cross_entropy,
            lambda rng, n: rng.integers(0, 2, size=(n, 4)).astype(np.float32),
            F.sigmoid),
}


class TestLossScaling:
    # every pair but (4, 16) has fl32(B * fl32(1/(B*N))) != fl32(1/N): a
    # fused loss written as B * mean over B*N rows is an ulp off serial
    # there, while power-of-two B and N (the (4, 16) control) hide it
    @pytest.mark.parametrize("width,batch", [(3, 5), (3, 10), (5, 10),
                                             (6, 10), (7, 7), (4, 16)])
    @pytest.mark.parametrize("name", sorted(CRITERIA))
    def test_fused_cross_entropy_gradient_equals_independent(self, name,
                                                             width, batch):
        """Appendix C: the fused loss gives each model exactly the gradients
        and the loss value it gets alone — bitwise, at any (B, N)."""
        fused_cls, serial_loss, make_target, adapt = CRITERIA[name]
        serial, fused = build_pair(90, width)
        rng = np.random.default_rng(0)
        xs = [rng.standard_normal((batch, 6)).astype(np.float32)
              for _ in range(width)]
        ts = [make_target(rng, batch) for _ in range(width)]
        serial_losses = []
        for model, x, t in zip(serial, xs, ts):
            loss = serial_loss(adapt(model(nn.tensor(x))), t)
            serial_losses.append(loss.data)
            loss.backward()
        pred = adapt(fused(hops.fuse_batch([nn.tensor(x) for x in xs])))
        losses = fused_cls(width).per_model(pred, np.stack(ts))
        losses.sum().backward()
        np.testing.assert_array_equal(losses.data, serial_losses)
        for b, model in enumerate(serial):
            np.testing.assert_array_equal(fused.weight.grad[b],
                                          model.weight.grad)
            np.testing.assert_array_equal(fused.bias.grad[b], model.bias.grad)

    def test_per_model_losses_reported(self):
        _, fused = build_pair(95)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 6)).astype(np.float32)
        t = rng.integers(0, 4, size=(B, 5))
        crit = hfta.FusedCrossEntropyLoss(B)
        pred = fused(hops.fuse_batch([nn.tensor(x)] * B))
        per_model = crit.per_model(pred, t)
        assert per_model.shape == (B,)
        assert np.all(np.isfinite(per_model.data))
        assert crit(pred, t).data == per_model.data.sum()


class TestFusionHelpers:
    def test_load_and_export_roundtrip(self):
        serial, fused = build_pair(110)
        template = nn.Linear(6, 4)
        hfta.export_to_unfused(fused, 1, template)
        np.testing.assert_array_equal(template.weight.data,
                                      serial[1].weight.data)

    def test_load_from_unfused_shape_mismatch(self):
        serial = [nn.Linear(6, 4) for _ in range(2)]
        fused = hops.Linear(3, 6, 4)   # wrong B
        with pytest.raises(ValueError):
            hfta.load_from_unfused(fused, serial)

    def test_validate_fusibility_accepts_identical_models(self):
        models = [nn.Sequential(nn.Linear(4, 4), nn.ReLU()) for _ in range(3)]
        assert hfta.validate_fusibility(models)

    def test_validate_fusibility_rejects_shape_mismatch(self):
        models = [nn.Linear(4, 4), nn.Linear(4, 5)]
        with pytest.raises(ValueError):
            hfta.validate_fusibility(models)

    def test_validate_fusibility_rejects_structure_mismatch(self):
        models = [nn.Sequential(nn.Linear(4, 4)),
                  nn.Sequential(nn.Linear(4, 4), nn.ReLU())]
        with pytest.raises(ValueError):
            hfta.validate_fusibility(models)

    def test_fused_array_width_and_parameter_count(self):
        _, fused = build_pair()
        assert hfta.fused_array_width(fused) == B
        assert fused.num_parameters() == B * (6 * 4 + 4)
