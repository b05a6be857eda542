"""Tests for the unfused optimizers."""

import numpy as np
import pytest

from repro import nn, optim
from repro.nn import functional as F


def quadratic_param(value=5.0):
    return nn.tensor(np.array([value], dtype=np.float64), requires_grad=True)


def step_once(opt, p):
    opt.zero_grad()
    (p * p).sum().backward()
    opt.step()


class TestSGD:
    def test_plain_sgd_descends(self):
        p = quadratic_param()
        opt = optim.SGD([p], lr=0.1)
        for _ in range(50):
            step_once(opt, p)
        assert abs(p.data[0]) < 1e-3

    def test_momentum_accelerates(self):
        p_plain, p_momentum = quadratic_param(), quadratic_param()
        plain = optim.SGD([p_plain], lr=0.01)
        mom = optim.SGD([p_momentum], lr=0.01, momentum=0.9)
        for _ in range(20):
            step_once(plain, p_plain)
            step_once(mom, p_momentum)
        assert abs(p_momentum.data[0]) < abs(p_plain.data[0])

    def test_weight_decay_shrinks_weights(self):
        p = nn.tensor(np.array([1.0]), requires_grad=True)
        opt = optim.SGD([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.data[0] < 1.0

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            optim.SGD([quadratic_param()], lr=-1.0)

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            optim.SGD([quadratic_param()], lr=0.1, nesterov=True)


class TestAdamFamily:
    def test_adam_converges_on_quadratic(self):
        p = quadratic_param()
        opt = optim.Adam([p], lr=0.5)
        for _ in range(200):
            step_once(opt, p)
        assert abs(p.data[0]) < 5e-2

    def test_adam_bias_correction_first_step(self):
        p = nn.tensor(np.array([1.0]), requires_grad=True)
        opt = optim.Adam([p], lr=0.1)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        # with bias correction the first update magnitude is ~lr
        assert p.data[0] == pytest.approx(1.0 - 0.1, abs=1e-3)

    def test_adamw_decoupled_decay(self):
        p_adam = nn.tensor(np.array([1.0]), requires_grad=True)
        p_adamw = nn.tensor(np.array([1.0]), requires_grad=True)
        a = optim.Adam([p_adam], lr=0.0, weight_decay=0.5)
        w = optim.AdamW([p_adamw], lr=0.1, weight_decay=0.5)
        p_adam.grad = np.zeros(1, dtype=np.float32)
        p_adamw.grad = np.zeros(1, dtype=np.float32)
        a.step(); w.step()
        assert p_adam.data[0] == pytest.approx(1.0)      # lr=0 -> no update
        assert p_adamw.data[0] < 1.0                     # decoupled decay applied

    def test_adadelta_makes_steady_progress(self):
        # Adadelta's effective step starts tiny (acc_delta is zero), so check
        # monotone descent rather than full convergence in few steps.
        p = quadratic_param()
        opt = optim.Adadelta([p], lr=1.0, rho=0.9)
        trajectory = [abs(p.data[0])]
        for _ in range(300):
            step_once(opt, p)
            trajectory.append(abs(p.data[0]))
        assert trajectory[-1] < 0.8 * trajectory[0]
        assert all(b <= a + 1e-9 for a, b in zip(trajectory, trajectory[1:]))

    def test_adam_invalid_betas(self):
        with pytest.raises(ValueError):
            optim.Adam([quadratic_param()], betas=(1.5, 0.9))

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            optim.Adam([], lr=0.1)

    def test_skips_parameters_without_grad(self):
        p = quadratic_param()
        opt = optim.Adam([p], lr=0.1)
        opt.step()  # no grad yet: should be a no-op, not an error
        assert p.data[0] == 5.0


class TestEndToEndTraining:
    def test_small_mlp_learns_xor(self):
        rng = np.random.default_rng(0)
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.float32)
        y = np.array([0, 1, 1, 0])
        model = nn.Sequential(
            nn.Linear(2, 16, generator=rng), nn.Tanh(),
            nn.Linear(16, 2, generator=rng))
        opt = optim.Adam(model.parameters(), lr=0.05)
        first_loss = None
        for step in range(300):
            opt.zero_grad()
            loss = F.cross_entropy(model(nn.tensor(x)), y)
            loss.backward()
            opt.step()
            if first_loss is None:
                first_loss = loss.item()
        assert loss.item() < 0.1 < first_loss
        preds = model(nn.tensor(x)).argmax(axis=1)
        np.testing.assert_array_equal(preds, y)
