"""A fused optimizer keeps its per-model scalar columns from one step to
the next, until a hyper-parameter changes.

The memo is keyed by the bytes of each group's hyper-parameter vectors.
After a retune — an in-place ``group["lr"] *= 10``, a new vector bound to
``group["lr"]``, or a split → step → merge — the next steps must be
bitwise those of a fresh optimizer built with the new values and handed
the same state.
"""

import copy

import numpy as np
import pytest

from repro.hfta import optim as fused_optim
from repro.hfta.optim import merge_optimizers, split_optimizer
from repro.nn.tensor import Tensor
from .test_optimizer_serial_bitwise import CASES, SHAPES, _fused_kwargs

WIDTH = 3
STEPS = 4


def grads(rng, params):
    return [rng.standard_normal(p.shape).astype(np.float32) for p in params]


def step(optimizer, params, gradients):
    for p, g in zip(params, gradients):
        p.grad = g.copy()
    optimizer.step()


def fresh_twin(optimizer, params):
    """A new optimizer of ``optimizer``'s class, built from its current
    hyper-parameter values, over copies of ``params``, holding a copy of
    its state."""
    group = optimizer.param_groups[0]
    kwargs = {k: group[k].copy() for k in optimizer._vector_hyperparams}
    if "beta1" in kwargs:
        kwargs["betas"] = (kwargs.pop("beta1"), kwargs.pop("beta2"))
    if "nesterov" in group:
        kwargs["nesterov"] = group["nesterov"]
    twins = [Tensor(p.data.copy()) for p in params]
    twin = type(optimizer)(twins, num_models=optimizer.num_models, **kwargs)
    twin.state = {id(t): copy.deepcopy(optimizer.state[id(p)])
                  for p, t in zip(params, twins) if id(p) in optimizer.state}
    return twin, twins


def retune_in_place(optimizer, params, rng):
    optimizer.param_groups[0]["lr"] *= 10
    return optimizer, params


def retune_by_rebinding(optimizer, params, rng):
    """A per-model step decay: a new ``lr`` vector, not an in-place edit."""
    group = optimizer.param_groups[0]
    group["lr"] = group["lr"] * np.array([0.5, 0.1, 0.25])
    return optimizer, params


def split_step_merge(optimizer, params, rng):
    """Split into slots [2] and [0, 1], step each, merge as [2, 0, 1]."""
    halves = []
    for keep in ([2], [0, 1]):
        part = [Tensor(p.data[keep]) for p in params]
        halves.append((split_optimizer(optimizer, part, keep), part))
    for half, part in halves:
        step(half, part, grads(rng, part))
    (a, pa), (b, pb) = halves
    merged = [Tensor(np.concatenate([x.data, y.data]))
              for x, y in zip(pa, pb)]
    return merge_optimizers(a, b, merged), merged


@pytest.mark.parametrize("retune", [retune_in_place, retune_by_rebinding,
                                    split_step_merge],
                         ids=["lr-in-place", "lr-rebound", "split-step-merge"])
@pytest.mark.parametrize("case", ["adam", "sgd-momentum", "adadelta"])
def test_retuned_optimizer_is_a_fresh_one(case, retune):
    _, fused_cls, hypers = CASES[case]
    rng = np.random.default_rng(7)
    params = [Tensor(rng.standard_normal((WIDTH,) + s).astype(np.float32))
              for s in SHAPES]
    optimizer = fused_cls(params, num_models=WIDTH,
                          **_fused_kwargs(hypers, range(WIDTH)))
    for _ in range(STEPS):          # the columns are memoized by now
        step(optimizer, params, grads(rng, params))
    before = optimizer.param_groups[0]["lr"].copy()
    optimizer, params = retune(optimizer, params, rng)
    assert not np.array_equal(optimizer.param_groups[0]["lr"], before)
    twin, twins = fresh_twin(optimizer, params)
    for _ in range(STEPS):
        gradients = grads(rng, params)
        step(optimizer, params, gradients)
        step(twin, twins, gradients)
    for p, t in zip(params, twins):
        assert np.array_equal(p.data, t.data)
        for key, value in twin.state.get(id(t), {}).items():
            assert np.array_equal(optimizer.state[id(p)][key], value), key


def test_unchanged_hyper_parameters_reuse_the_columns():
    """A warm step casts no column: the memo is hit."""
    params = [Tensor(np.ones((WIDTH, 4), np.float32))]
    optimizer = fused_optim.Adam(params, num_models=WIDTH,
                                 lr=[1e-3, 2e-3, 3e-3])
    calls = []
    original = optimizer._columns

    def counting(*args):
        calls.append(args)
        return original(*args)
    optimizer._columns = counting
    for _ in range(3):
        params[0].grad = np.full((WIDTH, 4), 0.5, np.float32)
        optimizer.step()
    # once for the hyper-parameters, once per step for bias correction
    assert len(calls) == 1 + 3
    optimizer.param_groups[0]["lr"][1] = 5e-3
    params[0].grad = np.full((WIDTH, 4), 0.5, np.float32)
    optimizer.step()
    assert len(calls) == 1 + 3 + 2
