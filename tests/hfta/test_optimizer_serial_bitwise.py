"""The fused optimizer step *is* the serial one, bit for bit.

Optimizer only: no model, no backward pass.  Identical gradients are fed to
a fused optimizer over ``[B, ...]`` parameters and to ``B`` ``repro.optim``
optimizers over the slices, every hyper-parameter differs per slot (weight
decay is zero on some slots and not on others), every slot also owns one
unfused ``model_index`` parameter (partial fusion), and after 50 steps every
parameter and every state array of every slot must be ``np.array_equal`` to
its serial twin's — in float32 and in float64.  Run it after any change
under ``src/repro/hfta/optim``.
"""

import tracemalloc

import numpy as np
import pytest

from repro import optim as serial_optim
from repro.hfta import optim as fused_optim
from repro.hfta.optim import merge_optimizers, split_optimizer
from repro.nn.tensor import Tensor

STEPS = 50
WIDTHS = (1, 3, 8)
DTYPES = (np.float32, np.float64)
#: per-slot shapes of the fused parameters: matrix, broadcast row, 1-d, and
#: one element (the shape of a step counter out of the checkpoint codec)
SHAPES = ((5, 7), (1, 7), (3,), (1,))
UNFUSED_SHAPE = (4, 2)


def _decay(b):
    return 0.0 if b % 2 else 1e-2 * (1 + b)


def _adam(b):
    return dict(lr=1e-3 * (1 + b), betas=(0.8 + 0.02 * b, 0.99 + 0.001 * b),
                eps=1e-8 * (1 + b), weight_decay=_decay(b))


def _sgd(momentum, nesterov=False):
    def hypers(b):
        return dict(lr=1e-2 * (1 + b), momentum=momentum(b),
                    weight_decay=_decay(b), nesterov=nesterov)
    return hypers


def _adadelta(b):
    return dict(lr=1.0 - 0.05 * b, rho=0.9 - 0.03 * b, eps=1e-6 * (1 + b),
                weight_decay=_decay(b))


#: name -> (serial class, fused class, slot index -> serial keyword arguments)
CASES = {
    "adam": (serial_optim.Adam, fused_optim.Adam, _adam),
    "adamw": (serial_optim.AdamW, fused_optim.AdamW, _adam),
    "sgd": (serial_optim.SGD, fused_optim.SGD, _sgd(lambda b: 0.0)),
    # slot 1 runs without momentum: the serial twin keeps no buffer at all
    "sgd-momentum": (serial_optim.SGD, fused_optim.SGD,
                     _sgd(lambda b: 0.0 if b == 1 else 0.9 - 0.1 * b)),
    "sgd-nesterov": (serial_optim.SGD, fused_optim.SGD,
                     _sgd(lambda b: 0.9 - 0.1 * b, nesterov=True)),
    "adadelta": (serial_optim.Adadelta, fused_optim.Adadelta, _adadelta),
}


def _fused_kwargs(hypers, slots):
    """Per-slot serial keyword arguments as the fused per-model vectors."""
    per_slot = [hypers(b) for b in slots]
    out = {}
    for key, first in per_slot[0].items():
        values = [kw[key] for kw in per_slot]
        if key == "betas":
            out[key] = tuple([v[i] for v in values] for i in (0, 1))
        else:
            out[key] = first if isinstance(first, bool) else values
    return out


class Pair:
    """A fused optimizer and its ``B`` serial twins over the same numbers."""

    def __init__(self, case, width, dtype, unfused):
        serial_cls, fused_cls, hypers = CASES[case]
        self.width, self.dtype = width, dtype
        rng = np.random.default_rng(width)
        self.fused = [Tensor(rng.standard_normal((width,) + s).astype(dtype))
                      for s in SHAPES]
        self.unfused = [Tensor(rng.standard_normal(UNFUSED_SHAPE)
                               .astype(dtype))
                        for _ in range(width if unfused else 0)]
        self.serial = [[Tensor(p.data[b].copy()) for p in self.fused]
                       + [Tensor(u.data.copy()) for u in self.unfused[b:b + 1]]
                       for b in range(width)]
        self.optimizer = fused_cls(self.fused, num_models=width,
                                   **_fused_kwargs(hypers, range(width)))
        for b, u in enumerate(self.unfused):
            self.optimizer.add_unfused_param_group([u], model_index=b)
        self.twins = [serial_cls(params, **hypers(b))
                      for b, params in enumerate(self.serial)]
        self.rng = np.random.default_rng([width, 1])

    def step(self, optimizers=None):
        """One step on identical gradients.  ``optimizers`` is a list of
        ``(fused optimizer, its parameters, first slot)`` when the array is
        split; the default is the whole array."""
        fused_grads, unfused_grads = (
            [self.rng.standard_normal(p.shape).astype(self.dtype)
             for p in params] for params in (self.fused, self.unfused))
        for b, params in enumerate(self.serial):
            slot_grads = ([g[b].copy() for g in fused_grads]
                          + [g.copy() for g in unfused_grads[b:b + 1]])
            for p, g in zip(params, slot_grads):
                p.grad = g
            self.twins[b].step()
        for u, g in zip(self.unfused, unfused_grads):
            u.grad = g
        for optimizer, params, first in (
                optimizers or [(self.optimizer, self.fused, 0)]):
            for p, g in zip(params, fused_grads):
                p.grad = g[first:first + p.shape[0]]
            optimizer.step()

    def assert_bitwise(self):
        params = self.fused + self.unfused
        for b, (twin, serial) in enumerate(zip(self.twins, self.serial)):
            mine = params[:len(self.fused)] + self.unfused[b:b + 1]
            for pos, (p, s) in enumerate(zip(mine, serial)):
                fused_slot = pos < len(self.fused)
                data = p.data[b] if fused_slot else p.data
                assert np.array_equal(data, s.data), (b, pos)
                state = self.optimizer.state.get(id(p), {})
                for key, value in twin.state.get(id(s), {}).items():
                    got = state[key][b] if fused_slot else state[key]
                    assert np.array_equal(got, value), (b, pos, key)
        for p in params:
            for key, value in self.optimizer.state.get(id(p), {}).items():
                if key != "step":
                    assert value.dtype == p.data.dtype, key
        assert set(self.optimizer._buffers) == {np.dtype(self.dtype)}


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("case", CASES)
def test_fused_step_is_bitwise_the_serial_step(case, width, dtype):
    pair = Pair(case, width, dtype, unfused=True)
    for _ in range(STEPS):
        pair.step()
    pair.assert_bitwise()


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("width", WIDTHS[1:])
@pytest.mark.parametrize("case", CASES)
def test_bitwise_across_a_split_step_merge(case, width, dtype):
    pair = Pair(case, width, dtype, unfused=False)
    for _ in range(STEPS // 2):
        pair.step()
    cut = width // 2
    halves = []
    for keep in (range(cut), range(cut, width)):
        params = [Tensor(p.data[list(keep)]) for p in pair.fused]
        halves.append((split_optimizer(pair.optimizer, params, list(keep)),
                       params, keep[0]))
    pair.step(halves)
    (left, left_params, _), (right, right_params, _) = halves
    pair.fused = [Tensor(np.concatenate([a.data, b.data]))
                  for a, b in zip(left_params, right_params)]
    pair.optimizer = merge_optimizers(left, right, pair.fused)
    for _ in range(STEPS // 2):
        pair.step()
    pair.assert_bitwise()


@pytest.mark.parametrize("case", CASES)
def test_warm_step_allocates_no_parameter_sized_array(case):
    _, fused_cls, hypers = CASES[case]
    # 128 KiB and 512 KiB parameters: numpy's broadcast of a ``[B, 1, 1]``
    # column takes a fixed 32 KiB iterator buffer, which is not a temporary
    width, shapes = 8, ((64, 64), (128, 128))
    kwargs = dict(_fused_kwargs(hypers, range(width)), weight_decay=0.0)
    rng = np.random.default_rng(0)
    params = [Tensor(rng.standard_normal((width,) + s).astype(np.float32))
              for s in shapes]
    optimizer = fused_cls(params, num_models=width, **kwargs)
    for p in params:
        p.grad = rng.standard_normal(p.shape).astype(np.float32)
    for _ in range(3):
        optimizer.step()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        optimizer.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < min(p.data.nbytes for p in params)
