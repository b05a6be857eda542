"""The criterion node is bitwise the composition it replaced.

Cross entropy and NLL over a trailing class axis are one autograd node
(``F.nll_per_group``; the serial ``F.cross_entropy``/``F.nll_loss`` on
``[N, C]`` input are its one-group case).  It used to be ``log_softmax`` →
a fancy-index pick → negation → ``Tensor.mean`` (``sum * (1 / M)``); that
composition is rebuilt here from ``Tensor`` primitives, and the node's
output and its input gradient must carry the same bits — for the serial
``[N, C]`` layout, fused ``[B, N, C]`` at B = 3 and 8, the LM's
``[B, N·L, V]``, a ``[B, N, P, C]`` segmentation layout, float32 and
float64, and a zero upstream gradient, whose picked entries the
composition's scatter left at ``0.0 + -0.0 = +0.0``.  (One intended
difference: a serial float64 loss is no longer rounded to float32.)
"""

import numpy as np
import pytest

from repro import hfta, nn
from repro.nn import functional as F


def composed(x, target, from_logits, grouped):
    """The replaced composition: [G, ..., C] -> [G], or [N, C] -> []."""
    lp = F.log_softmax(x, axis=-1) if from_logits else x
    tgt = np.asarray(target).astype(np.int64)
    if not grouped:
        rows = -lp[np.arange(lp.shape[0]), tgt]
        if rows.dtype == np.float64:
            # ``Tensor.sum()`` wraps numpy's float64 scalar as float32, so
            # the composition rounded a float64 loss to float32 here; the
            # node keeps float64, as the grouped layout always did
            return rows.reshape(1, -1).mean(axis=-1).reshape(())
        return rows.mean()
    tgt = tgt.reshape(lp.shape[:-1])
    rows = -lp[(*np.indices(tgt.shape, sparse=True), tgt)]
    if rows.ndim != 2:
        rows = rows.reshape(rows.shape[0], -1)
    return rows.mean(axis=-1)


def node(x, target, from_logits, grouped):
    if grouped:
        return F.nll_per_group(x, target, from_logits=from_logits)
    return (F.cross_entropy if from_logits else F.nll_loss)(x, target)


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


#: (id, input shape, grouped)
LAYOUTS = [
    ("serial", (16, 10), False),
    ("serial-odd", (7, 5), False),
    ("fused-b3", (3, 16, 10), True),
    ("fused-b8", (8, 32, 10), True),
    ("fused-odd", (3, 7, 5), True),
    ("lm", (4, 6 * 7, 64), True),
    ("seg", (2, 3, 5, 4), True),
]


@pytest.mark.parametrize("upstream", ["ones", "random", "zero"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=lambda d: d.__name__)
@pytest.mark.parametrize("from_logits", [True, False],
                         ids=["cross_entropy", "nll"])
@pytest.mark.parametrize("shape,grouped", [layout[1:] for layout in LAYOUTS],
                         ids=[layout[0] for layout in LAYOUTS])
def test_node_is_bitwise_the_composition(shape, grouped, from_logits, dtype,
                                         upstream):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    data = rng.standard_normal(shape).astype(dtype) * 3
    if not from_logits:
        data = F.log_softmax(nn.tensor(data), axis=-1).data
    target = rng.integers(0, shape[-1], size=shape[:-1])
    g = {"ones": np.ones, "zero": np.zeros}.get(
        upstream, rng.standard_normal)(shape[:1] if grouped else ())
    g = np.asarray(g, dtype=dtype)
    outs = []
    for build in (composed, node):
        x = nn.tensor(data.copy(), requires_grad=True)
        out = build(x, target, from_logits, grouped)
        out.backward(g)
        outs.append((out.data, x.grad))
    (want, want_grad), (got, got_grad) = outs
    assert_bitwise(got, want)
    assert_bitwise(got_grad, want_grad)
    if upstream == "zero":
        assert not np.signbit(got_grad).any()


@pytest.mark.parametrize("from_logits", [True, False])
def test_criterion_is_one_node(from_logits):
    x = nn.tensor(np.zeros((3, 4, 5), np.float32), requires_grad=True)
    out = F.nll_per_group(x, np.zeros((3, 4)), from_logits=from_logits)
    assert out.shape == (3,) and out._prev == (x,)
    serial = (F.cross_entropy if from_logits else F.nll_loss)(
        nn.tensor(np.zeros((4, 5), np.float32), requires_grad=True),
        np.zeros(4))
    assert serial.shape == () and len(serial._prev) == 1


@pytest.mark.parametrize("loss", [hfta.FusedCrossEntropyLoss,
                                  hfta.FusedNLLLoss])
def test_fused_criteria_are_the_node(loss):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((3, 8, 5)).astype(np.float32)
    target = rng.integers(0, 5, size=(3, 8))
    got = loss(3).per_model(nn.tensor(data), target)
    want = F.nll_per_group(nn.tensor(data), target,
                           from_logits=loss is hfta.FusedCrossEntropyLoss)
    assert_bitwise(got.data, want.data)
