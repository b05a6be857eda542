"""A PointNet conv block as one node (``F.conv1d_bn`` via
``OpsLibrary.conv_bn``), against the three nodes it replaces.

For the serial (``nn.Conv1d`` + ``nn.BatchNorm1d``) and the fused (B = 3,
4) module pairs, with and without the ReLU, in training and eval mode, run
inline, split over two halves of the groups (``parallel.MIN_BYTES`` 0) and
with one channel per batch-norm backward chunk: the output, the running
statistics and the gradients of the input and of all four parameters are
bitwise those of ``relu(bn(conv(x)))``, and the block is one node.
"""

import itertools

import numpy as np
import pytest

from repro import nn
from repro.hfta.ops.factory import OpsLibrary
from repro.nn import functional as F
from repro.nn import parallel

C_IN, C_OUT, N, L = 6, 32, 5, 40


def block_modules(num_models):
    lib = OpsLibrary(num_models)
    conv = lib.Conv1d(C_IN, C_OUT, 1, generator=lib.generators(range(lib.B)))
    bn = lib.BatchNorm1d(C_OUT)
    rng = np.random.default_rng(1)
    for p in bn.parameters():
        p.data[...] = rng.standard_normal(p.shape)
    bn.running_mean[...] = rng.standard_normal(bn.running_mean.shape)
    bn.running_var[...] = rng.random(bn.running_var.shape) + 0.5
    return lib, conv, bn


def run(num_models, relu, training, as_block):
    """(output, running mean, running var, grads of x, conv weight, conv
    bias, bn weight, bn bias) of one forward and backward."""
    lib, conv, bn = block_modules(num_models)
    bn.train(training)
    rng = np.random.default_rng(2)
    x = nn.tensor(rng.standard_normal((N, lib.B * C_IN, L)).astype(
        np.float32), requires_grad=True)
    if as_block:
        y = lib.conv_bn(conv, bn, x, relu=relu)
    else:
        y = bn(conv(x))
        y = y.relu() if relu else y
    y.backward(rng.standard_normal(y.shape).astype(np.float32))
    return [y.data, bn.running_mean, bn.running_var, x.grad,
            conv.weight.grad, conv.bias.grad, bn.weight.grad, bn.bias.grad]


@pytest.mark.parametrize(
    "num_models, relu, training",
    list(itertools.product([None, 3, 4], [True, False], [True, False])))
@pytest.mark.parametrize("mode", ["inline", "split", "channel_chunks"])
def test_block_is_bitwise_the_three_nodes(monkeypatch, num_models, relu,
                                          training, mode):
    with monkeypatch.context() as inline:
        inline.setattr(parallel, "MIN_BYTES", float("inf"))
        reference = run(num_models, relu, training, as_block=False)
    if mode != "inline":
        monkeypatch.setattr(parallel, "MIN_BYTES", 0)
    if mode == "channel_chunks":
        monkeypatch.setattr(F, "_CHUNK_BYTES", 1)
    block = run(num_models, relu, training, as_block=True)
    for name, want, got in zip(("out", "running_mean", "running_var", "x",
                                "conv.weight", "conv.bias", "bn.weight",
                                "bn.bias"), reference, block):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("num_models", [None, 4])
def test_block_is_one_node_over_the_modules_parameters(num_models):
    lib, conv, bn = block_modules(num_models)
    x = nn.tensor(np.ones((N, lib.B * C_IN, L), np.float32),
                  requires_grad=True)
    y = lib.conv_bn(conv, bn, x)
    assert y._op == "conv1d_bn"
    assert y._prev == (x, conv.weight, conv.bias, bn.weight, bn.bias)


def test_block_takes_only_a_pointwise_conv_and_its_batch_norm():
    lib = OpsLibrary(2)
    x = nn.tensor(np.ones((N, 2 * C_IN, L), np.float32))
    with pytest.raises(ValueError, match="pointwise"):
        lib.conv_bn(lib.Conv1d(C_IN, C_OUT, 3), lib.BatchNorm1d(C_OUT), x)
    with pytest.raises(ValueError, match="BatchNorm1d over 16"):
        lib.conv_bn(lib.Conv1d(C_IN, C_OUT, 1), lib.BatchNorm1d(16), x)
    with pytest.raises(ValueError, match=r"\[N, 12, L\]"):
        lib.conv_bn(lib.Conv1d(C_IN, C_OUT, 1), lib.BatchNorm1d(C_OUT),
                    nn.tensor(np.ones((N, C_IN, L), np.float32)))
