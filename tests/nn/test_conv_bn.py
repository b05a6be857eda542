"""A PointNet conv block as one node (``F.conv1d_bn`` via
``OpsLibrary.conv_bn``), against the three nodes it replaces.

For the serial (``nn.Conv1d`` + ``nn.BatchNorm1d``) and the fused (B = 3,
4) module pairs, with and without the ReLU, in training and eval mode, run
whole and with one channel per batch-norm backward chunk: the output, the
running statistics and the gradients of the input and of all four
parameters are bitwise those of ``relu(bn(conv(x)))``, and the block is one
node.  The fused arrays are also cut into the shards a host of two or ``B``
CPUs trains them in, each shard run at its own width: joined, the shards'
values are bitwise the whole array's.
"""

import itertools

import numpy as np
import pytest

from repro import hfta, nn
from repro.hfta.ops.factory import OpsLibrary
from repro.nn import functional as F

from ..conftest import SHARDINGS, shard_cuts

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


def join_shards(runs):
    """One :func:`run`'s list from its shards' lists: the output and the
    input gradient joined on the channels, the rest on the array dimension
    (the running statistics are block-folded ``[B * C]``)."""
    return [np.concatenate(values, axis=1 if index in (0, 3) else 0)
            for index, values in enumerate(zip(*runs))]


def sharded_run(num_models, cpus, relu, training):
    """:func:`run` of the block node with the fused array cut into the
    shards of a ``cpus``-CPU host, each run at its own width on its slots'
    channels of the same input and upstream gradient."""
    _, conv, bn = block_modules(num_models)
    bn.train(training)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((N, num_models * C_IN, L)).astype(np.float32)
    g = rng.standard_normal((N, num_models * C_OUT, L)).astype(np.float32)
    runs = []
    for lo, hi in shard_cuts(num_models, cpus):
        lib = OpsLibrary(hi - lo)
        conv_s, bn_s = (hfta.split_fused(m, range(lo, hi)) for m in (conv, bn))
        x_s = nn.tensor(x[:, lo * C_IN:hi * C_IN].copy(), requires_grad=True)
        y = lib.conv_bn(conv_s, bn_s, x_s, relu=relu)
        y.backward(g[:, lo * C_OUT:hi * C_OUT].copy())
        runs.append([y.data, bn_s.running_mean, bn_s.running_var, x_s.grad,
                     conv_s.weight.grad, conv_s.bias.grad, bn_s.weight.grad,
                     bn_s.bias.grad])
    return join_shards(runs)


@pytest.mark.parametrize(
    "num_models, relu, training",
    list(itertools.product([None, 3, 4], [True, False], [True, False])))
@pytest.mark.parametrize("mode", ["inline", "channel_chunks"])
def test_block_is_bitwise_the_three_nodes(monkeypatch, num_models, relu,
                                          training, mode):
    reference = run(num_models, relu, training, as_block=False)
    if mode == "channel_chunks":
        monkeypatch.setattr(F, "_CHUNK_BYTES", 1)
    block = run(num_models, relu, training, as_block=True)
    for name, want, got in zip(("out", "running_mean", "running_var", "x",
                                "conv.weight", "conv.bias", "bn.weight",
                                "bn.bias"), reference, block):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("relu, training",
                         list(itertools.product([True, False], repeat=2)))
@pytest.mark.parametrize("num_models, cpus", SHARDINGS)
@pytest.mark.parametrize("mode", ["inline", "channel_chunks"])
def test_sharded_block_is_bitwise_the_whole_array(monkeypatch, num_models,
                                                  cpus, relu, training, mode):
    """Each shard chunks its own channels, so the batch-norm backward's
    chunk boundaries move with the shard's width; its bytes must not."""
    reference = run(num_models, relu, training, as_block=False)
    if mode == "channel_chunks":
        monkeypatch.setattr(F, "_CHUNK_BYTES", 1)
    shards = sharded_run(num_models, cpus, relu, training)
    for name, want, got in zip(("out", "running_mean", "running_var", "x",
                                "conv.weight", "conv.bias", "bn.weight",
                                "bn.bias"), reference, shards):
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
