"""A PointNet global-feature block as one node (``F.conv1d_bn`` with
``global_max``, via ``OpsLibrary.conv_bn``), against the conv block node
followed by ``Tensor.max(axis=2)``, the two nodes it replaces.

For the serial and the fused (B = 3, 4) module pairs, with and without the
ReLU, in training and eval mode, run whole and with one channel per chunk,
and on inputs that force ties, a channel the ReLU zeroes, signed zeros, a
NaN row and a zero upstream gradient: the output, the running statistics
and the gradients of the input and of all four parameters are byte for
byte those of ``conv_bn(...).max(axis=2)`` — NaN for NaN, whose sign bit a
NaN-carrying chunk's SIMD loops do not fix (the conv block's chunked
backward already varies it with the chunk size).  Cut into the shards a
host of two or ``B`` CPUs trains a fused array in, each shard run at its
own width, the node's joined values are those of the whole array's block
then max, to the same bytes.
"""

import itertools

import numpy as np
import pytest

from repro import hfta, nn
from repro.hfta.ops.factory import OpsLibrary
from repro.nn import functional as F

from ..conftest import SHARDINGS, same_bytes, shard_cuts
from .test_conv_bn import C_IN, C_OUT, L, N, block_modules, join_shards

CASES = ("random", "ties", "negative_channel", "signed_zeros", "nan_row",
         "zero_grad")


def inputs(lib, bn, case):
    """(x, upstream gradient) of one case; a case may also set the batch
    norm's affine."""
    rng = np.random.default_rng(2)
    x = rng.standard_normal((N, lib.B * C_IN, L)).astype(np.float32)
    g = rng.standard_normal((N, lib.B * C_OUT)).astype(np.float32)
    gamma, beta = bn.weight.data.reshape(-1), bn.bias.data.reshape(-1)
    if case == "ties":              # every point twice: every maximum ties
        x[..., L // 2:] = x[..., :L // 2]
    elif case == "negative_channel":   # below zero at every point
        gamma[1], beta[1] = 1e-3, -1e3
    elif case == "signed_zeros":    # x_c * 0 + -0.0: +0.0 and -0.0 tie
        gamma[2], beta[2] = 0.0, -0.0
    elif case == "nan_row":
        x[1, :, 3] = np.nan
    elif case == "zero_grad":
        g[...] = 0.0
    return x, g


def run(num_models, relu, training, case, as_node):
    """(output, running mean, running var, grads of x, conv weight, conv
    bias, bn weight, bn bias) of one forward and backward."""
    lib, conv, bn = block_modules(num_models)
    bn.train(training)
    x, g = inputs(lib, bn, case)
    x = nn.tensor(x, requires_grad=True)
    with np.errstate(divide="ignore", invalid="ignore"):   # the NaN row
        if as_node:
            y = lib.conv_bn(conv, bn, x, relu=relu, global_max=True)
        else:
            y = lib.conv_bn(conv, bn, x, relu=relu).max(axis=2)
        y.backward(g)
    return [y.data, bn.running_mean, bn.running_var, x.grad,
            conv.weight.grad, conv.bias.grad, bn.weight.grad, bn.bias.grad]


def sharded_run(num_models, cpus, relu, training, case):
    """:func:`run` of the node with the fused array cut into the shards of
    a ``cpus``-CPU host, each run at its own width on its slots' channels
    of the same input and upstream gradient."""
    lib, conv, bn = block_modules(num_models)
    bn.train(training)
    x, g = inputs(lib, bn, case)
    runs = []
    for lo, hi in shard_cuts(num_models, cpus):
        conv_s, bn_s = (hfta.split_fused(m, range(lo, hi)) for m in (conv, bn))
        x_s = nn.tensor(x[:, lo * C_IN:hi * C_IN].copy(), requires_grad=True)
        with np.errstate(divide="ignore", invalid="ignore"):   # the NaN row
            y = OpsLibrary(hi - lo).conv_bn(conv_s, bn_s, x_s, relu=relu,
                                            global_max=True)
            y.backward(g[:, lo * C_OUT:hi * C_OUT].copy())
        runs.append([y.data, bn_s.running_mean, bn_s.running_var, x_s.grad,
                     conv_s.weight.grad, conv_s.bias.grad, bn_s.weight.grad,
                     bn_s.bias.grad])
    return join_shards(runs)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize(
    "num_models, relu, training",
    list(itertools.product([None, 3, 4], [True, False], [True, False])))
@pytest.mark.parametrize("mode", ["inline", "channel_chunks"])
def test_node_is_bytewise_the_block_then_the_max(monkeypatch, num_models,
                                                 relu, training, mode, case):
    reference = run(num_models, relu, training, case, as_node=False)
    if mode == "channel_chunks":
        monkeypatch.setattr(F, "_CHUNK_BYTES", 1)
    node = run(num_models, relu, training, case, as_node=True)
    for name, want, got in zip(("out", "running_mean", "running_var", "x",
                                "conv.weight", "conv.bias", "bn.weight",
                                "bn.bias"), reference, node):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert same_bytes(got, want), name


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("relu, training",
                         list(itertools.product([True, False], repeat=2)))
@pytest.mark.parametrize("num_models, cpus", SHARDINGS)
@pytest.mark.parametrize("mode", ["inline", "channel_chunks"])
def test_sharded_node_is_bytewise_the_whole_block_then_the_max(
        monkeypatch, num_models, cpus, relu, training, mode, case):
    reference = run(num_models, relu, training, case, as_node=False)
    if mode == "channel_chunks":
        monkeypatch.setattr(F, "_CHUNK_BYTES", 1)
    shards = sharded_run(num_models, cpus, relu, training, case)
    for name, want, got in zip(("out", "running_mean", "running_var", "x",
                                "conv.weight", "conv.bias", "bn.weight",
                                "bn.bias"), reference, shards):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert same_bytes(got, want), name


@pytest.mark.parametrize("num_models", [None, 4])
def test_node_is_one_node_keeping_one_activation(num_models):
    """The block's only ``[N, C, L]`` buffer is the centred input: no
    output or tie mask of that size is drawn from the arena."""
    lib, conv, bn = block_modules(num_models)
    points = 256                 # [N, B * C_OUT, points] float32 >= 128 KiB
    x = nn.tensor(np.ones((N, lib.B * C_IN, points), np.float32),
                  requires_grad=True)
    arena = nn.Arena()
    with arena.active():
        y = lib.conv_bn(conv, bn, x, global_max=True)
    assert y._op == "conv1d_bn_max" and y.shape == (N, lib.B * C_OUT)
    assert y._prev == (x, conv.weight, conv.bias, bn.weight, bn.bias)
    assert [(shape, count) for shape, _, count, _ in arena.holdings()] == [
        ((N, lib.B * C_OUT, points), 1)]
