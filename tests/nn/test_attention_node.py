"""Multi-head attention and the post-norm residual as one node each.

``F.attention`` replaces the chain a multi-head attention layer ran
between its projections — the heads' reshapes and permutes, ``q k^T``,
``* 1/sqrt(D)``, ``+ attn_mask``, softmax, dropout, ``· v`` and the
permute and reshape back — and ``F.layer_norm(x, ..., residual=sub)``
replaces ``F.layer_norm(x + sub, ...)``.  Both are checked byte for byte,
forward output and every gradient, against that composition, kept here as
the reference: serial and fused (B = 1, 3, 4), ``Lq != Lk``, no mask or a
float one, dropout off or 0.1 from a seeded generator, and with no arena
or one that hands out every buffer (``arena.MIN_BYTES = 0``).  A fused
array cut into the shards a host of two or ``B`` CPUs trains it in, each
shard run at its own width and drawing its rows of the whole array's
dropout mask, gives those bytes joined.

The attention mask is additive and must be a float array: a boolean mask
would add ``1.0`` where PyTorch forbids a position, so it raises.  Fused
per-model masks, one of them causal ``-inf`` rows, give each model byte
for byte what its serial layer computes with its own mask.
"""

import contextlib
import math

import numpy as np
import pytest

from repro import hfta, nn
from repro.hfta import ops as fused_ops
from repro.nn import arena
from repro.nn import functional as F

from tools.train_hash import ShardDraws

from ..conftest import SHARDINGS, same_bytes, shard_cuts

N, LQ, LK, E, H = 2, 5, 7, 12, 2     # D = 6: 1/sqrt(D) is inexact


def reference_attention(q, k, v, num_heads, attn_mask=None, dropout=0.0,
                        training=True, generator=None):
    """The primitive composition the attention node replaced."""
    *lead, lq, e = q.shape
    lk = k.shape[-2]
    d = e // num_heads
    nl = len(lead)
    heads = tuple(range(nl)) + (nl + 1, nl, nl + 2)     # [..., H, L, D]
    last_two = tuple(range(nl + 1)) + (nl + 2, nl + 1)
    qh = q.reshape(*lead, lq, num_heads, d).permute(*heads)
    kh = k.reshape(*lead, lk, num_heads, d).permute(*heads)
    vh = v.reshape(*lead, lk, num_heads, d).permute(*heads)
    scores = qh.matmul(kh.permute(*last_two)) * (1.0 / math.sqrt(d))
    if attn_mask is not None:
        scores = scores + nn.Tensor(attn_mask.astype(np.float32))
    attn = F.dropout(F.softmax(scores, axis=-1), dropout, training,
                     generator)
    return attn.matmul(vh).permute(*heads).reshape(*lead, lq, e)


def lead_of(num_models):
    return (N,) if num_models is None else (num_models, N)


def float_mask(num_models, rng, lq, lk):
    """An additive ``[lq, lk]`` mask broadcast over the batch and the
    heads: per model when fused."""
    models = () if num_models is None else (num_models, 1)
    mask = rng.standard_normal(models + (1, lq, lk)).astype(np.float32)
    mask[..., 0, 1:] = -np.inf                      # a row with one position
    return mask


@contextlib.contextmanager
def kernels(arena_on):
    """An arena handing out every buffer when ``arena_on``."""
    saved = arena.MIN_BYTES
    try:
        if arena_on:
            arena.MIN_BYTES = 0
            with nn.Arena().active():
                yield
        else:
            yield
    finally:
        arena.MIN_BYTES = saved


def leaves(rng, *shapes):
    return [nn.tensor(rng.standard_normal(s).astype(np.float32),
                      requires_grad=True) for s in shapes]


def grads_of(out, tensors, rng):
    g = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(g)
    return [out.data] + [t.grad for t in tensors]


def assert_same(got, want, names):
    for name, a, b in zip(names, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert same_bytes(a, b), name


WIDTHS = [None, 1, 3, 4]


def sharded(num_models, cpus, arrays, step):
    """``step(lo, hi, tensors)``'s values per shard of a ``cpus``-CPU host,
    joined on the array dimension; ``tensors`` are leaves of the shard's
    slots of ``arrays``, and each value is copied before the next shard
    runs, as a shard's step is read before its next."""
    runs = []
    for lo, hi in shard_cuts(num_models, cpus):
        tensors = [nn.tensor(a[lo:hi].copy(), requires_grad=True)
                   for a in arrays]
        runs.append([value.copy() for value in step(lo, hi, tensors)])
    return [np.concatenate(values) for values in zip(*runs)]


def attention_run(num_models, lq, masked, dropout, as_node):
    rng = np.random.default_rng([3, lq, masked])
    lead = lead_of(num_models)
    q, k, v = leaves(rng, lead + (lq, E), lead + (LK, E), lead + (LK, E))
    mask = float_mask(num_models, rng, lq, LK) if masked else None
    attend = F.attention if as_node else reference_attention
    out = attend(q, k, v, H, mask, dropout, True, np.random.default_rng(5))
    if as_node:
        assert out._op == "attention" and out._prev == (q, k, v)
    return grads_of(out, (q, k, v), rng)


@pytest.mark.parametrize("arena_on", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("lq", [LQ, LK])
@pytest.mark.parametrize("num_models", WIDTHS)
def test_attention_node_is_bytewise_the_composition(num_models, lq, masked,
                                                    dropout, arena_on):
    want = attention_run(num_models, lq, masked, dropout, as_node=False)
    with kernels(arena_on):
        for _ in range(2):                 # the second reuses the arena
            got = attention_run(num_models, lq, masked, dropout,
                                as_node=True)
    assert_same(got, want, ("out", "q", "k", "v"))


@pytest.mark.parametrize("arena_on", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("lq", [LQ, LK])
@pytest.mark.parametrize("num_models, cpus", SHARDINGS)
def test_sharded_attention_node_is_bytewise_the_whole_composition(
        num_models, cpus, lq, masked, dropout, arena_on):
    want = attention_run(num_models, lq, masked, dropout, as_node=False)
    rng = np.random.default_rng([3, lq, masked])
    lead = lead_of(num_models)
    qkv = [rng.standard_normal(s).astype(np.float32)
           for s in (lead + (lq, E), lead + (LK, E), lead + (LK, E))]
    mask = float_mask(num_models, rng, lq, LK) if masked else None
    g = rng.standard_normal(lead + (lq, E)).astype(np.float32)

    def step(lo, hi, tensors):
        out = F.attention(*tensors, H, None if mask is None else mask[lo:hi],
                          dropout, True, ShardDraws(5, lo, hi, num_models))
        out.backward(g[lo:hi].copy())
        return [out.data] + [t.grad for t in tensors]

    with kernels(arena_on):
        got = sharded(num_models, cpus, qkv, step)
    assert_same(got, want, ("out", "q", "k", "v"))


def layer_norm_run(num_models, as_node):
    rng = np.random.default_rng(4)
    lead = lead_of(num_models) + (LQ,)
    x, sub = leaves(rng, lead + (E,), lead + (E,))
    shape = (E,) if num_models is None else (num_models, 1, 1, E)
    weight, bias = leaves(rng, shape, shape)
    if as_node:
        out = F.layer_norm(x, (E,), weight, bias, residual=sub)
        assert out._op == "layer_norm"
        assert out._prev == (x, sub, weight, bias)
    else:
        out = F.layer_norm(x + sub, (E,), weight, bias)
    return grads_of(out, (x, sub, weight, bias), rng)


@pytest.mark.parametrize("arena_on", [False, True])
@pytest.mark.parametrize("num_models", WIDTHS)
def test_residual_layer_norm_is_bytewise_the_sum_then_the_norm(
        num_models, arena_on):
    want = layer_norm_run(num_models, as_node=False)
    with kernels(arena_on):
        for _ in range(2):
            got = layer_norm_run(num_models, as_node=True)
    assert_same(got, want, ("out", "x", "sub", "weight", "bias"))


@pytest.mark.parametrize("arena_on", [False, True])
@pytest.mark.parametrize("num_models, cpus", SHARDINGS)
def test_sharded_residual_layer_norm_is_bytewise_the_whole_sum_then_norm(
        num_models, cpus, arena_on):
    want = layer_norm_run(num_models, as_node=False)
    rng = np.random.default_rng(4)
    lead = lead_of(num_models) + (LQ,)
    shape = (num_models, 1, 1, E)
    arrays = [rng.standard_normal(s).astype(np.float32)
              for s in (lead + (E,), lead + (E,), shape, shape)]
    g = rng.standard_normal(lead + (E,)).astype(np.float32)

    def step(lo, hi, tensors):
        x, sub, weight, bias = tensors
        out = F.layer_norm(x, (E,), weight, bias, residual=sub)
        out.backward(g[lo:hi].copy())
        return [out.data] + [t.grad for t in tensors]

    with kernels(arena_on):
        got = sharded(num_models, cpus, arrays, step)
    assert_same(got, want, ("out", "x", "sub", "weight", "bias"))


def reference_layer(layer, x, attn_mask):
    """``TransformerEncoderLayer.forward`` as the composition ran it."""
    attn = layer.self_attn
    drop = attn.dropout
    core = reference_attention(
        attn.q_proj(x), attn.k_proj(x), attn.v_proj(x), attn.num_heads,
        attn_mask, 0.0 if drop is None else drop.p,
        drop is not None and drop.training,
        None if drop is None else drop.generator)
    attn_out = attn.out_proj(core)
    if layer.dropout is not None:
        attn_out = layer.dropout(attn_out)
    x = layer.norm1(x + attn_out)
    ff = layer.linear2(layer.activation(layer.linear1(x)))
    if layer.dropout is not None:
        ff = layer.dropout(ff)
    return layer.norm2(x + ff)


def encoder_layer(num_models, dropout):
    """An encoder layer with seeded weights and dropout draws."""
    gens = (np.random.default_rng(0) if num_models is None else
            [np.random.default_rng(b) for b in range(num_models)])
    layer = (nn.TransformerEncoderLayer(E, H, 16, dropout, generator=gens)
             if num_models is None else
             fused_ops.TransformerEncoderLayer(num_models, E, H, 16, dropout,
                                               generator=gens))
    for index, module in enumerate(layer.modules()):
        if type(module).__name__ == "Dropout":
            module.generator = np.random.default_rng([9, index])
    return layer


def layer_run(num_models, masked, dropout, as_node):
    layer = encoder_layer(num_models, dropout)
    rng = np.random.default_rng(6)
    [x] = leaves(rng, lead_of(num_models) + (LQ, E))
    mask = float_mask(num_models, rng, LQ, LQ) if masked else None
    out = layer(x, attn_mask=mask) if as_node else \
        reference_layer(layer, x, mask)
    return grads_of(out, [x] + list(layer.parameters()), rng)


@pytest.mark.parametrize("arena_on", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("num_models", WIDTHS)
def test_encoder_layer_is_bytewise_the_composition(num_models, masked,
                                                   dropout, arena_on):
    """Through the modules: the projections, the node's parents in ``(q,
    k, v)`` order — the layer input's gradient sums in the composition's
    order — and the residual norms."""
    want = layer_run(num_models, masked, dropout, as_node=False)
    with kernels(arena_on):
        got = layer_run(num_models, masked, dropout, as_node=True)
    names = ["out", "x"] + [name for name, _ in
                            encoder_layer(num_models, 0.0).named_parameters()]
    assert_same(got, want, names)


@pytest.mark.parametrize("arena_on", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("num_models, cpus", SHARDINGS)
def test_sharded_encoder_layer_is_bytewise_the_whole_composition(
        num_models, cpus, masked, dropout, arena_on):
    """Each shard is ``hfta.split_fused`` of the whole layer, every
    dropout module drawing the shard's rows of the whole array's mask."""
    want = layer_run(num_models, masked, dropout, as_node=False)
    layer = encoder_layer(num_models, dropout)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(lead_of(num_models) + (LQ, E)).astype(np.float32)
    mask = float_mask(num_models, rng, LQ, LQ) if masked else None
    g = rng.standard_normal(x.shape).astype(np.float32)

    def step(lo, hi, tensors):
        shard = hfta.split_fused(layer, range(lo, hi))
        for index, module in enumerate(shard.modules()):
            if type(module).__name__ == "Dropout":
                module.generator = ShardDraws([9, index], lo, hi, num_models)
        [x_s] = tensors
        out = shard(x_s, attn_mask=None if mask is None else mask[lo:hi])
        out.backward(g[lo:hi].copy())
        return [out.data, x_s.grad] + [p.grad for p in shard.parameters()]

    with kernels(arena_on):
        got = sharded(num_models, cpus, [x], step)
    names = ["out", "x"] + [name for name, _ in layer.named_parameters()]
    assert_same(got, want, names)


def test_fused_per_model_masks_are_bytewise_serial():
    """Unequal per-model float masks, one of them causal: the fused layer
    gives each model exactly what its serial layer gives with its own
    mask, forward and every gradient."""
    b = 3
    serial = [encoder_layer(None, 0.0) for _ in range(b)]
    for i, layer in enumerate(serial):
        for p in layer.parameters():
            p.data[...] = np.random.default_rng([i, p.size]).standard_normal(
                p.shape).astype(np.float32) * 0.3
    fused = hfta.load_from_unfused(encoder_layer(b, 0.0), serial)
    rng = np.random.default_rng(8)
    masks = rng.standard_normal((b, 1, 1, LQ, LQ)).astype(np.float32)
    masks[1] = np.triu(np.full((LQ, LQ), -np.inf, np.float32), 1)
    xs = rng.standard_normal((b, N, LQ, E)).astype(np.float32)
    g = rng.standard_normal((b, N, LQ, E)).astype(np.float32)

    x = nn.tensor(xs, requires_grad=True)
    out = fused(x, attn_mask=masks)
    out.backward(g)
    params = dict(fused.named_parameters())
    for i, layer in enumerate(serial):
        xi = nn.tensor(xs[i], requires_grad=True)
        oi = layer(xi, attn_mask=masks[i])
        oi.backward(g[i])
        assert same_bytes(out.data[i], oi.data)
        assert same_bytes(x.grad[i], xi.grad)
        for name, p in layer.named_parameters():
            assert same_bytes(params[name].grad[i], p.grad), name


@pytest.mark.parametrize("mask", [np.zeros((LQ, LQ), bool),
                                  np.zeros((LQ, LQ), np.int64)],
                         ids=["bool", "int"])
@pytest.mark.parametrize("num_models", [None, 2])
def test_a_non_float_mask_fails_closed(num_models, mask):
    layer = encoder_layer(num_models, 0.0)
    x = nn.tensor(np.zeros(lead_of(num_models) + (LQ, E), np.float32),
                  requires_grad=True)
    with pytest.raises(TypeError, match="float mask"):
        layer.self_attn(x, attn_mask=mask)


@pytest.mark.parametrize("shape", [(3, 1, LQ, LK), (3, 1, 1, LQ, LK)],
                         ids=["mismatched", "larger"])
def test_a_mask_that_does_not_broadcast_to_the_scores_raises(shape):
    q, k, v = leaves(np.random.default_rng(0), (N, LQ, E), (N, LK, E),
                     (N, LK, E))
    with pytest.raises(ValueError, match="broadcast"):
        F.attention(q, k, v, H, np.zeros(shape, np.float32))
