"""The activation arena (``repro.nn.arena``): reuse without aliasing.

A fused step under an arena draws its large kernel outputs from buffers
the previous step released; these tests pin that it then allocates
nothing new, that nothing a caller still holds (an array or any view of
it) is handed out again, that training is bitwise the same with and
without an arena, that kernels are untouched when no arena is active, and
that two threads stepping their own arrays do not share one.
"""

import contextlib
import sys
import threading

import numpy as np

from repro import hfta, nn
from repro.hfta import optim as fused_optim
from repro.models import PointNetCls, TransformerLM
from repro.nn import arena as arena_mod
from repro.nn import functional as F

B = 4
STEPS = 3


def _pointnet(seed):
    return PointNetCls(num_classes=8, num_models=B, width=0.25, dropout=0.0,
                       generator=[np.random.default_rng([seed, b])
                                  for b in range(B)])


def _pointnet_batches(seed):
    rng = np.random.default_rng([seed, 99])
    return [([nn.tensor(rng.standard_normal((8, 3, 64)).astype(np.float32))
              for _ in range(B)], rng.integers(0, 8, size=(B, 8)))
            for _ in range(STEPS)]


def _pointnet_loss(model, batch):
    clouds, targets = batch
    out = model(model.fuse_inputs(clouds))
    return hfta.FusedNLLLoss(B).per_model(out, targets).sum()


def _lm(seed):
    # the benchmark's LM: its feed-forward and logits are 1 MiB at B = 4
    return TransformerLM(vocab_size=256, d_model=64, nhead=2, num_layers=2,
                         dim_feedforward=256, max_len=32, dropout=0.0,
                         num_models=B, generator=[np.random.default_rng(
                             [seed, b]) for b in range(B)])


def _lm_batches(seed):
    rng = np.random.default_rng([seed, 98])
    return [rng.integers(0, 256, size=(B, 8, 33)) for _ in range(STEPS)]


def _lm_loss(model, ids):
    return model.lib.CrossEntropyLoss()(model(ids[..., :-1]), ids[..., 1:])


PointNet = (_pointnet, _pointnet_batches, _pointnet_loss)
LM = (_lm, _lm_batches, _lm_loss)


def train(kind, seed=0, arena=None):
    """``STEPS`` fused Adam steps, each taken as ``_Shard.step``
    takes it (its graph dies with the step); returns the model and the
    arena's misses after every step."""
    build, batches, loss_of = kind
    model = build(seed)
    optimizer = fused_optim.Adam(model.parameters(), num_models=B,
                                 lr=[1e-3 * (1 + b) for b in range(B)])
    misses = []
    with arena.active() if arena else contextlib.nullcontext():
        for batch in batches(seed):
            optimizer.zero_grad()
            loss_of(model, batch).backward()
            optimizer.step()
            misses.append(arena.misses if arena else 0)
    return model, misses


def assert_same_parameters(a, b):
    for (name, p), (_, q) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(p.data, q.data), name


def test_steady_state_steps_allocate_nothing_new():
    arena = nn.Arena()
    _, misses = train(PointNet, arena=arena)
    assert misses[0] > 0
    assert misses[1] == misses[0] and misses[2] == misses[0]
    assert arena.nbytes > 0


def test_held_arrays_and_views_keep_their_bytes():
    rng = np.random.default_rng(0)
    x = nn.tensor(rng.standard_normal((8, 256, 64)).astype(np.float32),
                  requires_grad=True)                        # 512 KiB
    w = nn.tensor(rng.standard_normal((256, 256, 1)).astype(np.float32))
    arena = nn.Arena()
    with arena.active():
        # a dropped output's buffer is the next one handed out
        address = x.relu().data.ctypes.data
        assert x.relu().data.ctypes.data == address
        kept = x.relu().data
        view = F.conv1d(x, w).data.reshape(8, -1)[:, ::3]     # a view only
        snapshot = kept.copy(), view.copy()
        for _ in range(3):
            negated = x * -1.0
            again = negated.relu().data, F.conv1d(negated, w).data
            assert not any(np.shares_memory(a, b) for a in again
                           for b in (kept, view))
    np.testing.assert_array_equal(kept, snapshot[0])
    np.testing.assert_array_equal(view, snapshot[1])


def test_a_gradient_held_across_a_step_keeps_its_bytes():
    build, batches, loss_of = PointNet
    model = build(0)
    weight = model.fc1.weight                       # [4, 128, 256]: 512 KiB
    optimizer = fused_optim.Adam(model.parameters(), num_models=B, lr=1e-3)
    arena = nn.Arena()
    with arena.active():
        held = None
        for batch in batches(0):
            optimizer.zero_grad()
            loss_of(model, batch).backward()
            optimizer.step()
            if held is not None:
                assert not np.shares_memory(weight.grad, held)
                np.testing.assert_array_equal(held, snapshot)
            held, snapshot = weight.grad, weight.grad.copy()


def test_training_is_bitwise_the_same_with_and_without_an_arena():
    for kind in (PointNet, LM):
        reference, _ = train(kind)
        drawn, misses = train(kind, arena=nn.Arena())
        assert misses[0] > 0 and misses[-1] == misses[0]   # reused
        assert_same_parameters(reference, drawn)


def test_without_an_active_arena_kernels_allocate_as_before():
    big = np.dtype(np.float32)
    assert arena_mod.empty((256, 256), big) is None
    idle, outer, inner = nn.Arena(), nn.Arena(), nn.Arena()
    with idle.active():
        pass
    train(PointNet)
    assert idle.misses == 0
    # below the size threshold, an active arena is not consulted either
    with outer.active():
        assert arena_mod.empty((64, 64), big) is None
        with inner.active():
            assert arena_mod.empty((256, 256), big) is not None
        assert arena_mod.empty((256, 256), big) is not None
    assert (outer.misses, inner.misses) == (1, 1)
    assert arena_mod.empty((256, 256), big) is None


def test_two_threads_step_their_own_arrays():
    seeds = (1, 2)
    alone = {seed: train(PointNet, seed, nn.Arena()) for seed in seeds}
    together, errors = {}, []

    def work(seed):
        try:
            together[seed] = train(PointNet, seed, nn.Arena())
        except Exception as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for seed in seeds:
        (model, misses), (threaded, threaded_misses) = (alone[seed],
                                                        together[seed])
        assert_same_parameters(model, threaded)
        assert threaded_misses == misses      # each drew from its own arena
