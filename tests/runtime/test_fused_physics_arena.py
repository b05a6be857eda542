"""A fused array's activation arena, driven through its shard's step
(``_Shard.step``, what a ``FusedPhysics.start`` epoch runs for each
shard).

The arena holds one step's peak set of large buffers only if each step's
graph dies before the next forward.  Were the loop's ``out``/``losses``
released only when the next step reassigns them, the previous graph would
still hold every buffer while the next forward draws its own, and the
arena would double.

What that peak set is, at the ``sweep_paper`` benchmark's PointNet size,
is pinned in bytes: each conv block keeps its centred input and its output
(``repro.nn.functional.conv1d_bn``), not the four activations and the mask
of a conv, batch-norm and ReLU node each, and a block that ends in the max
over the points keeps its centred input alone.

The array trains in this process, unsharded (``shards.MIN_SLOT_BYTES``
infinite), so its one arena is the whole width-``B`` step's.
"""

import functools

import numpy as np
import pytest

from repro.models import PointNetCls
from repro.runtime import ArrayPolicy, TrainingArrayEngine, TrainingJob, \
    engine, shards

B = 4


def build(num_models=None, generator=None):
    return PointNetCls(num_classes=8, num_models=num_models, width=0.25,
                       dropout=0.0, generator=generator)


#: bytes of the arena after step 2 at the benchmark's 128 points (49.875
#: MiB while a conv block was three nodes: 52 297 728; 32.75 MiB while the
#: max over the points was a node of its own: 34 340 864)
ARENA_BYTES = 20_709_376


def clouds(seed, points=64):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((8, 3, points)).astype(np.float32),
                rng.integers(0, 8, size=8)) for _ in range(3)]
    return lambda step: batches[step % len(batches)]


@pytest.fixture(autouse=True)
def one_process(monkeypatch):
    monkeypatch.setattr(shards, "MIN_SLOT_BYTES", float("inf"))


def fused_physics(points=64):
    """A prepared width-``B`` PointNet array: (its one shard, its slots)."""
    engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=B))
    engine.submit_all([TrainingJob(
        name=f"pointnet{i}", seed=i, steps=4, epoch_steps=4, loss="nll",
        config={"lr": 1e-3, "optimizer": "adam"}, build_model=build,
        data=clouds(i, points)) for i in range(B)])
    cohorts, _ = engine.batcher.form_cohorts(engine.queue.pop_pending())
    [plan] = engine.policy.plan(cohorts)
    executor = engine.make_executor(plan)
    executor.prepare()
    [shard] = executor.physics.parts
    return shard, executor.slots


def test_a_step_graph_dies_before_the_next_forward():
    shard, slots = fused_physics()
    assert len(slots) == B
    fetch = functools.partial(engine._fetch, slots)
    shard.step(fetch, 1)
    after_first = shard.arena.misses
    shard.step(fetch, 2)         # step 3's forward runs after step 2's
    assert after_first > 0
    assert shard.arena.misses == after_first


def test_the_arena_holds_two_activations_per_conv_block():
    shard, slots = fused_physics(points=128)
    fetch = functools.partial(engine._fetch, slots)
    shard.step(fetch, 1)
    shard.step(fetch, 2)
    assert shard.arena.nbytes == ARENA_BYTES
