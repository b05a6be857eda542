"""A fused array's activation arena, driven through ``FusedPhysics.step``.

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
"""

import numpy as np

from repro.models import PointNetCls
from repro.runtime import ArrayPolicy, TrainingArrayEngine, TrainingJob

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


def fused_physics(points=64):
    """A prepared width-``B`` PointNet array: (its physics, its slots)."""
    engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=B))
    engine.submit_all([TrainingJob(
        name=f"pointnet{i}", seed=i, steps=4, epoch_steps=4, loss="nll",
        config={"lr": 1e-3, "optimizer": "adam"}, build_model=build,
        data=clouds(i, points)) for i in range(B)])
    cohorts, _ = engine.batcher.form_cohorts(engine.queue.pop_pending())
    [plan] = engine.policy.plan(cohorts)
    executor = engine.make_executor(plan)
    executor.prepare()
    return executor.physics, executor.slots


def test_a_step_graph_dies_before_the_next_forward():
    physics, slots = fused_physics()
    assert len(slots) == B
    physics.step(slots, 1)
    after_first = physics.arena.misses
    physics.step(slots, 2)       # step 3's forward runs after step 2's
    assert after_first > 0
    assert physics.arena.misses == after_first


def test_the_arena_holds_two_activations_per_conv_block():
    physics, slots = fused_physics(points=128)
    physics.step(slots, 1)
    physics.step(slots, 2)
    assert physics.arena.nbytes == ARENA_BYTES
