"""Hot-path invariants: in-place Adam and buffer-pool churn.

The training hot path rests on zero-copy re-fusion, buffer pooling and
an in-place fused Adam.  What that work must keep true is
machine-independent, and pinned here:

* **in-place Adam** follows, bit for bit, the trajectory of the
  reference it must reproduce: ``B`` unfused models each trained alone
  with the serial :class:`repro.optim.Adam`;
* **merge + pool** — the ``BufferPool`` hit rate over an evict->admit
  churn loop (steady-state churn reuses every fused allocation: 18 hits
  in 20 takes).

Where step time goes is ``python -m bench_e2e --trace``'s job.
"""

import numpy as np

from repro import hfta, nn, optim as serial_optim
from repro.hfta import ops as hops
from repro.hfta import optim as fused_optim
from repro.nn import functional as F
from repro.runtime import BufferPool
from .conftest import print_table

IN_FEATURES, HIDDEN, CLASSES, BATCH = 16, 32, 10, 32


def build_workload(width, seed=0):
    """A fused MLP array with its Adam, and the ``width`` unfused twins
    (same weights, data and learning rates) each with a serial Adam."""
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        hops.Linear(width, IN_FEATURES, HIDDEN),
        nn.ReLU(),
        hops.Linear(width, HIDDEN, CLASSES))
    for p in model.parameters():
        p.data[...] = rng.standard_normal(p.shape).astype(p.data.dtype)
    lrs = [1e-3 * (1 + b % 4) for b in range(width)]
    optimizer = fused_optim.Adam(model.parameters(), num_models=width,
                                 lr=lrs)
    criterion = hfta.FusedCrossEntropyLoss(width)
    x = nn.tensor(rng.standard_normal(
        (width, BATCH, IN_FEATURES)).astype(np.float32))
    targets = rng.integers(0, CLASSES, size=(width, BATCH))
    twins = []
    for b in range(width):
        twin = nn.Sequential(nn.Linear(IN_FEATURES, HIDDEN), nn.ReLU(),
                             nn.Linear(HIDDEN, CLASSES))
        hfta.export_to_unfused(model, b, twin)
        twins.append((twin, serial_optim.Adam(twin.parameters(), lr=lrs[b])))
    return (model, optimizer, criterion, x, targets), twins


def run_steps(model, optimizer, criterion, x, targets, steps):
    """Mirrors ``_Shard.step``'s per-step sequence."""
    for _ in range(steps):
        optimizer.zero_grad()
        criterion.per_model(model(x), targets).sum().backward()
        optimizer.step()


# --------------------------------------------------------------------- #
# merge / pool churn
# --------------------------------------------------------------------- #
def pool_churn_stats(width=32, rounds=20):
    """Evict->admit churn: merge through a BufferPool, releasing each
    round's dead merged array back to it (the ArrayExecutor's pattern)."""
    fused = nn.Sequential(hops.Linear(width, 256, 256),
                          nn.ReLU(),
                          hops.Linear(width, 256, 256))
    left = hfta.split_fused(fused, list(range(width // 2)))
    right = hfta.split_fused(fused, list(range(width // 2, width)))
    pool = BufferPool()
    dead = None
    for _ in range(rounds):
        merged = hfta.merge_fused(left, right, allocator=pool.take)
        if dead is not None:
            pool.release_all(p.data for p in dead.parameters())
        dead = merged
    return pool.stats()


# --------------------------------------------------------------------- #
def test_inplace_adam_follows_the_legacy_trajectory():
    fused, twins = build_workload(32)
    run_steps(*fused, steps=8)
    model, _, _, x, targets = fused
    fused_params = dict(model.named_parameters())
    for b, (twin, optimizer) in enumerate(twins):
        for _ in range(8):
            optimizer.zero_grad()
            F.cross_entropy(twin(nn.tensor(x.data[b])), targets[b]).backward()
            optimizer.step()
        for name, p in twin.named_parameters():
            np.testing.assert_array_equal(fused_params[name].data[b], p.data,
                                          err_msg=f"slot {b} {name}")


def test_pool_churn():
    pool = pool_churn_stats()
    hit_rate = pool["hits"] / (pool["hits"] + pool["misses"])

    print_table(
        "Hot path: merge 2x16 slots of 256x256 arrays through a pool",
        [("pool_hit_rate", hit_rate)], header=("metric", "value"))

    assert hit_rate == 0.9
