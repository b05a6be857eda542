"""Hot-path microbenchmarks: fused step throughput, elastic latency,
checkpoint write amplification.

PR 8 rebuilt the training hot path around zero-copy re-fusion, buffer
pooling, vectorized per-model losses, an in-place fused Adam and
incremental checkpoints.  This benchmark measures each layer and emits
``BENCH_hotpath.json`` for CI's bench-gate (``tools/bench_compare.py``):

* **step throughput** — steps/sec of the exact ``_run_epoch`` per-step
  sequence at widths 1/8/32, against an in-repo *legacy comparator* that
  replays the pre-optimization hot path (per-model loss graph loop +
  rebinding Adam) on the same forward/backward.  The comparator is run
  first to a bit-identical finish: the speedup is a pure execution-cost
  delta, not a numerics change.  ``step_speedup_w32`` is gated
  higher-is-better, with the committed baseline well above the PR's
  >=2x acceptance floor.
* **eviction latency** — ``split_fused`` evicting 2 slots from arrays of
  width 8/16/32.  The view path is O(evicted slots): its w32/w8 scaling
  ratio (gated lower-is-better) stays near 1 while the copy path grows
  with array width.
* **merge + pool** — ``merge_fused`` latency and the ``BufferPool`` hit
  rate over an evict->admit churn loop (steady-state churn should reuse
  every fused allocation).
* **checkpoint write amplification** — payload bytes encoded by a
  sweep-heavy durable workload with incremental checkpointing off vs on
  (deterministic byte counts, machine-independent, gated
  higher-is-better; the PR's acceptance floor is a >=50% reduction).
"""

import json
import time
from pathlib import Path

import numpy as np

from repro import hfta, nn
from repro.hfta import ops as hops
from repro.hfta import optim as fused_optim
from repro.hfta.optim.utils import broadcastable
from repro.runtime import (BufferPool, CheckpointStore, TrainingArrayEngine,
                           TrainingJob)
from repro.hfta.ops.factory import OpsLibrary
from .conftest import print_table

IN_FEATURES, HIDDEN, CLASSES, BATCH = 16, 32, 10, 32
STEP_COUNT = 32
WIDTHS = (1, 8, 32)


# --------------------------------------------------------------------- #
# the legacy comparator: the pre-optimization hot path, in-repo
# --------------------------------------------------------------------- #
class LegacyAdam(fused_optim.Adam):
    """Fused Adam as it was before the in-place rewrite: every moment
    update and the update math rebind fresh arrays (~6 update-sized
    temporaries per parameter per step).  Bit-identical trajectory to
    the in-place version — only the allocation behavior differs."""

    def step(self) -> None:
        for group in self.param_groups:
            for p in group["params"]:
                if p.grad is None:
                    continue
                lr = self._hyper(group, "lr", p)
                beta1 = self._hyper(group, "beta1", p)
                beta2 = self._hyper(group, "beta2", p)
                eps = self._hyper(group, "eps", p)
                wd = self._hyper(group, "weight_decay", p)
                grad = p.grad
                if not self.decoupled_weight_decay and wd.any():
                    grad = grad + wd * p.data
                st = self._get_state(p)
                fused_group = group["model_index"] is None
                if not st:
                    st["step"] = (np.zeros(self.num_models) if fused_group
                                  else 0)
                    mdt = np.result_type(beta1, p.data)
                    st["exp_avg"] = np.zeros(p.data.shape, dtype=mdt)
                    st["exp_avg_sq"] = np.zeros(p.data.shape, dtype=mdt)
                st["step"] = st["step"] + 1
                t = (broadcastable(st["step"], p.shape) if fused_group
                     else st["step"])
                st["exp_avg"] = beta1 * st["exp_avg"] + (1 - beta1) * grad
                st["exp_avg_sq"] = (beta2 * st["exp_avg_sq"]
                                    + ((1 - beta2) * grad) * grad)
                bias1 = 1 - beta1 ** t
                bias2 = 1 - beta2 ** t
                denom = np.sqrt(st["exp_avg_sq"] / bias2) + eps
                update = lr * (st["exp_avg"] / bias1) / denom
                p.data -= update.astype(p.data.dtype, copy=False)


def build_workload(width, seed=0, legacy=False):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        hops.Linear(width, IN_FEATURES, HIDDEN),
        hops.ReLU(width),
        hops.Linear(width, HIDDEN, CLASSES))
    for p in model.parameters():
        p.data[...] = rng.standard_normal(p.shape).astype(p.data.dtype)
    adam = LegacyAdam if legacy else fused_optim.Adam
    optimizer = adam(model.parameters(), num_models=width,
                     lr=[1e-3] * width)
    criterion = hfta.FusedCrossEntropyLoss(width)
    x = nn.tensor(rng.standard_normal(
        (width, BATCH, IN_FEATURES)).astype(np.float32))
    targets = rng.integers(0, CLASSES, size=(width, BATCH))
    return model, optimizer, criterion, x, targets


def run_steps(model, optimizer, criterion, x, targets, steps, legacy=False):
    """Mirrors ``FusedPhysics.step``'s per-step sequence."""
    for _ in range(steps):
        optimizer.zero_grad()
        out = model(x)
        loss = criterion(out, targets)
        loss.backward()
        optimizer.step()
        if legacy:
            criterion.per_model_reference(out, targets)
        else:
            criterion.per_model(out, targets)


def steps_per_sec(width, legacy=False):
    work = build_workload(width, legacy=legacy)
    run_steps(*work, steps=max(4, STEP_COUNT // 8), legacy=legacy)
    start = time.perf_counter()
    run_steps(*work, steps=STEP_COUNT, legacy=legacy)
    return STEP_COUNT / (time.perf_counter() - start)


# --------------------------------------------------------------------- #
# elastic latency: eviction / merge / pool churn
# --------------------------------------------------------------------- #
def build_wide_array(width):
    """Wide enough (256x256 layers) that copies are memory-bound."""
    model = nn.Sequential(hops.Linear(width, 256, 256),
                          hops.ReLU(width),
                          hops.Linear(width, 256, 256))
    return model


def evict_ms(width, copy, evict=2, repeats=20):
    fused = build_wide_array(width)
    keep = list(range(evict, width))          # contiguous: view-eligible
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        hfta.split_fused(fused, keep, copy=copy)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def merge_and_pool_stats(width=32, rounds=20):
    """Evict->admit churn: merge through a BufferPool, releasing each
    round's dead merged array back to it (the ArrayExecutor's pattern)."""
    fused = build_wide_array(width)
    left = hfta.split_fused(fused, list(range(width // 2)))
    right = hfta.split_fused(fused, list(range(width // 2, width)))
    pool = BufferPool()
    merge_seconds, dead = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        merged = hfta.merge_fused(left, right, allocator=pool.take)
        merge_seconds = min(merge_seconds, time.perf_counter() - start)
        if dead is not None:
            pool.release_all(p.data for p in dead.parameters())
        dead = merged
    stats = pool.stats()
    stats["hit_rate"] = stats["hits"] / max(1, stats["hits"]
                                            + stats["misses"])
    return 1e3 * merge_seconds, stats


# --------------------------------------------------------------------- #
# checkpoint write amplification
# --------------------------------------------------------------------- #
class ChurnMLP(nn.Module):
    def __init__(self, hidden=8, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(12, hidden, generator=generator)
        self.fc2 = lib.Linear(hidden, 4, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


def _churn_jobs(count=4, steps=20, epoch_steps=2):
    def stream(seed):
        rng = np.random.default_rng(seed)
        batches = [(rng.standard_normal((8, 12)).astype(np.float32),
                    rng.integers(0, 4, size=8)) for _ in range(steps)]
        return lambda step: batches[step]
    return [TrainingJob(
        name=f"churn{i}", seed=i, steps=steps, epoch_steps=epoch_steps,
        config={"lr": 1e-3 * (i + 1), "optimizer": "adam"},
        build_model=lambda B=None, g=None: ChurnMLP(8, B, g),
        data=stream(300 + i)) for i in range(count)]


def checkpoint_payload_bytes(root, incremental):
    """A 10-epoch durable run with two durability sweeps per epoch."""
    engine = TrainingArrayEngine(store=CheckpointStore(root),
                                 checkpoint_every=1,
                                 checkpoint_incremental=incremental)
    engine.submit_all(_churn_jobs())
    batch = engine.queue.pop_pending()
    cohorts, _ = engine.batcher.form_cohorts(batch)
    (plan,) = engine.policy.plan(cohorts)
    executor = engine.make_executor(plan)
    executor.prepare()
    while not executor.done:
        executor.step_epoch()
        executor.checkpoint_now()
        executor.checkpoint_now()
    return engine.metrics.checkpoint_payload_bytes


# --------------------------------------------------------------------- #
def test_hotpath_throughput_and_elastic_latency(tmp_path):
    # the comparator replays the same trajectory: prove it bit-identical
    fast, slow = build_workload(32), build_workload(32, legacy=True)
    run_steps(*fast, steps=8)
    run_steps(*slow, steps=8, legacy=True)
    for (name, p_f), (_, p_s) in zip(fast[0].named_parameters(),
                                     slow[0].named_parameters()):
        np.testing.assert_array_equal(p_f.data, p_s.data, err_msg=name)

    throughput = {w: steps_per_sec(w) for w in WIDTHS}
    legacy_w32 = steps_per_sec(32, legacy=True)
    speedup = throughput[32] / legacy_w32

    evict = {w: evict_ms(w, copy=False) for w in (8, 16, 32)}
    evict_copy = {w: evict_ms(w, copy=True) for w in (8, 16, 32)}
    evict_scaling = evict[32] / evict[8]
    copy_scaling = evict_copy[32] / evict_copy[8]
    merge_ms, pool = merge_and_pool_stats()

    legacy_bytes = checkpoint_payload_bytes(tmp_path / "full", False)
    incr_bytes = checkpoint_payload_bytes(tmp_path / "incr", True)
    amplification = legacy_bytes / incr_bytes

    rows = ([(f"steps_per_sec_w{w}", sps)
             for w, sps in sorted(throughput.items())]
            + [("legacy_steps_per_sec_w32", legacy_w32),
               ("step_speedup_w32", speedup)]
            + [(f"evict_view_ms_w{w}", ms) for w, ms in sorted(evict.items())]
            + [(f"evict_copy_ms_w{w}", ms)
               for w, ms in sorted(evict_copy.items())]
            + [("evict_scaling_w32_over_w8", evict_scaling),
               ("evict_copy_scaling_w32_over_w8", copy_scaling),
               ("merge_ms_w32", merge_ms),
               ("pool_hit_rate", pool["hit_rate"]),
               ("checkpoint_write_amplification", amplification)])
    print_table(
        f"Hot path, MLP({IN_FEATURES}->{HIDDEN}->{CLASSES}) batch={BATCH}, "
        f"{STEP_COUNT} steps; evict 2 slots from 256x256 arrays", rows,
        header=("metric", "value"))

    # acceptance, machine-independent only (this test runs in tier-1 on
    # whatever box CI lands on): churn must hit the pool, and incremental
    # checkpointing must cut the sweep-heavy workload's written payload by
    # >=50% (byte counts).  The timing ratios — step_speedup_w32 and the
    # evict scalings — are written below for `make bench-gate`, which owns
    # their floors against the committed baseline.
    assert pool["hit_rate"] > 0.5
    assert amplification >= 2.0          # >= 50% fewer bytes encoded

    Path("BENCH_hotpath.json").write_text(json.dumps({
        "widths": list(WIDTHS),
        "steps": STEP_COUNT,
        **{f"steps_per_sec_w{w}": sps for w, sps in throughput.items()},
        "legacy_steps_per_sec_w32": legacy_w32,
        "step_speedup_w32": speedup,
        **{f"evict_view_ms_w{w}": ms for w, ms in evict.items()},
        **{f"evict_copy_ms_w{w}": ms for w, ms in evict_copy.items()},
        "evict_scaling_w32_over_w8": evict_scaling,
        "evict_copy_scaling_w32_over_w8": copy_scaling,
        "merge_ms_w32": merge_ms,
        "pool_hit_rate": pool["hit_rate"],
        "checkpoint_payload_bytes_full": legacy_bytes,
        "checkpoint_payload_bytes_incremental": incr_bytes,
        "checkpoint_write_amplification": amplification,
    }, indent=2) + "\n")
