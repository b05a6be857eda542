"""Checkpoint durability: write volume and crash recovery.

The durable layer (:mod:`repro.runtime.checkpoint`) must be cheap enough
to leave on: every live slot is persisted at every epoch boundary here
(``checkpoint_every=1``, the most aggressive cadence), and the benchmark
counts both sides of the bargain —

* **write path**: checkpoints written, serialized payload volume and
  bytes actually written (content addressing deduplicates unchanged
  state) for a fully checkpointed serving run;
* **recovery path**: a device worker is killed mid-epoch, the fleet
  object is abandoned (the "process" dies), and a fresh fleet is rebuilt
  purely from the write-ahead log + store and trained to completion.

Acceptance: every lost job is recovered, and the recovered run's final
checkpoints are **bit-identical** to an uninterrupted run
(``recovery_integrity`` must be 1.0 — durability may not bend the
serial-equivalence guarantee).  Checkpoint write latency on a real
serving run is ``checkpoint.save_slot_s`` of ``python -m bench_e2e
--workload serve_elastic --trace 1``.
"""

import numpy as np

from repro import nn
from repro.hfta.ops.factory import OpsLibrary
from repro.hwsim import RTX6000, V100
from repro.runtime import CheckpointStore, FleetScheduler, RecoveryManager, \
    TrainingJob
from .conftest import print_table

JOBS = 8
STEPS = 12
EPOCH_STEPS = 2                  # 6 epochs; checkpoint at every boundary
CRASH_STEP = 3 * EPOCH_STEPS     # the murder happens entering epoch 4
BATCH = 8
FEATURES, CLASSES = 12, 4


class SweepMLP(nn.Module):
    """Stand-in sweep architecture (one cohort, maximally fusible)."""

    def __init__(self, hidden=16, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(FEATURES, hidden, generator=generator)
        self.fc2 = lib.Linear(hidden, CLASSES, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


class WorkerMurder(BaseException):
    """Bypasses every failure-isolation handler: a simulated hard kill."""


def job_stream(seed, trigger=None):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, FEATURES)).astype(np.float32),
                rng.integers(0, CLASSES, size=BATCH))
               for _ in range(STEPS)]

    def data(step):
        if trigger and step == CRASH_STEP:
            trigger.pop()
            raise WorkerMurder("worker murdered mid-epoch")
        return batches[step]
    return data


def make_jobs(trigger=None):
    return [TrainingJob(
        name=f"sweep_lr{1e-3 * (i + 1):.0e}", seed=i,
        steps=STEPS, epoch_steps=EPOCH_STEPS,
        config={"lr": 1e-3 * (i + 1), "optimizer": "adam"},
        build_model=lambda B=None, g=None: SweepMLP(16, B, g),
        data=job_stream(900 + i, trigger if i == 0 else None))
        for i in range(JOBS)]


def final_params(results):
    return {r.name: {n: p.data.copy()
                     for n, p in r.checkpoint.named_parameters()}
            for r in results.values()}


def serve_checkpointed(root):
    """One fully checkpointed serving run; returns the fleet's metrics."""
    store = CheckpointStore(root)
    fleet = FleetScheduler(devices=(V100,), max_width=JOBS, store=store,
                           checkpoint_every=1,
                           recovery=RecoveryManager(store))
    fleet.submit_all(make_jobs())
    results = fleet.run_until_idle()
    assert len(results) == JOBS
    return fleet.metrics, store


def test_checkpoint_write_volume_and_recovery(tmp_path):
    # ---- write path: a fully checkpointed serve ---------------------- #
    metrics, store = serve_checkpointed(tmp_path / "write")
    checkpoints = metrics.checkpoints_written
    assert checkpoints == JOBS * (STEPS // EPOCH_STEPS) == 48
    bytes_per_checkpoint = metrics.checkpoint_payload_bytes / checkpoints
    assert bytes_per_checkpoint == 4525

    # ---- recovery path: crash, abandon the fleet, rebuild from disk -- #
    reference = FleetScheduler(devices=(V100,), max_width=JOBS)
    reference.submit_all(make_jobs())
    expected = final_params(reference.run_until_idle())

    root = tmp_path / "crash"
    crash_store = CheckpointStore(root)
    recovery = RecoveryManager(crash_store)
    doomed = FleetScheduler(devices=(V100, RTX6000), max_width=JOBS,
                            store=crash_store, checkpoint_every=1,
                            recovery=recovery)
    trigger = [True]
    doomed.submit_all(make_jobs(trigger))
    doomed.run_cycle()                   # crashes; the "process" dies here
    assert doomed.metrics.workers_crashed == 1
    lost = len(recovery.unsettled())
    del doomed

    registry = {job.name: job for job in make_jobs()}
    rebuilt = recovery.rebuild_fleet(registry, devices=(V100,),
                                     store=crash_store, recovery=recovery,
                                     checkpoint_every=1, max_width=JOBS)
    results = rebuilt.run_until_idle()

    assert len(results) == JOBS
    jobs_recovered = rebuilt.metrics.jobs_recovered
    got = final_params(results)
    identical = all(
        np.array_equal(got[name][pname], value)
        for name, params in expected.items()
        for pname, value in params.items())
    recovery_integrity = 1.0 if identical else 0.0

    rows = [
        ("checkpoints_written", float(checkpoints)),
        ("payload_bytes", float(metrics.checkpoint_payload_bytes)),
        ("bytes_written", float(metrics.checkpoint_bytes_written)),
        ("bytes_per_checkpoint", bytes_per_checkpoint),
        ("jobs_lost_to_crash", float(lost)),
        ("jobs_recovered", float(jobs_recovered)),
        ("recovery_integrity", recovery_integrity),
    ]
    print_table(
        f"Checkpoint durability, {JOBS} jobs x {STEPS // EPOCH_STEPS} "
        f"epochs, checkpoint_every=1, crash at epoch 3", rows,
        header=("metric", "value"))

    # acceptance: nothing lost, nothing changed
    assert jobs_recovered == lost == 8
    assert recovery_integrity == 1.0
