"""The write-ahead log of one lifecycle scenario, pinned record by record.

A seeded real fleet with a :class:`CheckpointStore` and a
:class:`RecoveryManager` runs every transition a greedy fleet makes, in
four phases on one log:

1. **shed, cancel, fail** — a full one-slot queue displaces a
   low-priority admission for a higher one, the newcomer is cancelled
   while queued, and a job whose builder raises fails;
2. **serve** — a gateway-fronted array launches, a deadline-at-risk job
   preempts a slot of the over-share tenant, a slot early-stops (evict), a
   queued job boards the freed width (admit), a running job is cancelled,
   and every array drains;
3. **two devices, early stops** — each array drains where it launched;
4. **crash and rebuild** — the chaos hook kills a device mid-array, the
   process "dies", and :meth:`RecoveryManager.rebuild_fleet` replays the
   unsettled admissions from the log and drains them.

The log's records, minus their ``wall_time`` stamps, must equal
``wal_golden.json`` in content and order.  The file changes only with an
intended change of what the log records; regenerate it with::

    PYTHONPATH=src python -m tests.runtime.test_wal_golden \\
        > tests/runtime/wal_golden.json
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import nn
from repro.hfta.ops.factory import OpsLibrary
from repro.hwsim import RTX6000, V100
from repro.runtime import (CheckpointStore, FleetPlacer, FleetScheduler,
                           PlacementDecision, RecoveryManager,
                           RuntimeMetrics, ServingGateway, TenantSpec,
                           TrainingJob)

GOLDEN = Path(__file__).with_name("wal_golden.json")
FEATURES, CLASSES, BATCH = 10, 3, 6
EPOCH_STEPS = 2


class TinyMLP(nn.Module):
    def __init__(self, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(FEATURES, 8, generator=generator)
        self.fc2 = lib.Linear(8, CLASSES, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


def stream(seed, steps):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, FEATURES)).astype(np.float32),
                rng.integers(0, CLASSES, size=BATCH))
               for _ in range(steps)]
    return lambda step: batches[step]


def make_job(index, steps=8, **kwargs):
    return TrainingJob(
        name=f"job{index}", seed=index, steps=steps, epoch_steps=EPOCH_STEPS,
        config={"lr": 1e-3, "optimizer": "adam"}, build_model=TinyMLP,
        data=stream(index, steps), **kwargs)


def after_epochs(count):
    return lambda epochs, curve: epochs >= count


def broken_builder(num_models=None, generator=None):
    raise RuntimeError("no such architecture")


def shed_cancel_fail(store, recovery, metrics):
    gateway = ServingGateway(
        tenants=[TenantSpec("low", priority=0), TenantSpec("high",
                                                           priority=5)],
        devices=(V100,), max_width=4, max_pending=1, clock=lambda: 0.0,
        store=store, recovery=recovery, metrics=metrics)
    gateway.submit(make_job(0), tenant="low")
    high = gateway.submit(make_job(1), tenant="high")   # displaces job0
    gateway.fleet.cancel(high.job_id)                   # queued cancel
    poison = make_job(2)
    poison.build_model = broken_builder
    gateway.submit(poison, tenant="low")
    gateway.run_until_idle()


def serve(store, recovery, metrics):
    gateway = ServingGateway(
        tenants=[TenantSpec("hog"), TenantSpec("slo", priority=2)],
        devices=(V100,), max_width=4, clock=lambda: 0.0, store=store,
        recovery=recovery, checkpoint_every=1, metrics=metrics)
    fired = {}

    def boundary(epochs, curve):
        if epochs == 1 and "slo" not in fired:       # arrives at risk
            fired["slo"] = gateway.submit(make_job(20), tenant="slo",
                                          deadline_s=0.0)
        return False

    def cancel_mate(epochs, curve):
        if epochs == 2 and "cancel" not in fired:    # a running cancel
            fired["cancel"] = gateway.fleet.cancel(hog[3])
        return False

    jobs = [make_job(10, stop=boundary), make_job(11, stop=after_epochs(2)),
            make_job(12, stop=cancel_mate), make_job(13),
            make_job(14, steps=4)]
    hog = [gateway.submit(job, tenant="hog").job_id for job in jobs]
    gateway.run_cycle(max_jobs=4)      # job14 waits for freed width
    gateway.run_until_idle()
    return gateway


class AlternatingPlacer(FleetPlacer):
    """Pin chunk k to device k % 2, so two arrays sit on two devices."""

    def place(self, cohorts, load=None):
        pinned = []
        for i, decision in enumerate(super().place(cohorts, load)):
            device = self.devices[i % len(self.devices)]
            estimate = self.estimate(decision.plan, device)
            decision.plan.device = device.name
            decision.plan.projected_seconds = estimate.train_seconds
            pinned.append(PlacementDecision(plan=decision.plan,
                                            device=device,
                                            estimate=estimate))
        return pinned


def two_devices(store, recovery, metrics):
    devices = (V100, RTX6000)
    fleet = FleetScheduler(
        devices=devices, placer=AlternatingPlacer(devices=devices,
                                                  max_width=4),
        store=store, recovery=recovery, checkpoint_every=1, metrics=metrics)
    fleet.submit_all([make_job(30 + i, stop=after_epochs(1)
                               if i in (0, 1, 4, 5) else None)
                      for i in range(8)])
    fleet.run_until_idle()
    return fleet


def crash_jobs():
    return [make_job(40 + i, steps=6) for i in range(3)]


def crash_and_rebuild(store, recovery, metrics):
    fleet = FleetScheduler(devices=(V100, RTX6000), max_width=4,
                           store=store, recovery=recovery,
                           checkpoint_every=1, metrics=metrics)
    armed = [True]

    def chaos(device_name, executor):
        if armed and executor.epochs >= 2:
            armed.pop()
            return True
        return False

    fleet.chaos = chaos
    fleet.submit_all(crash_jobs())
    fleet.run_cycle()                  # the device dies at epoch 2
    del fleet                          # ... and so does the process
    rebuilt = recovery.rebuild_fleet(
        {job.name: job for job in crash_jobs()}, devices=(V100, RTX6000),
        max_width=4, metrics=metrics)
    rebuilt.run_until_idle()
    return rebuilt


def run_scenario(root, metrics=None):
    """Every phase on one store and one WAL; returns the recovery
    manager.  ``metrics`` is shared by every fleet when given."""
    store = CheckpointStore(root)
    recovery = RecoveryManager(store)
    for phase in (shed_cancel_fail, serve, two_devices, crash_and_rebuild):
        phase(store, recovery, metrics)
    return recovery


def wal_records(recovery):
    return [{key: value for key, value in record.items()
             if key != "wall_time"} for record in recovery.entries()]


def test_the_wal_of_the_lifecycle_scenario_is_unchanged(tmp_path):
    metrics = RuntimeMetrics()
    records = wal_records(run_scenario(tmp_path, metrics))
    # the scenario reaches every transition it claims to
    assert min(metrics.jobs_shed, metrics.jobs_cancelled,
               metrics.jobs_preempted, metrics.jobs_evicted,
               metrics.jobs_admitted, metrics.workers_crashed,
               metrics.jobs_recovered, metrics.jobs_failed) >= 1
    assert metrics.jobs_cancelled == 2       # one queued, one running
    array_events = {r["event"] for r in records if r["type"] == "array"}
    states = {r["state"] for r in records if r["type"] == "state"}
    assert {"launch", "evict", "admit", "crash", "drain"} <= array_events
    assert {"shed", "cancelled", "failed", "completed",
            "recovered"} <= states
    assert any(r["type"] == "replay" for r in records)
    assert records == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        json.dump(wal_records(run_scenario(root)), sys.stdout, indent=1,
                  sort_keys=True)
        sys.stdout.write("\n")
