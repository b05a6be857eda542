"""Tests for durable checkpointing and crash recovery.

Three layers under test:

* the :class:`CheckpointStore` object model — content addressing,
  atomic publication, dedup, manifest provenance;
* the engine wiring — ``checkpoint_every`` cadence, final checkpoints
  at retirement, resume payloads applied bit-exactly;
* the fleet/gateway crash path — a device worker is *murdered* (a
  ``BaseException`` that bypasses every failure-isolation handler, the
  in-process stand-in for ``kill -9``) mid-epoch, and the recovered run
  must produce checkpoints **bit-identical** to an uninterrupted run:
  crash recovery, like every other elastic transition, changes when and
  with whom a job trains, never what it learns.

The recovery procedure these tests exercise is documented as the
operator runbook in ``docs/operations.md``.
"""

import json

import numpy as np
import pytest

from repro import nn
from repro.hfta.ops.factory import OpsLibrary
from repro.hwsim import RTX6000, V100
from repro.runtime import (CheckpointStore, FleetScheduler, JobState,
                           RecoveryManager, ServingGateway, TenantSpec,
                           TrainingArrayEngine, TrainingJob)
from repro.runtime.checkpoint import decode_arrays, encode_arrays

FEATURES, CLASSES, BATCH = 10, 3, 6
STEPS, EPOCH_STEPS = 12, 2          # 6 epochs per full-budget job
CRASH_STEP = 3 * EPOCH_STEPS        # first data fetch of epoch 4


class TinyMLP(nn.Module):
    """Minimal OpsLibrary model (same architecture as test_elastic)."""

    def __init__(self, hidden=8, num_models=None, generator=None):
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
    """A hard kill: not an Exception, so it passes the engine's failure
    isolation and the fleet's per-item handler — the device dies with
    its array mid-epoch, exactly like a segfault would take it."""


def stream(seed, steps=STEPS, crash_at=None, trigger=None):
    """A job's private data stream; optionally murders the worker once."""
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, FEATURES)).astype(np.float32),
                rng.integers(0, CLASSES, size=BATCH))
               for _ in range(steps)]

    def data(step):
        if crash_at is not None and step == crash_at and trigger:
            trigger.pop()           # one-shot: the resumed run survives
            raise WorkerMurder("device worker murdered")
        return batches[step]
    return data


def make_jobs(count=4, trigger=None, steps=STEPS, **kwargs):
    """``count`` fusible jobs; job 0 carries the murder weapon when a
    ``trigger`` list is provided."""
    jobs = []
    for i in range(count):
        crash_at = CRASH_STEP if (i == 0 and trigger is not None) else None
        jobs.append(TrainingJob(
            name=f"job{i}", seed=i, steps=steps, epoch_steps=EPOCH_STEPS,
            config={"lr": 1e-3 * (i + 1), "optimizer": "adam"},
            build_model=lambda B=None, g=None: TinyMLP(8, B, g),
            data=stream(100 + i, steps, crash_at, trigger), **kwargs))
    return jobs


def final_params(results):
    """name -> {param name -> array} for every JobResult."""
    return {r.name: {n: p.data.copy()
                     for n, p in r.checkpoint.named_parameters()}
            for r in results.values()}


def assert_bit_identical(expected, actual):
    assert set(expected) == set(actual)
    for name, params in expected.items():
        for pname, value in params.items():
            np.testing.assert_array_equal(
                actual[name][pname], value,
                err_msg=f"{name}.{pname} not bit-identical")


# --------------------------------------------------------------------- #
class TestEncoding:
    def test_round_trip_preserves_bits_dtypes_and_shapes(self):
        rng = np.random.default_rng(0)
        arrays = {
            "w": rng.standard_normal((3, 4)).astype(np.float32),
            "b": rng.standard_normal(4),
            "step": np.asarray(7.0),
            "idx": np.arange(6, dtype=np.int64).reshape(2, 3),
        }
        decoded = decode_arrays(encode_arrays(arrays))
        assert set(decoded) == set(arrays)
        for name, value in arrays.items():
            assert decoded[name].dtype == np.asarray(value).dtype
            np.testing.assert_array_equal(decoded[name], value)

    def test_encoding_is_deterministic(self):
        arrays = {"a": np.ones(3, dtype=np.float32),
                  "b": np.zeros((2, 2))}
        assert encode_arrays(arrays) == encode_arrays(dict(reversed(
            list(arrays.items()))))

    def test_bad_magic_raises(self):
        with pytest.raises(ValueError, match="magic"):
            decode_arrays(b"not a checkpoint")


class TestCheckpointStore:
    def test_content_addressing_deduplicates(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = make_jobs(1)[0]
        state = {"w": np.ones((2, 2), dtype=np.float32)}
        r1 = store.save_slot(job_id=0, job=job, progress=2, loss_curve=[1.0],
                             model_state=state, optimizer_state={},
                             provenance={"array_id": 0, "slot": 0})
        r2 = store.save_slot(job_id=1, job=job, progress=2, loss_curve=[1.0],
                             model_state=state, optimizer_state={},
                             provenance={"array_id": 0, "slot": 1})
        assert r1.written_bytes > 0 and not r1.deduplicated
        assert r2.written_bytes == 0 and r2.deduplicated
        assert store.dedup_hits >= 2      # model and optimizer objects
        assert store.object_count() == 2  # one model + one (empty) optim

    def test_manifest_records_provenance_and_latest_wins(self, tmp_path):
        store = CheckpointStore(tmp_path)
        job = make_jobs(1)[0]
        provenance = {"array_id": 7, "slot": 3, "live_width": 5,
                      "launch_width": 8, "device": "A100"}
        store.save_slot(job_id=4, job=job, progress=2, loss_curve=[2.0, 1.5],
                        model_state={"w": np.zeros(2)}, optimizer_state={},
                        provenance=provenance)
        store.save_slot(job_id=4, job=job, progress=4,
                        loss_curve=[2.0, 1.5, 1.2, 1.0],
                        model_state={"w": np.ones(2)}, optimizer_state={},
                        provenance=dict(provenance, live_width=2))
        manifest = store.manifest(4)
        assert manifest["progress"] == 4
        assert manifest["provenance"]["array_id"] == 7
        assert manifest["provenance"]["live_width"] == 2
        assert manifest["tenant"] == job.tenant
        assert store.job_ids() == [4]
        loaded = store.load_slot(4)
        np.testing.assert_array_equal(loaded.model_state["w"], np.ones(2))
        resume = loaded.resume_state()
        assert resume.progress == 4 and len(resume.loss_curve) == 4

    def test_missing_job_loads_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.manifest(99) is None
        assert store.load_slot(99) is None

    def test_no_temp_files_survive_a_save(self, tmp_path):
        store = CheckpointStore(tmp_path, fsync=True)
        job = make_jobs(1)[0]
        store.save_slot(job_id=0, job=job, progress=1, loss_curve=[],
                        model_state={"w": np.ones(4)}, optimizer_state={},
                        provenance={})
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp." in p.name]
        assert leftovers == []


# --------------------------------------------------------------------- #
class TestEngineCheckpointing:
    def test_checkpoint_every_cadence_and_final_manifests(self, tmp_path):
        store = CheckpointStore(tmp_path)
        engine = TrainingArrayEngine(store=store, checkpoint_every=2)
        jobs = make_jobs(3)
        ids = engine.submit_all(jobs)
        engine.run_until_idle()
        # 6 epochs, cadence 2 -> boundaries at epochs 2 and 4 persist live
        # slots (the epoch-6 boundary retires everyone: retirement writes
        # the finals instead)
        assert engine.metrics.checkpoints_written == 3 * 2 + 3
        assert engine.metrics.checkpoint_payload_bytes > 0
        for job_id in ids:
            manifest = store.manifest(job_id)
            assert manifest["final"] is True
            assert manifest["progress"] == STEPS
            assert manifest["provenance"]["launch_width"] == 3

    def test_checkpoint_restores_bit_exact_optimizer_state(self, tmp_path):
        """Kill an array mid-epoch (engine level), resume the quarantined
        jobs from their checkpoints, and verify the final checkpoints are
        bit-identical to an uninterrupted engine run — which can only
        happen if the optimizer moments and per-slot step counters were
        restored bit-exactly."""
        reference = TrainingArrayEngine()
        reference.submit_all(make_jobs(3))
        expected = final_params(reference.run_until_idle())

        store = CheckpointStore(tmp_path)
        engine = TrainingArrayEngine(store=store, checkpoint_every=1)
        trigger = [True]
        jobs = make_jobs(3, trigger=trigger)
        # job 0's stream raises WorkerMurder; at engine level that is an
        # ordinary failure... except BaseException bypasses the handler.
        # Use an Exception here instead: the engine's quarantine path must
        # *recover* (resume from checkpoints), not retrain from scratch.
        def failing(step, inner=jobs[0].data):
            if step == CRASH_STEP and trigger:
                trigger.pop()
                raise IOError("data stream broke mid-epoch")
            return inner(step)
        jobs[0].data = failing
        engine.submit_all(jobs)
        results = engine.run_until_idle()

        assert len(results) == 3
        assert engine.metrics.arrays_failed == 1
        assert engine.metrics.jobs_recovered == 3
        assert_bit_identical(expected, final_params(results))

    def test_quarantine_without_store_restarts_from_scratch(self):
        """The pre-durability behavior still holds without a store: the
        quarantined jobs retrain solo from step 0 (and stay correct)."""
        reference = TrainingArrayEngine()
        reference.submit_all(make_jobs(2))
        expected = final_params(reference.run_until_idle())

        engine = TrainingArrayEngine()
        trigger = [True]
        jobs = make_jobs(2)
        def failing(step, inner=jobs[0].data):
            if step == CRASH_STEP and trigger:
                trigger.pop()
                raise IOError("broken")
            return inner(step)
        jobs[0].data = failing
        engine.submit_all(jobs)
        results = engine.run_until_idle()
        assert engine.metrics.jobs_recovered == 0
        assert_bit_identical(expected, final_params(results))


# --------------------------------------------------------------------- #
class TestFleetCrashRecovery:
    def test_murdered_worker_recovers_bit_identical(self, tmp_path):
        """The acceptance scenario: a device worker is killed mid-epoch at
        epoch 3 of 6; the fleet detects the lost heartbeat's executor
        after the cycle, quarantines the device, re-queues the jobs from
        their durable checkpoints, and the restored run produces
        checkpoints bit-identical to an uninterrupted run."""
        reference = FleetScheduler(devices=(V100,), max_width=4)
        reference.submit_all(make_jobs(4))
        expected = final_params(reference.run_until_idle())

        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        fleet = FleetScheduler(devices=(V100, RTX6000), max_width=4,
                               store=store, checkpoint_every=1,
                               recovery=recovery)
        trigger = [True]
        ids = fleet.submit_all(make_jobs(4, trigger=trigger))
        results = fleet.run_until_idle()

        assert fleet.metrics.workers_crashed == 1
        assert fleet.metrics.jobs_recovered == 4
        assert len(results) == 4
        for job_id in ids:
            assert fleet.queue.state(job_id) == JobState.COMPLETED
            # the resumed slots trained only the post-crash epochs here,
            # but their results report the full serial-equivalent budget
            assert results[job_id].steps_trained == STEPS
        assert_bit_identical(expected, final_params(results))
        # the WAL holds the crash event and the final completions
        events = [r for r in recovery.entries() if r["type"] == "array"]
        assert any(r["event"] == "crash" for r in events)
        assert recovery.unsettled() == {}

    def test_crashed_device_is_quarantined_then_recovers(self, tmp_path):
        store = CheckpointStore(tmp_path)
        fleet = FleetScheduler(devices=(V100, RTX6000), max_width=4,
                               store=store, checkpoint_every=1,
                               recovery=RecoveryManager(store))
        trigger = [True]
        fleet.submit_all(make_jobs(4, trigger=trigger))
        fleet.run_cycle()                     # the cycle that crashes
        crashed = fleet.quarantined_devices()
        assert len(crashed) == 1
        fleet.run_cycle()                     # recovery cycle: avoid device
        assert fleet.quarantined_devices() == []   # quarantine expired
        fleet.run_until_idle()
        assert fleet.metrics.workers_crashed == 1

    def test_a_journaled_migrate_record_changes_no_recovery_answer(
            self, tmp_path):
        """Logs written while live arrays could still migrate between
        devices hold ``{"type": "array", "event": "migrate"}`` records.
        Recovery reads only admissions and states, so such a record
        changes neither the unsettled set nor the next job id."""
        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        fleet = FleetScheduler(devices=(V100, RTX6000), max_width=4,
                               store=store, checkpoint_every=1,
                               recovery=recovery)
        ids = fleet.submit_all(make_jobs(4, trigger=[True]))
        fleet.run_cycle()                     # the cycle that crashes
        before = recovery.unsettled(), recovery.next_job_id()
        assert sorted(before[0]) == ids
        with open(recovery.wal_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"type": "array", "event": "migrate", "array_id": 0,
                 "device": "RTX6000", "job_ids": ids}) + "\n")
        assert (recovery.unsettled(), recovery.next_job_id()) == before

    def test_crash_without_store_retrains_from_scratch(self, tmp_path):
        """Crash detection works without durability: the jobs are requeued
        from step 0 (quarantine-then-recover degrades to retrain, never to
        drop) and still finish serial-equivalent."""
        reference = FleetScheduler(devices=(V100,), max_width=4)
        reference.submit_all(make_jobs(4))
        expected = final_params(reference.run_until_idle())

        fleet = FleetScheduler(devices=(V100,), max_width=4)
        trigger = [True]
        ids = fleet.submit_all(make_jobs(4, trigger=trigger))
        results = fleet.run_until_idle()
        assert fleet.metrics.workers_crashed == 1
        assert fleet.metrics.jobs_recovered == 0
        assert all(fleet.queue.state(i) == JobState.COMPLETED for i in ids)
        assert_bit_identical(expected, final_params(results))

    def test_rebuild_fleet_from_disk_after_process_death(self, tmp_path):
        """The full restart: the first fleet object is abandoned right
        after the crash (stand-in for the process dying), and a second
        fleet is rebuilt purely from the WAL + store."""
        reference = FleetScheduler(devices=(V100,), max_width=4)
        reference.submit_all(make_jobs(4))
        expected = final_params(reference.run_until_idle())

        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        fleet = FleetScheduler(devices=(V100,), max_width=4, store=store,
                               checkpoint_every=1, recovery=recovery)
        trigger = [True]
        fleet.submit_all(make_jobs(4, trigger=trigger))
        fleet.run_cycle()
        del fleet                             # the process "dies"

        assert sorted(recovery.unsettled()) == [0, 1, 2, 3]
        registry = {job.name: job for job in make_jobs(4)}
        rebuilt = recovery.rebuild_fleet(registry, devices=(V100,),
                                         store=store, recovery=recovery,
                                         checkpoint_every=1, max_width=4)
        results = rebuilt.run_until_idle()
        assert rebuilt.metrics.jobs_recovered == 4
        assert_bit_identical(expected, final_params(results))
        # idempotence: a second restart finds nothing left to recover
        assert recovery.unsettled() == {}

    def test_rebuild_wires_a_prebuilt_fleet_to_the_store(self, tmp_path):
        """Regression: a prebuilt fleet handed to rebuild_fleet must be
        wired to the manager's store/recovery (engines included), so the
        recovered run keeps checkpointing and settling the WAL."""
        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        fleet = FleetScheduler(devices=(V100,), max_width=4, store=store,
                               checkpoint_every=1, recovery=recovery)
        trigger = [True]
        fleet.submit_all(make_jobs(4, trigger=trigger))
        fleet.run_cycle()
        del fleet

        registry = {job.name: job for job in make_jobs(4)}
        prebuilt = FleetScheduler(devices=(V100,), max_width=4)  # unwired
        rebuilt = recovery.rebuild_fleet(registry, fleet=prebuilt)
        assert rebuilt is prebuilt
        assert rebuilt.recovery is recovery and rebuilt.store is store
        results = rebuilt.run_until_idle()
        assert len(results) == 4
        assert rebuilt.metrics.jobs_recovered == 4
        # the recovered run checkpointed and settled its own completions
        assert rebuilt.metrics.checkpoints_written > 0
        assert recovery.unsettled() == {}
        # the provenance trail links each new admission to the old one
        replays = [r for r in recovery.entries() if r["type"] == "replay"]
        assert len(replays) == 4

    def test_second_restart_before_any_cycle_loses_nothing(self, tmp_path):
        """Regression: a queue rebuilt on an existing WAL used to number
        jobs from 0 again, so the replayed admission of new id k was
        shadowed by the ``recovered`` settlement of old id k and a second
        restart found nothing to recover."""
        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        fleet = FleetScheduler(devices=(V100,), max_width=4, store=store,
                               recovery=recovery)
        first_ids = fleet.submit_all(make_jobs(4))
        del fleet                             # dies before any cycle

        for restart in (1, 2):                # ... and so does its heir
            registry = {job.name: job for job in make_jobs(4)}
            rebuilt = recovery.rebuild_fleet(registry, devices=(V100,),
                                             max_width=4)
            assert rebuilt.queue.pending_count == 4
            unsettled = recovery.unsettled()
            assert sorted(r["name"] for r in unsettled.values()) == \
                ["job0", "job1", "job2", "job3"]
            # fresh ids every time: nothing journaled is ever reused
            assert min(unsettled) == max(first_ids) + 1 + 4 * (restart - 1)
            del rebuilt
        replays = [r for r in recovery.entries() if r["type"] == "replay"]
        assert len(replays) == 8

    def test_double_crash_and_rebuild_delivers_exactly_once(self, tmp_path):
        """crash -> rebuild -> crash mid-array -> rebuild: every job is
        delivered exactly once, bit-identical to an uninterrupted run,
        and the WAL is settled only after the final drain."""
        reference = FleetScheduler(devices=(V100,), max_width=4)
        reference.submit_all(make_jobs(4))
        expected = final_params(reference.run_until_idle())

        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        fleet = FleetScheduler(devices=(V100,), max_width=4, store=store,
                               checkpoint_every=1, recovery=recovery)
        fleet.submit_all(make_jobs(4, trigger=[True]))
        delivered = list(fleet.run_cycle())   # dies at epoch 4
        assert fleet.metrics.workers_crashed == 1
        del fleet

        # the heir's job0 carries a second murder weapon, two epochs on
        registry = {job.name: job for job in make_jobs(4)}
        registry["job0"].data = stream(
            100, STEPS, CRASH_STEP + 2 * EPOCH_STEPS, [True])
        heir = recovery.rebuild_fleet(registry, devices=(V100,), max_width=4)
        assert heir.metrics.jobs_recovered == 4
        delivered += heir.run_cycle()         # resumes, dies at epoch 6
        assert heir.metrics.workers_crashed == 1
        del heir
        assert len(recovery.unsettled()) == 4

        registry = {job.name: job for job in make_jobs(4)}
        last = recovery.rebuild_fleet(registry, devices=(V100,), max_width=4)
        assert last.metrics.jobs_recovered == 4
        results = last.run_until_idle()
        delivered += results.values()

        assert sorted(r.name for r in delivered) == \
            ["job0", "job1", "job2", "job3"]
        assert all(r.steps_trained == STEPS for r in delivered)
        assert_bit_identical(expected, final_params(results))
        assert recovery.unsettled() == {}

    def test_results_retired_before_a_crash_are_returned_once(self,
                                                              tmp_path):
        """Regression: job1 early-stops at epoch 1 (exported, persisted
        final, journaled COMPLETED); the device dies at epoch 2.  The
        crashing cycle must still hand job1's result to its caller — it
        used to be dropped — and recovery must not re-run the job."""
        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        fleet = FleetScheduler(devices=(V100,), max_width=4, store=store,
                               checkpoint_every=1, recovery=recovery)
        jobs = make_jobs(4)
        jobs[0].data = stream(100, STEPS, EPOCH_STEPS, [True])
        jobs[1].stop = lambda epochs, curve: epochs >= 1
        ids = fleet.submit_all(jobs)

        crashed_cycle = fleet.run_cycle()
        assert fleet.metrics.workers_crashed == 1
        assert [r.job_id for r in crashed_cycle] == [ids[1]]
        assert crashed_cycle[0].steps_trained == EPOCH_STEPS
        assert fleet.queue.pending_count == 3     # job1 is not re-queued

        rest = fleet.run_until_idle()
        assert sorted(rest) == sorted(set(ids) - {ids[1]})
        assert recovery.unsettled() == {}

    def test_interrupts_propagate_other_base_exceptions_kill_the_device(
            self):
        """The one crash rule.  ``KeyboardInterrupt`` arrives on the
        caller's thread and is the caller's: it leaves ``run_cycle`` and
        no device is declared dead.  Any other non-``Exception`` is a dead
        device: the cycle returns, the crash is counted, the jobs rerun."""
        def interrupting(step):
            raise KeyboardInterrupt

        fleet = FleetScheduler(devices=(V100,), max_width=4)
        jobs = make_jobs(4)
        jobs[0].data = interrupting
        fleet.submit_all(jobs)
        with pytest.raises(KeyboardInterrupt):
            fleet.run_cycle()
        assert fleet.metrics.workers_crashed == 0
        assert fleet.quarantined_devices() == []

        class Segfault(BaseException):
            pass

        armed = [True]
        inner = stream(100)

        def dying(step):
            if armed:
                armed.pop()
                raise Segfault
            return inner(step)

        fleet = FleetScheduler(devices=(V100,), max_width=4)
        jobs = make_jobs(4)
        jobs[0].data = dying
        ids = fleet.submit_all(jobs)
        assert fleet.run_cycle() == []
        assert fleet.metrics.workers_crashed == 1
        assert sorted(fleet.run_until_idle()) == ids

    def test_rebuild_skips_jobs_without_builders(self, tmp_path):
        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        fleet = FleetScheduler(devices=(V100,), max_width=4, store=store,
                               recovery=recovery)
        fleet.submit_all(make_jobs(2))        # journaled, never trained
        del fleet
        registry = {"job0": make_jobs(1)[0]}  # job1's code is gone
        rebuilt = recovery.rebuild_fleet(registry, devices=(V100,),
                                         store=store, recovery=recovery)
        assert rebuilt.queue.pending_count == 1
        assert any(r["type"] == "unrecovered" and r["name"] == "job1"
                   for r in recovery.entries())


# --------------------------------------------------------------------- #
class TestGatewayReplay:
    def test_unsettled_admissions_replay_with_contract_intact(self,
                                                              tmp_path):
        """Admissions journaled before a crash are replayed on restart
        with tenant / priority / deadline intact, resume from their
        checkpoints, and bypass the rate limiter (the work was already
        paid for once)."""
        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        tenants = [TenantSpec("prod", weight=4, priority=2,
                              deadline_s=3600.0),
                   TenantSpec("free", rate=100.0, burst=8)]
        gateway = ServingGateway(tenants=tenants, devices=(V100,),
                                 max_width=4, store=store, recovery=recovery,
                                 checkpoint_every=1)
        jobs = make_jobs(3)
        tickets = [gateway.submit(jobs[0], tenant="prod"),
                   gateway.submit(jobs[1], tenant="free"),
                   gateway.submit(jobs[2], tenant="free")]
        assert all(t.admitted for t in tickets)
        prod_deadline = tickets[0].deadline
        del gateway                           # crash before any training

        # restart: tight rate limit would normally shed the free tenant's
        # second job — replay must bypass it
        gateway2 = ServingGateway(
            tenants=[TenantSpec("prod", weight=4, priority=2,
                                deadline_s=3600.0),
                     TenantSpec("free", rate=0.001, burst=1)],
            devices=(V100,), max_width=4, store=store, recovery=recovery,
            checkpoint_every=1)
        registry = {job.name: job for job in make_jobs(3)}
        replayed = gateway2.replay_unsettled(registry)

        assert len(replayed) == 3
        assert all(t.admitted for t in replayed)
        assert gateway2.metrics.admissions_replayed == 3
        by_tenant = {}
        for ticket in replayed:
            by_tenant.setdefault(ticket.tenant, []).append(ticket)
        assert len(by_tenant["prod"]) == 1 and len(by_tenant["free"]) == 2
        # the journaled *absolute* deadline survives the restart
        assert by_tenant["prod"][0].deadline == prod_deadline
        results = gateway2.run_until_idle()
        assert len(results) == 3
        assert recovery.unsettled() == {}

    def test_settled_jobs_are_not_replayed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        gateway = ServingGateway(devices=(V100,), max_width=4, store=store,
                                 recovery=recovery, checkpoint_every=1)
        gateway.submit_all(make_jobs(2))
        results = gateway.run_until_idle()
        assert len(results) == 2
        del gateway
        gateway2 = ServingGateway(devices=(V100,), max_width=4, store=store,
                                  recovery=recovery)
        assert gateway2.replay_unsettled(
            {job.name: job for job in make_jobs(2)}) == []

    def test_displaced_job_is_journaled_shed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        gateway = ServingGateway(
            tenants=[TenantSpec("low", priority=0),
                     TenantSpec("high", priority=5)],
            devices=(V100,), max_width=4, max_pending=1,
            store=store, recovery=recovery)
        jobs = make_jobs(2)
        low = gateway.submit(jobs[0], tenant="low")
        high = gateway.submit(jobs[1], tenant="high")   # displaces low
        assert low.admitted and high.admitted
        assert gateway.queue.state(low.job_id) == JobState.SHED
        # a shed admission is settled: a restart must not resurrect it
        assert low.job_id not in recovery.unsettled()
        assert high.job_id in recovery.unsettled()
