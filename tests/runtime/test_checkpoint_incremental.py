"""Incremental (dirty-slot) checkpointing and zero-copy restore (PR 8).

``ArrayExecutor`` tracks each slot's ``progress`` at its last durable
write; a slot that has not stepped since is *clean* and a cadence sweep
skips it without encoding a byte — write amplification drops from
O(live slots) per sweep to O(dirty slots).  These tests pin:

* a no-op durability sweep writes **zero new objects** (and the
  content-addressed dedup receipt backs up a forced re-encode);
* recovery from dirty-slot-only snapshots after a mid-epoch crash is
  **bit-identical** to an uninterrupted run;
* a clean slot's *final* checkpoint reuses the stored objects
  manifest-only (``save_slot(objects=...)``);
* ``decode_arrays`` hands out writable zero-copy views of a writable
  payload buffer instead of copying every restored array.
"""

import numpy as np

from repro.runtime import CheckpointStore, TrainingArrayEngine
from repro.runtime.checkpoint import decode_arrays, encode_arrays

from .test_checkpoint import (CRASH_STEP, STEPS, assert_bit_identical,
                              final_params, make_jobs)


def build_executor(engine, jobs):
    """One prepared executor fusing ``jobs`` (manual epoch driving)."""
    engine.submit_all(jobs)
    batch = engine.queue.pop_pending()
    cohorts, _ = engine.batcher.form_cohorts(batch)
    (plan,) = engine.policy.plan(cohorts)
    executor = engine.make_executor(plan)
    executor.prepare()
    return executor


# --------------------------------------------------------------------- #
class TestDirtySlotTracking:
    def test_noop_sweep_writes_zero_new_objects(self, tmp_path):
        store = CheckpointStore(tmp_path)
        engine = TrainingArrayEngine(store=store)
        executor = build_executor(engine, make_jobs(3))
        executor.step_epoch()

        executor.checkpoint_now()                 # all slots dirty: writes
        objects = store.objects_written
        written = engine.metrics.checkpoints_written
        assert objects > 0 and written == 3

        executor.checkpoint_now()                 # nothing stepped: no-op
        assert store.objects_written == objects
        assert store.bytes_written == engine.metrics.checkpoint_bytes_written
        assert engine.metrics.checkpoints_written == written
        assert engine.metrics.checkpoints_skipped == 3

    def test_forced_sweep_is_fully_deduplicated(self, tmp_path):
        """force=True re-encodes clean slots; content addressing proves
        the skipped encodes were byte-identical (the dedup receipt)."""
        store = CheckpointStore(tmp_path)
        engine = TrainingArrayEngine(store=store)
        executor = build_executor(engine, make_jobs(2))
        executor.step_epoch()
        executor.checkpoint_now()
        objects, disk = store.objects_written, store.bytes_written

        executor.checkpoint_now(force=True)
        assert store.objects_written == objects   # every object deduped
        assert store.bytes_written == disk
        assert store.dedup_hits >= 4              # model+optimizer per slot
        assert engine.metrics.checkpoints_written == 4

    def test_stepping_marks_slots_dirty_again(self, tmp_path):
        store = CheckpointStore(tmp_path)
        engine = TrainingArrayEngine(store=store)
        executor = build_executor(engine, make_jobs(2))
        executor.step_epoch()
        executor.checkpoint_now()
        objects = store.objects_written

        executor.step_epoch()                     # slots move again
        executor.checkpoint_now()
        assert store.objects_written > objects
        assert engine.metrics.checkpoints_skipped == 0

    def test_write_amplification_halves_on_sweep_heavy_cadence(
            self, tmp_path):
        """The acceptance workload: a cadence checkpoint plus durability
        sweeps every epoch.  Incremental tracking encodes each slot once
        per epoch instead of three times (what forced sweeps, which do
        not trust the tracker, pay) — >=50% fewer payload bytes."""
        def run(force):
            store = CheckpointStore(tmp_path / f"force-{force}")
            engine = TrainingArrayEngine(store=store, checkpoint_every=1)
            executor = build_executor(engine, make_jobs(3))
            while not executor.done:
                executor.step_epoch()             # cadence persists here
                executor.checkpoint_now(force=force)  # sweeps: clean slots
                executor.checkpoint_now(force=force)
            return engine.metrics.checkpoint_payload_bytes

        full = run(force=True)
        incremental = run(force=False)
        assert incremental <= 0.5 * full

    def test_clean_final_checkpoint_reuses_objects_manifest_only(
            self, tmp_path):
        store = CheckpointStore(tmp_path)
        engine = TrainingArrayEngine(store=store)
        executor = build_executor(engine, make_jobs(2))
        executor.step_epoch()
        executor.checkpoint_now()
        objects = store.objects_written
        before = store.manifest(executor.slots[0].sub.job_id)

        executor._persist_slot(0, executor.slots[0], final=True,
                               stop_reason="cancelled")
        after = store.manifest(executor.slots[0].sub.job_id)
        assert store.objects_written == objects   # manifest-only rewrite
        assert after["final"] is True
        assert after["objects"] == before["objects"]

        restored = store.load_slot(executor.slots[0].sub.job_id)
        assert restored.progress == executor.slots[0].progress
        assert restored.model_state          # objects still load fine

    def test_stale_refs_raise_and_tracker_recovers(self, tmp_path):
        store = CheckpointStore(tmp_path)
        engine = TrainingArrayEngine(store=store)
        executor = build_executor(engine, make_jobs(2))
        executor.step_epoch()
        executor.checkpoint_now()
        slot = executor.slots[0]
        slot.persist_refs = {"model": "0" * 64, "optimizer": "0" * 64}

        executor._persist_slot(0, slot, final=True)   # stale refs raise...
        assert engine.metrics.checkpoint_failures == 1
        assert slot.persist_refs is None              # ...and are dropped

        executor._persist_slot(0, slot, final=True)   # re-encodes cleanly
        assert engine.metrics.checkpoint_failures == 1
        assert store.manifest(slot.sub.job_id)["final"] is True


# --------------------------------------------------------------------- #
class TestCrashRecoveryWithIncrementalCheckpoints:
    def test_midepoch_crash_recovers_bit_identical(self, tmp_path):
        """Dirty-slot-only snapshots carry full recoverability: resuming
        after a mid-epoch crash reproduces an uninterrupted run bitwise
        (incremental checkpointing changes what is *re-encoded*, never
        what is durable)."""
        reference = TrainingArrayEngine()
        reference.submit_all(make_jobs(3))
        expected = final_params(reference.run_until_idle())

        store = CheckpointStore(tmp_path)
        engine = TrainingArrayEngine(store=store, checkpoint_every=1)
        trigger = [True]
        jobs = make_jobs(3)

        def failing(step, inner=jobs[0].data):
            if step == CRASH_STEP and trigger:
                trigger.pop()
                raise IOError("data stream broke mid-epoch")
            return inner(step)

        jobs[0].data = failing
        engine.submit_all(jobs)
        results = engine.run_until_idle()

        assert len(results) == 3
        assert engine.metrics.jobs_recovered == 3
        assert_bit_identical(expected, final_params(results))
        for result in results.values():
            manifest = store.manifest(result.job_id)
            assert manifest["final"] is True
            assert manifest["progress"] == STEPS


# --------------------------------------------------------------------- #
class TestDecodeArraysZeroCopy:
    def _arrays(self):
        rng = np.random.default_rng(7)
        return {"w": rng.standard_normal((16, 8)).astype(np.float32),
                "step": np.arange(4, dtype=np.float64)}

    def test_writable_payload_decodes_to_views(self):
        arrays = self._arrays()
        payload = bytearray(encode_arrays(arrays))
        decoded = decode_arrays(payload)
        for name, value in arrays.items():
            np.testing.assert_array_equal(decoded[name], value)
            assert decoded[name].flags.writeable
            assert np.shares_memory(decoded[name],
                                    np.frombuffer(payload, dtype=np.uint8))

    def test_readonly_payload_still_decodes_writable(self):
        arrays = self._arrays()
        payload = encode_arrays(arrays)        # bytes: read-only buffer
        decoded = decode_arrays(payload)
        for name, value in arrays.items():
            np.testing.assert_array_equal(decoded[name], value)
            assert decoded[name].flags.writeable
        decoded["w"][0, 0] = 42.0              # must not raise

    def test_store_restore_path_is_writable_in_place(self, tmp_path):
        """The executor writes resume state into restored arrays in
        place; the zero-copy load path must hand it writable memory."""
        store = CheckpointStore(tmp_path)
        payload = store._get_object(
            store._put_object(encode_arrays(self._arrays()))[0])
        assert isinstance(payload, bytearray)
        decoded = decode_arrays(payload)
        decoded["w"][...] = 1.5                # in-place restore write
        assert float(decoded["w"][3, 3]) == 1.5
