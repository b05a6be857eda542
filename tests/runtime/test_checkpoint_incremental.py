"""Content-addressed checkpoint dedup and zero-copy restore.

Every checkpoint encodes the slot's live state; the store names each
object by its SHA-256, so re-saving unchanged state writes no object
bytes.  These tests pin:

* a durability sweep with no step in between writes **zero new
  objects** and zero object bytes, and stepping writes new ones;
* recovery with a checkpoint every epoch after a mid-epoch crash is
  **bit-identical** to an uninterrupted run;
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
class TestContentAddressedDedup:
    def test_noop_sweep_writes_zero_new_objects(self, tmp_path):
        store = CheckpointStore(tmp_path)
        engine = TrainingArrayEngine(store=store)
        executor = build_executor(engine, make_jobs(3))
        executor.step_epoch()

        executor.checkpoint_now()                 # first write: new objects
        objects, disk = store.objects_written, store.bytes_written
        assert objects > 0 and engine.metrics.checkpoints_written == 3

        executor.checkpoint_now()                 # nothing stepped
        assert store.objects_written == objects   # every object deduped
        assert store.bytes_written == disk
        assert store.bytes_written == engine.metrics.checkpoint_bytes_written
        assert store.dedup_hits == 6              # model+optimizer per slot
        assert engine.metrics.checkpoints_written == 6

    def test_stepping_writes_new_objects(self, tmp_path):
        store = CheckpointStore(tmp_path)
        engine = TrainingArrayEngine(store=store)
        executor = build_executor(engine, make_jobs(2))
        executor.step_epoch()
        executor.checkpoint_now()
        objects = store.objects_written

        executor.step_epoch()                     # slots move again
        executor.checkpoint_now()
        assert store.objects_written > objects

    def test_final_checkpoint_of_an_unchanged_slot_writes_no_object(
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
        assert store.objects_written == objects
        assert after["final"] is True
        assert after["objects"] == before["objects"]

        restored = store.load_slot(executor.slots[0].sub.job_id)
        assert restored.progress == executor.slots[0].progress
        assert restored.model_state          # objects still load fine


    def test_failed_write_is_counted_and_swallowed(self, tmp_path,
                                                   monkeypatch):
        """Losing one sweep of durability must not fail the array: the
        write error is counted, training goes on, and the next write
        lands."""
        store = CheckpointStore(tmp_path)
        engine = TrainingArrayEngine(store=store)
        executor = build_executor(engine, make_jobs(2))
        executor.step_epoch()

        def full_disk(payload):
            raise OSError("no space left on device")

        monkeypatch.setattr(store, "_put_object", full_disk)
        executor.checkpoint_now()
        assert engine.metrics.checkpoint_failures == 2
        assert engine.metrics.checkpoints_written == 0

        monkeypatch.undo()
        executor.step_epoch()
        executor.checkpoint_now()
        assert engine.metrics.checkpoint_failures == 2
        assert engine.metrics.checkpoints_written == 2


# --------------------------------------------------------------------- #
class TestCrashRecoveryWithIncrementalCheckpoints:
    def test_midepoch_crash_recovers_bit_identical(self, tmp_path):
        """Resuming after a mid-epoch crash reproduces an uninterrupted
        run bitwise."""
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
