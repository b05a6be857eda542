"""Crash recovery: murder a device worker mid-epoch, lose nothing.

This demo exercises the durable-checkpoint layer end to end
(:mod:`repro.runtime.checkpoint`, see ``docs/checkpointing.md`` and the
operator runbook in ``docs/operations.md``):

1. Eight training jobs are served by a two-device fleet whose engines
   persist every live slot to a :class:`CheckpointStore` at the end of
   every epoch (``checkpoint_every=1``) and journal every admission and
   lifecycle transition to the :class:`RecoveryManager`'s write-ahead log.
2. At **epoch 3** one job's data stream raises a ``BaseException`` — a
   stand-in for ``kill -9``: it bypasses the engine's failure isolation
   *and* the fleet's per-item ``except Exception``, and the fleet's crash
   rule declares the device dead with a fused array mid-flight.
3. The fleet recovers the dead device where it catches the crash: the
   device is **quarantined** for the rest of this scheduling cycle and
   all of the next, and every lost job is re-queued with its latest
   durable checkpoint attached (quarantine-then-**recover**, not
   quarantine-then-drop).  The next cycle re-places the recovered cohort
   on a healthy device via the cost model and resumes from epoch 3.
4. The verdict: every final checkpoint — from the crashed array and the
   untouched one alike — is verified *serial-equivalent* (bitwise
   equal to training each job alone), and the recovered jobs' checkpoints
   are additionally **bit-identical** to an uninterrupted fleet run: the
   crash changed when and where the jobs trained, never what they learned.

Run:  PYTHONPATH=src python examples/crash_recovery.py
"""

import shutil
import tempfile

import numpy as np

from repro import nn, optim as serial_optim
from repro.hfta.ops.factory import OpsLibrary
from repro.hwsim import RTX6000, V100
from repro.nn import functional as F
from repro.runtime import CheckpointStore, FleetScheduler, RecoveryManager, \
    TrainingJob

JOBS = 8
STEPS = 12
EPOCH_STEPS = 2              # 6 epochs per job
CRASH_EPOCH = 3              # the murder happens entering epoch 4
BATCH = 8
FEATURES, CLASSES = 12, 4


class SweepMLP(nn.Module):
    """The jobs' architecture, written once via OpsLibrary."""

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
    """Not an Exception: no failure-isolation handler catches it, so the
    device worker dies exactly as hard as a real crash would."""


def job_stream(seed, murder_weapon=None):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, FEATURES)).astype(np.float32),
                rng.integers(0, CLASSES, size=BATCH))
               for _ in range(STEPS)]

    def data(step):
        if murder_weapon and step == CRASH_EPOCH * EPOCH_STEPS:
            murder_weapon.pop()       # one-shot: the resumed run survives
            raise WorkerMurder(f"worker murdered at epoch {CRASH_EPOCH}")
        return batches[step]
    return data


def make_jobs(murder_weapon=None):
    """Eight jobs; job 0 carries the murder weapon when armed."""
    return [TrainingJob(
        name=f"sweep_lr{1e-3 * (i + 1):.0e}", seed=i,
        steps=STEPS, epoch_steps=EPOCH_STEPS,
        config={"lr": 1e-3 * (i + 1), "optimizer": "adam"},
        build_model=lambda B=None, g=None: SweepMLP(16, B, g),
        data=job_stream(500 + i, murder_weapon if i == 0 else None))
        for i in range(JOBS)]


def final_params(results):
    return {r.name: {n: p.data.copy()
                     for n, p in r.checkpoint.named_parameters()}
            for r in results.values()}


def verify_serial_equivalence(results, jobs):
    by_name = {job.name: job for job in jobs}
    for result in results.values():
        job = by_name[result.name]
        reference = job.build_model(None, np.random.default_rng(job.seed))
        opt = serial_optim.Adam(reference.parameters(), lr=job.config["lr"])
        for step in range(result.steps_trained):
            x, y = job.data(step)
            opt.zero_grad()
            F.cross_entropy(reference(nn.tensor(x)), y).backward()
            opt.step()
        for (name, p_ref), (_, p_out) in zip(
                reference.named_parameters(),
                result.checkpoint.named_parameters()):
            np.testing.assert_array_equal(p_out.data, p_ref.data,
                                          err_msg=f"{result.name} {name}")


def main():
    # the uninterrupted reference run: same jobs, no crash, no store
    reference = FleetScheduler(devices=(V100, RTX6000), max_width=4)
    reference.submit_all(make_jobs())
    expected = final_params(reference.run_until_idle())

    # the doomed run: durable checkpoints + WAL + an armed murder weapon
    root = tempfile.mkdtemp(prefix="repro-ckpt-")
    store = CheckpointStore(root)
    recovery = RecoveryManager(store)
    fleet = FleetScheduler(devices=(V100, RTX6000), max_width=4,
                           store=store, checkpoint_every=1,
                           recovery=recovery)

    murder_weapon = [True]
    jobs = make_jobs(murder_weapon)
    fleet.submit_all(jobs)
    print(f"serving {JOBS} jobs on 2 devices; job 0 murders its device "
          f"worker at epoch {CRASH_EPOCH} of {STEPS // EPOCH_STEPS}")
    results = fleet.run_until_idle()

    crashes = fleet.metrics.workers_crashed
    recovered = fleet.metrics.jobs_recovered
    print(f"worker crashes detected : {crashes}")
    print(f"jobs recovered from disk: {recovered}")
    print(f"checkpoints written     : {fleet.metrics.checkpoints_written} "
          f"({fleet.metrics.checkpoint_bytes_written} bytes, "
          f"{1e3 * fleet.metrics.checkpoint_seconds:.1f} ms total)")
    crash_events = [r for r in recovery.entries()
                    if r["type"] == "array" and r["event"] == "crash"]
    print(f"WAL crash events        : {len(crash_events)} "
          f"(device {crash_events[0]['device']}, "
          f"jobs {crash_events[0]['job_ids']})")
    assert crashes == 1 and recovered >= 1
    assert len(results) == JOBS

    # verdict 1: every checkpoint is serial-equivalent
    verify_serial_equivalence(results, jobs)
    print(f"all {JOBS} checkpoints verified against serial training")

    # verdict 2: the recovered jobs are bit-identical to never crashing
    got = final_params(results)
    for name, params in expected.items():
        for pname, value in params.items():
            np.testing.assert_array_equal(got[name][pname], value,
                                          err_msg=f"{name} {pname}")
    print("recovered run is bit-identical to the uninterrupted run — the "
          "crash changed when and where the jobs trained, never what "
          "they learned")
    assert recovery.unsettled() == {}
    shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
