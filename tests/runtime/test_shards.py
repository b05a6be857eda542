"""Fused arrays sharded over worker processes (``repro.runtime.shards``).

With ``shards.MIN_SLOT_BYTES`` patched to 0 (and the CPU count to two)
every array wider than one is cut into two contiguous shards, the upper
one trained in a worker process. These tests pin that a sharded array
trains the bytes the in-process array trains — through eviction,
freed-width admission, cadence checkpoints and a crash's recovery from the
store — and that it fails closed: a killed worker or a worker's exception
fails the array like any array failure (its jobs requeued solo, each
delivered once, each result the unkilled run's), never like a dead device.
A process that ran a sharded array leaves no child behind, and one allowed
CPU forks nothing. The worker's command loop also runs in this process,
over a pipe, so its protocol is covered line by line. On a one-CPU machine
nothing is sharded: the tests that need a worker are skipped.
"""

import contextlib
import gc
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.hfta.ops.factory import OpsLibrary
from repro.hwsim import V100
from repro.runtime import ArrayPolicy, CheckpointStore, FleetScheduler, \
    RecoveryManager, TrainingArrayEngine, TrainingJob, shards

SRC = str(Path(__file__).resolve().parents[2] / "src")
TWO_CPUS = len(getattr(os, "sched_getaffinity", lambda _: {0})(0)) > 1
needs_two_cpus = pytest.mark.skipif(
    not TWO_CPUS, reason="one allowed CPU: no array is sharded")

FEATURES, HIDDEN, CLASSES, BATCH = 6, 8, 3, 5
STEPS, EPOCH_STEPS = 8, 2


class Net(nn.Module):
    def __init__(self, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(FEATURES, HIDDEN, generator=generator)
        self.fc2 = lib.Linear(HIDDEN, CLASSES, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


def build(num_models=None, generator=None):
    return Net(num_models, generator)


class DropNet(Net):
    """``Net`` with a seeded ``Dropout(0.3)`` on its hidden layer."""

    def __init__(self, num_models=None, generator=None):
        super().__init__(num_models, generator)
        self.drop = self.lib.Dropout(0.3, generator=np.random.default_rng(5))

    def forward(self, x):
        return self.fc2(self.drop(self.relu(self.fc1(x))))


class Stream:
    """A job's batches; ``trap(step)`` runs once, before batch ``step`` is
    handed out the first time."""

    def __init__(self, seed, trap=None, trap_step=None):
        rng = np.random.default_rng(seed)
        self.batches = [(rng.standard_normal((BATCH, FEATURES))
                         .astype(np.float32),
                         rng.integers(0, CLASSES, size=BATCH))
                        for _ in range(STEPS)]
        self.trap, self.trap_step = trap, trap_step

    def __call__(self, step):
        if self.trap is not None and step == self.trap_step:
            trap, self.trap = self.trap, None        # one-shot
            return trap(self.batches[step])
        return self.batches[step]


def make_jobs(count, traps=None, stop_after=(), builder=build):
    traps = traps or {}
    return [TrainingJob(
        name=f"net{i}", seed=i, steps=STEPS, epoch_steps=EPOCH_STEPS,
        config={"lr": 1e-2 * (1 + i), "optimizer": "adam"},
        build_model=builder, data=Stream(100 + i, *traps.get(i, (None,))),
        stop=(lambda epochs, curve: epochs >= 1) if i in stop_after
        else None)
        for i in range(count)]


@pytest.fixture
def sharded(monkeypatch):
    """Every array wider than one is cut in two, whatever the CPU count."""
    monkeypatch.setattr(shards, "MIN_SLOT_BYTES", 0)
    monkeypatch.setattr(shards, "_cpus", lambda: 2)


@contextlib.contextmanager
def in_process():
    """Every array inside the block trains in this process."""
    saved, shards.MIN_SLOT_BYTES = shards.MIN_SLOT_BYTES, float("inf")
    try:
        yield
    finally:
        shards.MIN_SLOT_BYTES = saved


def by_name(results):
    """name -> (loss curve, steps, final parameters and buffers)."""
    return {r.name: (r.loss_curve, r.steps_trained,
                     r.checkpoint.state_dict())
            for r in results}


def assert_same_results(got, want):
    assert got.keys() == want.keys()
    for name, (curve, steps, state) in want.items():
        assert got[name][0] == curve, name
        assert got[name][1] == steps, name
        for key, value in state.items():
            np.testing.assert_array_equal(got[name][2][key], value,
                                          err_msg=f"{name} {key}")


def drain(engine_, max_jobs=0):
    results = []
    while engine_.queue.pending_count:
        results.extend(engine_.run_cycle(max_jobs))
    return results


# ---------------------------------------------------------------------- #
# the worker's command loop, in this process
# ---------------------------------------------------------------------- #
class Counter:
    def __init__(self, start):
        self.value = start

    def add(self, amount):
        self.value += amount
        return self.value

    def fail(self, error):
        raise error

    def unpicklable(self):
        return threading.Lock()


def test_the_command_loop_answers_each_request_in_order():
    parent, child = multiprocessing.Pipe()
    loop = threading.Thread(target=shards.serve, args=(child,), daemon=True)
    loop.start()

    def request(drop, *calls):
        parent.send((drop, list(calls)))
        return parent.recv()
    # a factory's result is kept under its id; a method's is sent back
    assert request([], (7, None, Counter, (10,)),
                   (None, 7, "add", (5,))) == ("ok", [None, 15])
    assert request([], (8, 7, "add", (1,))) == ("ok", [None])
    # an exception, a BaseException and an unpicklable result are replies
    for call in ((None, 7, "fail", (ValueError("bad"),)),
                 (None, 7, "fail", (SystemExit(3),)),
                 (None, 7, "unpicklable", ())):
        status, text = request([], call)
        assert status == "error" and "Traceback" in text
    # dropped ids are gone before the calls run
    status, text = request([7], (None, 7, "add", (1,)))
    assert status == "error" and "KeyError" in text
    parent.close()                                 # EOF ends the loop
    loop.join(timeout=60)
    assert not loop.is_alive()


def test_split_cuts_contiguous_runs_the_lowest_here(monkeypatch):
    monkeypatch.setattr(shards, "_cpus", lambda: 3)
    monkeypatch.setattr(shards, "workers", lambda: ["w1", "w2"])
    big = shards.MIN_SLOT_BYTES
    assert shards.split(4, big) == [(0, 1, None), (1, 2, "w1"),
                                    (2, 4, "w2")]
    assert shards.split(2, big) == [(0, 1, None), (1, 2, "w1")]
    assert shards.split(1, big) == [(0, 1, None)]
    assert shards.split(8, big - 1) == [(0, 8, None)]
    monkeypatch.setattr(shards, "_cpus", lambda: 1)
    assert shards.split(8, big) == [(0, 8, None)]


def test_a_dead_handle_drops_its_object_with_the_next_message():
    """The worker holds an object only while its handle lives here: one
    array after another must not pile up in the worker."""
    worker = shards.Worker()
    try:
        handles = []
        for start in range(3):
            handles.append(shards.Remote.make(worker, 1, Counter, start))
            shards.receive([worker])
        assert [h.call("add", 1) for h in handles] == [1, 2, 3]
        dropped = [handles.pop(0).oid, handles.pop(0).oid]
        gc.collect()
        for oid in dropped:
            with pytest.raises(shards.ShardError, match="KeyError"):
                worker.call((None, oid, "add", (1,)))
        assert handles[0].call("add", 1) == 4
    finally:
        worker.retire()


def test_a_retired_worker_refuses_requests():
    worker = shards.Worker()
    assert worker.call((None, None, max, (1, 2))) == [2]
    worker.retire()
    assert not worker.alive and worker.process.exitcode is not None
    with pytest.raises(shards.ShardError):
        worker.call((None, None, max, (1, 2)))


# ---------------------------------------------------------------------- #
# bitwise the in-process array
# ---------------------------------------------------------------------- #
@needs_two_cpus
def test_small_slots_width_one_and_large_slots(sharded, monkeypatch):
    def parts(count, limit):
        monkeypatch.setattr(shards, "MIN_SLOT_BYTES", limit)
        eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        eng.submit_all(make_jobs(count))
        cohorts, _ = eng.batcher.form_cohorts(eng.queue.pop_pending())
        [plan] = eng.policy.plan(cohorts)
        executor = eng.make_executor(plan)
        executor.prepare()
        return [(type(part).__name__, part.width)
                for part in executor.physics.parts]
    assert parts(4, float("inf")) == [("_Shard", 4)]
    assert parts(1, 0) == [("_Shard", 1)]
    assert parts(4, 0) == [("_Shard", 2), ("_RemoteShard", 2)]
    assert parts(3, 0) == [("_Shard", 1), ("_RemoteShard", 2)]


@needs_two_cpus
def test_eviction_and_admission_train_the_in_process_bytes(sharded):
    """Six jobs through a width-4 array: slots 1 (here) and 3 (in the
    worker) stop after one epoch, two queued jobs board the freed width
    as a sharded party of their own, and everything trains on."""
    def run():
        eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        eng.submit_all(make_jobs(6, stop_after=(1, 3)))
        results = drain(eng, max_jobs=4)
        assert eng.metrics.jobs_evicted == 2
        assert eng.metrics.jobs_admitted == 2
        return by_name(results)
    got = run()
    with in_process():
        want = run()
    assert_same_results(got, want)


@needs_two_cpus
def test_an_array_that_drops_trains_in_one_process(sharded):
    """A fused dropout layer draws one mask over the whole array from its
    generator. Cut, each shard would draw a whole mask of its own from a
    copy of that generator, and the curves would follow the CPU count: an
    array whose model drops is never cut, whatever its slot size."""
    def run():
        eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        eng.submit_all(make_jobs(4, builder=DropNet))
        return by_name(drain(eng))
    got = run()
    with in_process():
        want = run()
    assert_same_results(got, want)


# ---------------------------------------------------------------------- #
# failing closed, exactly once
# ---------------------------------------------------------------------- #
@needs_two_cpus
def test_a_killed_worker_fails_the_array_and_requeues_it_solo(sharded):
    def kill_the_worker(batch):
        # the worker holds slots 2 and 3 and is stepping them: this is
        # slot 0's batch, fetched here while the worker computes
        [worker] = shards.workers()
        os.kill(worker.process.pid, signal.SIGKILL)
        return batch
    killed_at = 2 * EPOCH_STEPS + 1               # mid-epoch 3
    eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
    ids = eng.submit_all(make_jobs(4, traps={0: (kill_the_worker,
                                                 killed_at)}))
    results = drain(eng)
    assert eng.metrics.arrays_failed == 1
    assert eng.metrics.arrays_launched == 5       # the array, then 4 solo
    assert sorted(r.job_id for r in results) == sorted(ids)
    assert all(r.array_width == 1 for r in results)
    with in_process():
        eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        eng.submit_all(make_jobs(4))
        want = by_name(drain(eng))
    assert_same_results(by_name(results), want)
    # the next sharded array forks a fresh worker
    [worker] = shards.workers()
    assert worker.alive


@needs_two_cpus
def test_a_worker_killed_between_step_and_export_delivers_each_job_once(
        sharded):
    """Slots 0 (here) and 2 (in the worker) stop after epoch 1; slot 2's
    stop signal kills the worker after the step's reply, so slot 0's
    export succeeds and slot 2's fails. Nothing was marked finished, so
    all four jobs are requeued solo and each finishes, and counts, once."""
    def make():
        return make_jobs(4, stop_after=(0, 2))
    jobs = make()
    stop = jobs[2].stop

    def kill_then_stop(epochs, curve):
        if epochs >= 1:
            [worker] = shards.workers()
            os.kill(worker.process.pid, signal.SIGKILL)
            jobs[2].stop = stop                   # one-shot
        return stop(epochs, curve)
    jobs[2].stop = kill_then_stop
    eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
    ids = eng.submit_all(jobs)
    results = drain(eng)
    assert eng.metrics.arrays_failed == 1
    assert sorted(r.job_id for r in results) == sorted(ids)
    assert all(r.array_width == 1 for r in results)
    assert eng.metrics.jobs_completed == 4
    assert eng.metrics.jobs_evicted == 2          # jobs 0 and 2, once each
    with in_process():
        eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        eng.submit_all(make())
        want = by_name(drain(eng))
    assert_same_results(by_name(results), want)


class Poison:
    """Pickled to the worker as a batch: converting it raises a
    ``BaseException`` there."""

    def __array__(self, dtype=None, copy=None):
        raise KeyboardInterrupt("inside the worker")


@needs_two_cpus
def test_a_worker_exception_is_an_array_failure_not_a_dead_device(
        sharded):
    def poison(batch):
        return Poison(), batch[1]
    fleet = FleetScheduler(devices=(V100,), max_width=4)
    ids = fleet.submit_all(make_jobs(4, traps={3: (poison, 0)}))
    results = fleet.run_until_idle()
    assert fleet.metrics.workers_crashed == 0
    assert fleet.metrics.arrays_failed == 1
    assert sorted(results) == sorted(ids)
    with in_process():
        reference = FleetScheduler(devices=(V100,), max_width=4)
        reference.submit_all(make_jobs(4))
        want = by_name(reference.run_until_idle().values())
    assert_same_results(by_name(results.values()), want)


class WorkerMurder(BaseException):
    """Kills the device worker, as in ``examples/crash_recovery.py``."""


@needs_two_cpus
def test_a_crash_resumes_a_sharded_array_from_the_store(sharded, tmp_path):
    """Cadence checkpoints export every slot, the worker's too; a device
    crash mid-array (while the worker steps) requeues the slots with
    their durable state, which a new sharded array loads, optimizer
    slices in the worker included."""
    def murder(batch):
        raise WorkerMurder("crash")
    store = CheckpointStore(tmp_path)
    fleet = FleetScheduler(devices=(V100,), max_width=4, store=store,
                           checkpoint_every=1,
                           recovery=RecoveryManager(store))
    ids = fleet.submit_all(make_jobs(4, traps={0: (murder,
                                                   2 * EPOCH_STEPS)}))
    results = fleet.run_until_idle()
    assert fleet.metrics.workers_crashed == 1
    assert fleet.metrics.jobs_recovered == 4
    assert sorted(results) == sorted(ids)
    assert all(r.array_width == 4 for r in results.values())
    with in_process():
        reference = FleetScheduler(devices=(V100,), max_width=4)
        reference.submit_all(make_jobs(4))
        want = by_name(reference.run_until_idle().values())
    assert_same_results(by_name(results.values()), want)


# ---------------------------------------------------------------------- #
# process hygiene
# ---------------------------------------------------------------------- #
TRAIN = f"""
import hashlib, os, sys
sys.path.insert(0, {SRC!r})
sys.path.insert(0, {str(Path(__file__).resolve().parents[2])!r})
from repro.runtime import ArrayPolicy, TrainingArrayEngine, shards
from tests.runtime.test_shards import make_jobs
{{prelude}}
shards.MIN_SLOT_BYTES = 0
eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
eng.submit_all(make_jobs(4))
sha = hashlib.sha256()
for r in sorted(eng.run_until_idle().values(), key=lambda r: r.name):
    for value in r.checkpoint.state_dict().values():
        sha.update(value.tobytes())
print("digest", sha.hexdigest())
print("workers", *[w.process.pid for w in shards._workers])
"""


def run_training(prelude=""):
    """(digest of every checkpoint, worker pids) of a subprocess training
    one width-4 array with every array sharded."""
    done = subprocess.run([sys.executable, "-c",
                           TRAIN.format(prelude=prelude)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    digest = re.search(r"^digest (\w+)$", done.stdout, re.M).group(1)
    pids = [int(pid) for pid in
            re.search(r"^workers(.*)$", done.stdout, re.M).group(1).split()]
    return digest, pids


def alive(pid):
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@needs_two_cpus
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_a_process_that_sharded_leaves_no_child_and_one_cpu_forks_none():
    digest, pids = run_training()
    assert len(pids) == len(os.sched_getaffinity(0)) - 1
    assert not any(alive(pid) for pid in pids)
    pinned, none = run_training("os.sched_setaffinity(0, {0})")
    assert none == [] and pinned == digest
