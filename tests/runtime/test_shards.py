"""Fused arrays over worker processes (``repro.runtime.shards``).

With ``shards.MIN_SLOT_BYTES`` patched to 0 (and the CPU count to two)
every array wider than one is cut into two contiguous shards, the upper
one trained in a worker process. At the real constant the test MLP's
arrays are small: a cycle's arrays are *spread*, each trained whole on a
core of its own, the first here and the next in the worker. These tests
pin that a sharded or spread cycle trains the bytes the in-process cycle
trains — through eviction, freed-width admission, cadence checkpoints and
a crash's recovery from the store — and that it fails closed: a killed
worker or a worker's exception fails the array it holds like any array
failure (its jobs requeued solo, each delivered once, each result the
unkilled run's), never like a dead device, and leaves the other arrays of
the cycle training. A process that ran a sharded or spread cycle leaves no
child behind, and one allowed CPU forks nothing. Batches reach a worker
through its shared buffer, which grows when an epoch outgrows it; the
worker's command loop also runs in this process, over a pipe, so its
protocol is covered line by line. On a one-CPU machine nothing leaves
this process: the tests that need a worker are skipped.
"""

import contextlib
import functools
import gc
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import nn
from repro.hfta.ops.factory import OpsLibrary
from repro.hwsim import V100
from repro.runtime import ArrayPolicy, CheckpointStore, FleetScheduler, \
    RecoveryManager, TrainingArrayEngine, TrainingJob, engine, shards

from ..conftest import same_bytes

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


def make_jobs(count, traps=None, stop_after=(), builder=build,
              optimizer="adam", first=0):
    """Jobs ``first`` to ``first + count - 1``: ``traps`` and
    ``stop_after`` name jobs by that number.  SGD runs with momentum, so
    that it has optimizer state."""
    traps = traps or {}
    config = {"optimizer": optimizer}
    if optimizer == "sgd":
        config["momentum"] = 0.9
    return [TrainingJob(
        name=f"net{i}", seed=i, steps=STEPS, epoch_steps=EPOCH_STEPS,
        config=dict(config, lr=1e-2 * (1 + i)),
        build_model=builder, data=Stream(100 + i, *traps.get(i, (None,))),
        stop=(lambda epochs, curve: epochs >= 1) if i in stop_after
        else None)
        for i in range(first, first + count)]


def two_cohorts(traps=None, stop_after=(), sgd=4):
    """Jobs 0-3 (Adam) and ``sgd`` SGD jobs from 4 on: two plans, two
    arrays a cycle spreads over two cores, the SGD one in the worker."""
    return make_jobs(4, traps, stop_after) + make_jobs(
        sgd, traps, stop_after, optimizer="sgd", first=4)


@pytest.fixture
def sharded(monkeypatch):
    """Every array wider than one is cut in two, whatever the CPU count."""
    monkeypatch.setattr(shards, "MIN_SLOT_BYTES", 0)
    monkeypatch.setattr(shards, "cpus", lambda: 2)


@contextlib.contextmanager
def in_process():
    """Every array inside the block trains in this process, one after
    another, as on a one-CPU host."""
    saved = shards.MIN_SLOT_BYTES, shards.cpus
    shards.MIN_SLOT_BYTES, shards.cpus = float("inf"), lambda: 1
    try:
        yield
    finally:
        shards.MIN_SLOT_BYTES, shards.cpus = saved


@pytest.fixture
def hosts(monkeypatch):
    """The kinds of the parts of every array built: ``[("_Shard", 4),
    ("_RemoteShard", 1)]`` for an array of four slots here and one in a
    worker."""
    built = []
    build_parts = engine.FusedPhysics.build

    def spy(physics, subs, mate=None):
        boarded = build_parts(physics, subs, mate)
        built.append([(type(part).__name__, part.width)
                      for part in physics.parts])
        return boarded
    monkeypatch.setattr(engine.FusedPhysics, "build", spy)
    return built


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
        assert got[name][2].keys() == state.keys(), name
        for key, value in state.items():
            assert same_bytes(got[name][2][key], value), f"{name} {key}"


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
        parent.send((drop, 0, list(calls)))
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
    # a request that does not unpickle is answered, and the loop goes on
    parent.send_bytes(b"not a pickle")
    status, text = parent.recv()
    assert status == "error" and "UnpicklingError" in text
    assert request([], (None, None, max, (1, 2))) == ("ok", [2])
    parent.close()                                 # EOF ends the loop
    loop.join(timeout=60)
    assert not loop.is_alive()


def test_split_cuts_contiguous_runs_the_lowest_here(monkeypatch):
    monkeypatch.setattr(shards, "cpus", lambda: 3)
    monkeypatch.setattr(shards, "workers", lambda: ["w1", "w2"])
    big = shards.MIN_SLOT_BYTES
    assert shards.split(4, big) == [(0, 1, None), (1, 2, "w1"),
                                    (2, 4, "w2")]
    assert shards.split(2, big) == [(0, 1, None), (1, 2, "w1")]
    assert shards.split(1, big) == [(0, 1, None)]
    assert shards.split(8, big - 1) == [(0, 8, None)]
    monkeypatch.setattr(shards, "cpus", lambda: 1)
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


def leaves(tree, path=()):
    """``(path, array)`` of every array in a nested optimizer state."""
    if isinstance(tree, dict):
        for key in sorted(tree, key=str):
            yield from leaves(tree[key], path + (key,))
    elif isinstance(tree, (list, tuple)):
        for index, item in enumerate(tree):
            yield from leaves(item, path + (index,))
    else:
        yield path, np.asarray(tree)


@needs_two_cpus
def test_a_spread_cycle_trains_the_one_process_bytes(tmp_path, hosts):
    """One cycle of two MLP cohorts — SGD at width 1, and Adam at width 8,
    whose slot 3 stops after one epoch — spread over two cores: the SGD
    array trains here and the Adam array whole in the worker, which
    evicts slot 3. The curves, the exported checkpoints and every job's
    durable optimizer slot state are the bytes of the same cycle in one
    process."""
    def run(root):
        store = CheckpointStore(root)
        eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=8),
                                  store=store, checkpoint_every=1)
        ids = eng.submit_all(make_jobs(1, optimizer="sgd", first=8)
                             + make_jobs(8, stop_after=(3,)))
        results = drain(eng)
        assert eng.metrics.jobs_evicted == 1
        return by_name(results), {
            job_id: list(leaves(store.load_slot(job_id).optimizer_state))
            for job_id in ids}
    got, got_state = run(tmp_path / "spread")
    assert hosts == [[("_Shard", 1)], [("_RemoteShard", 8)]]
    with in_process():
        want, want_state = run(tmp_path / "one")
    assert hosts[2:] == [[("_Shard", 1)], [("_Shard", 8)]]
    assert_same_results(got, want)
    assert got_state.keys() == want_state.keys()
    for job_id, state in want_state.items():
        assert state
        assert [path for path, _ in got_state[job_id]] == \
            [path for path, _ in state]
        for (path, value), (_, mine) in zip(state, got_state[job_id]):
            assert same_bytes(mine, value), (job_id, path)


@needs_two_cpus
def test_a_width_one_array_never_takes_a_workers_core(hosts, monkeypatch):
    """Two jobs that cannot fuse (Adam, SGD) make two width-1 arrays: they
    train here one after the other, as a fleet trains them, and no worker
    is asked for."""
    monkeypatch.setattr(shards, "workers",
                        lambda: pytest.fail("a worker was asked for"))
    eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
    eng.submit_all(make_jobs(1) + make_jobs(1, optimizer="sgd", first=1))
    assert len(drain(eng)) == 2
    assert hosts == [[("_Shard", 1)], [("_Shard", 1)]]


@needs_two_cpus
def test_admission_into_an_array_in_the_worker_trains_the_in_process_bytes(
        hosts, monkeypatch):
    """Jobs 0-3 (Adam) train here and jobs 4-7 (SGD) whole in the worker;
    jobs 5 and 7 stop after one epoch, and the two SGD jobs still queued
    board the worker's array: built here, merged into it there."""
    merged = []
    merge = engine._RemoteShard.merged

    def spy(remote, shard):
        merged.append((remote.width, shard.width))
        return merge(remote, shard)
    monkeypatch.setattr(engine._RemoteShard, "merged", spy)

    def run():
        eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        eng.submit_all(two_cohorts(stop_after=(5, 7), sgd=6))
        results = drain(eng, max_jobs=8)
        assert eng.metrics.jobs_evicted == 2
        assert eng.metrics.jobs_admitted == 2
        return by_name(results)
    got = run()
    assert hosts == [[("_Shard", 4)], [("_RemoteShard", 4)], [("_Shard", 2)]]
    assert merged == [(2, 2)]
    with in_process():
        want = run()
    assert_same_results(got, want)


# ---------------------------------------------------------------------- #
# failing closed, exactly once
# ---------------------------------------------------------------------- #
#: the two layouts a worker holds slots in: the upper shard of a cut
#: array of jobs 0-3 (``MIN_SLOT_BYTES`` 0), or the whole SGD array of
#: jobs 4-7, spread beside the Adam array of jobs 0-3 (the real constant)
LAYOUTS = ("cut", "spread")


def layout_jobs(layout, request, traps=None, stop_after=()):
    """(the jobs of ``layout``, the numbers of the jobs the worker holds)."""
    if layout == "cut":
        request.getfixturevalue("sharded")
        return make_jobs(4, traps, stop_after), (2, 3)
    return two_cohorts(traps, stop_after), (4, 5, 6, 7)


@needs_two_cpus
@pytest.mark.parametrize("layout", LAYOUTS)
def test_a_killed_worker_fails_the_array_and_requeues_it_solo(layout,
                                                              request):
    """The worker is killed mid-epoch 3 while it steps its slots: the
    array it holds fails, its live jobs are requeued solo, and every job
    is delivered once with the unkilled run's bytes. Spread, the Adam
    array here trains on undisturbed."""
    def kill_the_worker(batch):
        # slot 0's batch, fetched here while the worker computes
        [worker] = shards.workers()
        os.kill(worker.process.pid, signal.SIGKILL)
        return batch
    killed_at = 2 * EPOCH_STEPS + 1               # mid-epoch 3
    jobs, _ = layout_jobs(layout, request,
                          traps={0: (kill_the_worker, killed_at)})
    failed = range(4) if layout == "cut" else range(4, 8)
    eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
    ids = eng.submit_all(jobs)
    results = drain(eng)
    assert eng.metrics.arrays_failed == 1
    # the first cycle's arrays, then one solo array per failed job
    assert eng.metrics.arrays_launched == len(jobs) // 4 + len(failed)
    assert sorted(r.job_id for r in results) == sorted(ids)
    assert {r.name: r.array_width for r in results} == {
        job.name: 1 if int(job.name[3:]) in failed else 4 for job in jobs}
    with in_process():
        eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        eng.submit_all(layout_jobs(layout, request)[0])
        want = by_name(drain(eng))
    assert_same_results(by_name(results), want)
    # the next array that needs a worker forks a fresh one
    [worker] = shards.workers()
    assert worker.alive


@needs_two_cpus
@pytest.mark.parametrize("layout", LAYOUTS)
def test_a_worker_killed_between_step_and_export_delivers_each_job_once(
        layout, request):
    """Jobs 0 and 2 (cut: slot 0 here, slot 2 in the worker) or 4 and 6
    (spread: both in the worker) stop after epoch 1; job 2's or 6's stop
    signal kills the worker after the step's reply, so the worker's
    export fails. Nothing was marked finished, so the array's four jobs
    are requeued solo and each finishes, and counts, once."""
    stopping = (0, 2) if layout == "cut" else (4, 6)

    def make():
        return layout_jobs(layout, request, stop_after=stopping)[0]
    jobs = make()
    killer = jobs[stopping[1]]
    stop = killer.stop

    def kill_then_stop(epochs, curve):
        if epochs >= 1:
            [worker] = shards.workers()
            os.kill(worker.process.pid, signal.SIGKILL)
            killer.stop = stop                    # one-shot
        return stop(epochs, curve)
    killer.stop = kill_then_stop
    eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
    ids = eng.submit_all(jobs)
    results = drain(eng)
    assert eng.metrics.arrays_failed == 1
    assert sorted(r.job_id for r in results) == sorted(ids)
    assert eng.metrics.jobs_completed == len(jobs)
    assert eng.metrics.jobs_evicted == 2          # once each
    failed = range(4) if layout == "cut" else range(4, 8)
    assert {r.name: r.array_width for r in results} == {
        job.name: 1 if int(job.name[3:]) in failed else 4 for job in jobs}
    with in_process():
        eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        eng.submit_all(make())
        want = by_name(drain(eng))
    assert_same_results(by_name(results), want)


@needs_two_cpus
def test_an_interrupt_mid_turn_leaves_the_worker_in_step():
    """A ``BaseException`` raised here while the worker steps the other
    array propagates out of the cycle, but only after that array's reply
    is collected: the worker then answers the next request, not the
    abandoned one.  Both arrays' jobs are back in the queue, and the same
    engine's next cycles deliver each once, in the in-process bytes."""
    def murder(batch):
        raise WorkerMurder("interrupted")
    eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
    ids = eng.submit_all(two_cohorts(traps={0: (murder, EPOCH_STEPS)}))
    with pytest.raises(WorkerMurder):
        eng.run_cycle()
    [worker] = shards.workers()
    assert worker.alive and worker.call((None, None, max, (1, 2))) == [2]
    assert eng.queue.pending_count == len(ids)
    delivered = drain(eng)
    assert sorted(r.job_id for r in delivered) == ids
    got = by_name(delivered)
    with in_process():
        eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        eng.submit_all(two_cohorts())
        want = by_name(drain(eng))
    assert_same_results(got, want)


class TrapNet(Net):
    """``Net`` that raises a ``BaseException`` on a batch holding a NaN."""

    def forward(self, x):
        if np.isnan(x.data).any():
            raise KeyboardInterrupt("inside the worker")
        return super().forward(x)


@needs_two_cpus
def test_a_worker_exception_is_an_array_failure_not_a_dead_device(
        sharded):
    def poison(batch):
        return np.full_like(batch[0], np.nan), batch[1]
    fleet = FleetScheduler(devices=(V100,), max_width=4)
    ids = fleet.submit_all(make_jobs(4, traps={3: (poison, 0)},
                                     builder=TrapNet))
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
from tests.runtime.test_shards import make_jobs, two_cohorts
{{prelude}}
{{layout}}
eng = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
eng.submit_all(jobs)
sha = hashlib.sha256()
for r in sorted(eng.run_until_idle().values(), key=lambda r: r.name):
    for value in r.checkpoint.state_dict().values():
        sha.update(value.tobytes())
print("digest", sha.hexdigest())
print("workers", *[w.process.pid for w in shards._workers])
"""

#: the jobs of a subprocess's cycle: one width-4 array cut in shards, or
#: two small arrays spread one per core
TRAIN_LAYOUTS = {"cut": "shards.MIN_SLOT_BYTES = 0\njobs = make_jobs(4)",
                 "spread": "jobs = two_cohorts()"}


def run_training(layout, prelude=""):
    """(digest of every checkpoint, worker pids) of a subprocess training
    the cycle of ``layout``."""
    done = subprocess.run([sys.executable, "-c", TRAIN.format(
        prelude=prelude, layout=TRAIN_LAYOUTS[layout])],
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
@pytest.mark.parametrize("layout", LAYOUTS)
def test_a_process_that_sharded_leaves_no_child_and_one_cpu_forks_none(
        layout):
    digest, pids = run_training(layout)
    assert len(pids) == len(os.sched_getaffinity(0)) - 1
    assert not any(alive(pid) for pid in pids)
    pinned, none = run_training(layout, "os.sched_setaffinity(0, {0})")
    assert none == [] and pinned == digest


# ---------------------------------------------------------------------- #
# the shared buffer
# ---------------------------------------------------------------------- #
def echo(sent):
    """In a worker: a copy of the array :meth:`shards.Worker.put` sent."""
    return shards.view(*sent).copy()


def mapped():
    """In a worker: the bytes of its map of the shared buffer."""
    return 0 if shards._mapped is None else len(shards._mapped)


@needs_two_cpus
def test_the_shared_buffer_grows_and_a_replaced_worker_maps_its_own():
    [worker] = shards.workers()
    small = np.arange(10, dtype=np.float32)
    sent = tuple(worker.put([small]))
    assert same_bytes(worker.call((None, None, echo, sent))[0], small)
    size = worker.size
    # more bytes than the buffer holds, after an array already put
    big = np.random.default_rng(0).standard_normal(size // 8 + 100)
    first, second = worker.call(
        (None, None, echo, tuple(worker.put([small]))),
        (None, None, echo, tuple(worker.put([big]))))
    assert worker.size > size
    assert same_bytes(first, small) and same_bytes(second, big)
    assert worker.call((None, None, mapped, ())) == [worker.size]
    os.kill(worker.process.pid, signal.SIGKILL)
    worker.process.join()
    [fresh] = shards.workers()
    assert fresh is not worker and fresh.size == 0
    sent = tuple(fresh.put([big]))
    assert same_bytes(fresh.call((None, None, echo, sent))[0], big)
    assert fresh.call((None, None, mapped, ())) == [fresh.size]
    assert fresh.size >= big.nbytes
    with pytest.raises(TypeError, match="dtype object"):
        fresh.put([np.array([None, 1], dtype=object)])


class Recorder:
    """Stands in a worker for a ``_Shard``: keeps a copy of every batch
    its ``step`` is fed."""

    def __init__(self, width):
        self.width, self.fed = width, []

    def step(self, fetch, steps):
        for i in range(steps):
            self.fed.append([tuple(np.array(array) for array in batch)
                             for batch in fetch(i)])
        return [[float(i)] * self.width for i in range(steps)], 0, 0.0

    def seen(self):
        return self.fed


@needs_two_cpus
def test_batches_of_any_shape_and_dtype_reach_the_worker_unchanged():
    """Per slot and per step the batches differ in shape and dtype, and
    one outgrows the shared buffer mid-epoch: the worker's step is fed
    each array as the job's stream returned it (nothing is stacked)."""
    [worker] = shards.workers()
    rng = np.random.default_rng(3)
    kinds = [((5, 6), np.float32), ((3,), np.float64), ((2, 2, 2), np.int32),
             ((7,), np.uint8)]
    steps = 3
    batches = {}
    for slot, (shape, dtype) in enumerate(kinds):
        for i in range(steps):
            if (slot, i) == (1, 2):               # outgrows the buffer
                shape = (worker.size // 8 + 1000,)
            x = (rng.standard_normal(shape) * 50).astype(dtype)
            batches[slot, i] = x, np.full(i + 1, slot, np.int64)
    slots = [SimpleNamespace(job=SimpleNamespace(
        data=functools.partial(lambda slot, i: batches[slot, i], slot)),
        progress=0, curve=[]) for slot in range(len(kinds))]
    physics = engine.FusedPhysics.__new__(engine.FusedPhysics)
    physics.parts = [engine._RemoteShard.make(worker, len(kinds), Recorder,
                                              len(kinds))]
    shards.receive([worker])
    epoch = physics.start(slots, steps)
    epoch.here()
    epoch.finish()
    fed = physics.parts[0].call("seen")
    assert len(fed) == steps
    for i, step in enumerate(fed):
        assert len(step) == len(kinds)
        for slot, batch in enumerate(step):
            for got, want in zip(batch, batches[slot, i]):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert same_bytes(got, want), (slot, i)
    assert all(slot.curve == [0.0, 1.0, 2.0] for slot in slots)


@needs_two_cpus
def test_a_worker_answers_each_request_once_in_order():
    """Requests that carry arrays, one after another: each is answered
    by one reply, its calls' results in order, and nothing more is left
    on the pipe."""
    [worker] = shards.workers()
    for n in range(6):
        array = np.full((n + 1, 3), n, np.int16)
        worker.send([(None, None, echo, tuple(worker.put([array]))),
                     (None, None, max, (n, -1))])
        got, largest = worker.receive()
        assert same_bytes(got, array) and largest == n
        assert not worker.conn.poll(0.05)
