"""Kernels split across two CPUs (``repro.nn.parallel``).

With ``MIN_BYTES`` patched to 0 every conv, batch-norm, ReLU, max and fused
linear call splits, so these tests pin the helper's contract at test sizes:
training is bitwise the inline run's, the helper holds no arena buffer
once a split returns, an exception in either half surfaces only after both
finish, a split inside a half runs inline, and a forked child gets a
helper of its own.  On a one-CPU machine every split runs inline on one
thread: the exception test is skipped and the others hold.
"""

import os
import signal
import threading
import time
import weakref

import numpy as np
import pytest

from repro import nn
from repro.models import PointNetCls
from repro.nn import parallel
from repro.runtime import ArrayPolicy, TrainingArrayEngine, TrainingJob

from ..hfta.test_equivalence_matrix import CELLS, METRICS, measure_cell
from .test_arena import LM, PointNet, assert_same_parameters, train

B = 4
TWO_CPUS = len(getattr(os, "sched_getaffinity", lambda _: {0})(0)) > 1


@pytest.fixture
def split_everything(monkeypatch):
    monkeypatch.setattr(parallel, "MIN_BYTES", 0)


@pytest.fixture
def threads_seen(monkeypatch):
    """The ids of the threads that ran any half of any split."""
    seen = set()
    split = parallel.split

    def spy(n, nbytes, body):
        def half(lo, hi):
            seen.add(threading.get_ident())
            body(lo, hi)
        split(n, nbytes, half)
    monkeypatch.setattr(parallel, "split", spy)
    return seen


def test_training_is_bitwise_the_inline_run(split_everything, threads_seen):
    for kind in (PointNet, LM):
        with pytest.MonkeyPatch.context() as inline:
            inline.setattr(parallel, "MIN_BYTES", float("inf"))
            reference, _ = train(kind)
        split, _ = train(kind, arena=nn.Arena())
        assert_same_parameters(reference, split)
    assert len(threads_seen) == (2 if TWO_CPUS else 1)


def test_every_equivalence_cell_stays_zero(split_everything):
    # the split kernels run in forward and backward, which every optimizer
    # column shares: one optimizer covers them at every model and width
    for cell in CELLS:
        if cell[1] == "adam":
            assert measure_cell(*cell) == dict.fromkeys(METRICS, 0.0), cell


def _cloud_stream(seed):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((8, 3, 64)).astype(np.float32),
                rng.integers(0, 8, size=8)) for _ in range(3)]
    return lambda step: batches[step % len(batches)]


def _build(num_models=None, generator=None):
    return PointNetCls(num_classes=8, num_models=num_models, width=0.25,
                       dropout=0.0, generator=generator)


def test_the_helper_holds_no_arena_buffer_after_a_split(split_everything,
                                                         threads_seen):
    engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=B))
    engine.submit_all([TrainingJob(
        name=f"pointnet{i}", seed=i, steps=8, epoch_steps=8, loss="nll",
        config={"lr": 1e-3, "optimizer": "adam"}, build_model=_build,
        data=_cloud_stream(i)) for i in range(B)])
    cohorts, _ = engine.batcher.form_cohorts(engine.queue.pop_pending())
    [plan] = engine.policy.plan(cohorts)
    executor = engine.make_executor(plan)
    executor.prepare()
    physics, slots = executor.physics, executor.slots
    physics.step(slots, 1)
    after_first = physics.arena.misses
    physics.step(slots, 5)
    assert after_first > 0
    assert physics.arena.misses == after_first     # reused every buffer
    assert len(threads_seen) == (2 if TWO_CPUS else 1)


def test_the_helper_lets_go_of_the_body_before_split_returns(
        split_everything):
    # a body the helper still held would keep its closure's arena buffers
    # out of circulation: Arena.take counts references
    buffer = np.zeros(8)

    def body(lo, hi):
        buffer[lo:hi] += 1
    held = weakref.ref(body)
    parallel.split(len(buffer), 1, body)
    del body
    assert held() is None
    assert (buffer == 1).all()


@pytest.mark.skipif(not TWO_CPUS, reason="one CPU: the body runs once")
@pytest.mark.parametrize("failing", ["lower", "upper"])
def test_an_exception_surfaces_after_both_halves(split_everything, failing):
    finished = []

    def body(lo, hi):
        if (lo == 0) == (failing == "lower"):
            raise ValueError(lo)
        time.sleep(0.05)                 # the other half finishes later
        finished.append(lo)
    with pytest.raises(ValueError):
        parallel.split(2, 1, body)
    assert finished == ([1] if failing == "lower" else [0])
    # the helper is free again and carries no stale error
    halves = []
    parallel.split(2, 1, lambda lo, hi: halves.append(lo))
    assert sorted(halves) == [0, 1]


@pytest.mark.skipif(not TWO_CPUS, reason="one CPU: no helper to wait for")
def test_an_interrupted_wait_retires_the_helper(split_everything,
                                                monkeypatch):
    parallel.split(2, 1, lambda lo, hi: None)        # the helper runs
    helper = parallel._helper
    done = helper.done

    class Interrupted:
        """Ctrl-C lands while the caller waits for the helper's half."""

        def acquire(self):
            raise KeyboardInterrupt

        def release(self):
            done.release()
    monkeypatch.setattr(helper, "done", Interrupted())
    with pytest.raises(KeyboardInterrupt):
        parallel.split(2, 1, lambda lo, hi: None)
    assert parallel._helper is None
    halves = []
    parallel.split(2, 1, lambda lo, hi: halves.append(lo))
    assert sorted(halves) == [0, 1] and parallel._helper is not helper


def test_a_split_inside_a_half_runs_inline(split_everything):
    inner = []

    def outer(lo, hi):
        parallel.split(4, 1, lambda a, b: inner.append((a, b)))
    runner = threading.Thread(target=parallel.split, args=(2, 1, outer),
                              daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "a nested split deadlocked"
    assert inner == [(0, 4)] * (2 if TWO_CPUS else 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helper(split_everything):
    parallel.split(2, 1, lambda lo, hi: None)        # the parent's helper
    x = np.arange(-64, 64, dtype=np.float32).reshape(8, 16)
    pid = os.fork()
    if pid == 0:                                     # the child
        try:
            relu = parallel.ufunc(np.maximum, x, 0.0, x.dtype)
            os._exit(0 if np.array_equal(relu, np.maximum(x, 0.0)) else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split hung")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def _max_grad(data, axis):
    x = nn.tensor(data, requires_grad=True)
    top = x.max(axis=axis)
    g = np.arange(1, top.data.size + 1, dtype=np.float32).reshape(
        top.shape)
    top.backward(g)
    return x.grad, g


@pytest.mark.parametrize("split", [False, True])
def test_max_backward_with_and_without_ties(monkeypatch, split):
    if split:
        monkeypatch.setattr(parallel, "MIN_BYTES", 0)
    # no ties: every row's gradient lands on its one maximum, unscaled
    data = np.random.default_rng(0).standard_normal((8, 64, 128)).astype(
        np.float32)
    grad, g = _max_grad(data, axis=2)
    expected = np.where(data == data.max(axis=2, keepdims=True),
                        g[..., None], np.float32(0))
    assert np.array_equal(grad, expected)
    # ties share equally; a NaN row (which matches nothing) cannot make a
    # tie elsewhere look like one maximum per row
    tied = np.array([[1, 3, 3], [2, 0, 1], [np.nan, 1, 0]], np.float32)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad, g = _max_grad(tied, axis=1)
    np.testing.assert_array_equal(grad[:2], [[0, 0.5, 0.5], [2, 0, 0]])
