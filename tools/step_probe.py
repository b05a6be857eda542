"""Per-step wall time, minor page faults and CPU time of a fused step.

    python tools/step_probe.py              # 10 steps
    python tools/step_probe.py --steps 20
    python tools/step_probe.py --kernels    # the split threshold's table

For each ``sweep_paper`` model at its benchmark size (the jobs of
``bench_e2e.workloads.SweepPaper`` at ``bench_e2e.spec.SIZES``: PointNet
and the Transformer LM, with their builders, data and learning rates),
steps through the engine's own executor, one step per epoch:

* one fused array at the benchmark's width ``B`` (4), its steps taken in
  pairs: one with its large kernels split across two CPUs as the library
  runs them (``repro.nn.parallel``), one on one thread (the tool sets
  ``parallel.MIN_BYTES`` to infinity), alternating which goes first;
* one width-1 array, ``B`` serial steps per sample;
* two concurrent width-1 processes, each stepping its own job on one
  thread: the serial comparator that uses both CPUs too.

It prints for every step (pair) of each array's life the wall ms, minor
faults, system-CPU ms and process CPU-seconds per wall second (above 1
when the helper thread got a second CPU), then the medians of rows 2 on
(the first step of an array allocates its activation arena, so it faults
by construction), the split / one-thread ratio of the fused step, the
concurrent pair's ms per ``B`` model-steps, and the MB (2^20 bytes, as
``peak_rss_mb``) each array's activation arena holds.  The arrays run one
after another, as in a benchmark lap.  BLAS runs one thread, as in
``bench_e2e``.  Reads the benchmark's files, writes nothing.

``--kernels`` instead times each split kernel, forward and backward, on
one thread and split, at the activation sizes of a fused PointNet step:
the table ``parallel.MIN_BYTES`` is read from.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("pointnet", "lm")
#: --kernels: channels of an [8, C, 128] float32 activation, 256 KiB..4 MiB
KERNEL_CHANNELS = (64, 128, 256, 512, 1024)


def executor_for(jobs, steps):
    """A prepared executor training ``jobs`` as one array, one step per
    epoch, with a budget of one step more than the probe takes (the last
    epoch would retire and export every slot)."""
    # imported here, once main() has pinned BLAS to one thread
    from repro.runtime import ArrayPolicy, TrainingArrayEngine

    engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=len(jobs)))
    engine.submit_all([dataclasses.replace(job, steps=steps + 1,
                                           epoch_steps=1) for job in jobs])
    cohorts, failures = engine.batcher.form_cohorts(
        engine.queue.pop_pending())
    if failures or len(cohorts) != 1:
        raise SystemExit(f"step_probe: jobs did not form one cohort: "
                         f"{failures}")
    [plan] = engine.policy.plan(cohorts)
    executor = engine.make_executor(plan)
    executor.prepare()
    return executor


@contextlib.contextmanager
def split_threshold(nbytes):
    """``parallel.MIN_BYTES`` set to ``nbytes`` inside the block: infinity
    runs every kernel inline, as on a one-CPU machine; 0 splits all."""
    from repro.nn import parallel

    saved, parallel.MIN_BYTES = parallel.MIN_BYTES, nbytes
    try:
        yield
    finally:
        parallel.MIN_BYTES = saved


def measure(step, repeats):
    """(ms, minor faults, system ms, CPU s per wall s) of ``repeats``
    calls of ``step``."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for _ in range(repeats):
        step()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime + after.ru_stime
           - before.ru_utime - before.ru_stime)
    return (wall * 1e3, after.ru_minflt - before.ru_minflt,
            (after.ru_stime - before.ru_stime) * 1e3, cpu / wall)


def run(jobs, steps, repeats=1):
    """``steps`` samples of ``repeats`` steps of one array of ``jobs``, and
    the bytes its arena holds."""
    executor = executor_for(jobs, steps * repeats)
    samples = [measure(executor.step_epoch, repeats) for _ in range(steps)]
    return samples, executor.physics.arena.nbytes


def run_fused(jobs, steps):
    """``steps`` pairs of steps of one fused array of ``jobs``, one split
    and one on one thread, alternating which runs first: (split samples,
    one-thread samples, the bytes its arena holds)."""
    executor = executor_for(jobs, 2 * steps)
    samples = {True: [], False: []}
    for n in range(steps):
        for split in (True, False) if n % 2 == 0 else (False, True):
            with contextlib.nullcontext() if split else \
                    split_threshold(math.inf):
                samples[split].append(measure(executor.step_epoch, 1))
    return samples[True], samples[False], executor.physics.arena.nbytes


def concurrent(family, width, steps):
    """Two processes, each stepping its own width-1 job ``steps * width /
    2`` times on one thread, released together: (ms per ``width``
    model-steps of the pair, its CPU s per wall s)."""
    count = max(1, steps * width // 2)
    workers = [subprocess.Popen(
        [sys.executable, __file__, "--serial-worker", family, str(index),
         str(count)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True) for index in (0, 1)]
    for worker in workers:                 # each has built its array
        if worker.stdout.readline().strip() != "ready":
            raise SystemExit("step_probe: a serial worker did not start")
    for worker in workers:
        worker.stdin.write("go\n")
        worker.stdin.flush()
    walls, cpus = [], []
    for worker in workers:
        out, _ = worker.communicate()
        if worker.returncode:
            raise SystemExit(f"step_probe: a serial worker failed "
                             f"({worker.returncode})")
        wall, cpu = map(float, out.split())
        walls.append(wall)
        cpus.append(cpu)
    return max(walls) * 1e3 / (2 * count) * width, sum(cpus) / max(walls)


def serial_worker(family, index, count):
    """One half of :func:`concurrent`: build, wait for ``go``, step, and
    print the steps' wall and CPU seconds."""
    jobs = family_jobs(family)
    with split_threshold(math.inf):
        executor = executor_for(jobs[index:index + 1], count)
        print("ready", flush=True)
        sys.stdin.readline()
        wall, _, _, cpu_share = measure(executor.step_epoch, count)
    print(wall / 1e3, cpu_share * wall / 1e3)


def median_of_steady(samples, k):
    steady = samples[1:] or samples
    return statistics.median(sample[k] for sample in steady)


def report(family, width, fused, serial, pair):
    (fused, single, fused_bytes), (serial, serial_bytes) = fused, serial
    print(f"\n{family}: a fused width-{width} step vs {width} serial steps")
    print(f"{'step':>4}  {'fused ms':>9} {'faults':>7} {'sys ms':>7} "
          f"{'cpu/wall':>8}   {'1-thread ms':>11} {'cpu/wall':>8}   "
          f"{'serial ms':>9} {'faults':>7} {'sys ms':>7}")
    for n, (f, o, s) in enumerate(zip(fused, single, serial), 1):
        print(f"{n:>4}  {f[0]:9.2f} {f[1]:7d} {f[2]:7.2f} {f[3]:8.2f}   "
              f"{o[0]:11.2f} {o[3]:8.2f}   "
              f"{s[0]:9.2f} {s[1]:7d} {s[2]:7.2f}")
    f, o, s = ([median_of_steady(side, k) for k in range(4)]
               for side in (fused, single, serial))
    print(f"  median of rows 2..{len(fused)}: fused {f[0]:.2f} ms, "
          f"{f[1]:.0f} faults, {f[2]:.2f} sys ms, cpu/wall {f[3]:.2f}; "
          f"one thread {o[0]:.2f} ms, cpu/wall {o[3]:.2f}; serial "
          f"{s[0]:.2f} ms, {s[1]:.0f} faults, {s[2]:.2f} sys ms")
    print(f"  fused split / one thread: {f[0] / o[0]:.2f}x")
    print(f"  concurrent serial, 2 processes: {pair[0]:.2f} ms per "
          f"{width} model-steps, cpu/wall {pair[1]:.2f} (fused split / "
          f"concurrent: {f[0] / pair[0]:.2f}x)")
    print(f"  arena held: fused {fused_bytes / 2**20:.1f} MB, "
          f"serial {serial_bytes / 2**20:.1f} MB")


def kernel_cases(channels):
    """(name, run) of each split kernel's forward and backward with an
    ``[8, channels, 128]`` float32 output, in a fused PointNet's shapes
    (4 models; the conv's 32 input channels per model), and of a fused
    linear's ``[4, 256, 64] x [64, channels]`` GEMMs, the LM's shape, whose
    output has the same bytes."""
    import numpy as np

    from repro import nn
    from repro.nn import functional as F

    rng = np.random.default_rng(0)

    def leaf(*shape):
        return nn.tensor(rng.standard_normal(shape).astype(np.float32),
                         requires_grad=True)
    x, cols, tokens = leaf(8, channels, 128), leaf(8, 128, 128), leaf(
        4, 256, 64)
    w, fc = leaf(channels, 32, 1), leaf(4, channels, 64)
    gamma, beta = leaf(channels), leaf(channels)
    ops = {"conv1d": lambda: F.conv1d(cols, w, groups=4),
           "batch_norm": lambda: F.batch_norm(x, None, None, gamma, beta,
                                              True),
           "relu": lambda: x.relu(),
           "max": lambda: x.max(axis=2),
           "linear": lambda: F.linear(tokens, fc)}

    def backward(op):
        # the node's own backward into a scratch sink: no leaf .grad copies
        out = op()
        grad = rng.standard_normal(out.shape).astype(np.float32)
        return lambda: out._backward_dispatch(grad, {})
    for name, op in ops.items():
        yield f"{name} forward", op
        yield f"{name} backward", backward(op)


def kernels(repeats=30):
    """Print the one-thread and split times of every split kernel."""
    from repro import nn

    print(f"{'kernel':<20} {'MiB':>5} {'1-thread us':>12} {'split us':>9} "
          f"{'ratio':>6}")
    arena = nn.Arena()
    with arena.active():
        for channels in KERNEL_CHANNELS:
            mib = 8 * channels * 128 * 4 / 2**20
            for name, call in kernel_cases(channels):
                times = {False: [], True: []}
                for _ in range(repeats):
                    for split in (False, True):
                        with split_threshold(0 if split else math.inf):
                            start = time.perf_counter()
                            call()
                            times[split].append(time.perf_counter() - start)
                single, split = (statistics.median(times[s]) * 1e6
                                 for s in (False, True))
                print(f"{name:<20} {mib:5.2f} {single:12.1f} {split:9.1f} "
                      f"{split / single:6.2f}")


def family_jobs(family):
    from bench_e2e.spec import SIZES
    from bench_e2e.workloads import SweepPaper

    jobs = SweepPaper(SIZES["sweep_paper"], seed=0, scratch=None).make_jobs()
    return [job for job in jobs if job.name.startswith(family)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=10,
                        help="rows per model: pairs of fused steps (split, "
                             "one thread), samples of B serial steps")
    parser.add_argument("--kernels", action="store_true",
                        help="time each split kernel instead")
    parser.add_argument("--serial-worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")     # before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.serial_worker:
        family, index, count = args.serial_worker
        serial_worker(family, int(index), int(count))
        return 0
    if args.kernels:
        kernels()
        return 0
    from bench_e2e.spec import SIZES

    width = SIZES["sweep_paper"]["width"]
    for family in FAMILIES:
        jobs = family_jobs(family)[:width]
        fused = run_fused(jobs, args.steps)
        serial = run(jobs[:1], args.steps, repeats=width)
        report(family, width, fused, serial,
               concurrent(family, width, args.steps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
