"""Per-step wall time, minor page faults and CPU time of a fused step.

    python tools/step_probe.py              # 10 steps
    python tools/step_probe.py --steps 20
    python tools/step_probe.py --phases     # where a step's time goes
    python tools/step_probe.py --arena --steps 2   # what each arena holds,
                                                   # and what lives outside
    python tools/step_probe.py --scatter    # embedding gradient scatters

For each ``sweep_paper`` model and the ``sweep_mlp`` MLP at its benchmark
size (the jobs of ``bench_e2e.workloads.SweepPaper`` and ``SweepMLP`` at
``bench_e2e.spec.SIZES``: PointNet and the Transformer LM at width 4, the
MLP at width 8, with their builders, data and learning rates), steps
through the engine's own executor, one step per epoch:

* two fused arrays at the benchmark's width ``B`` (4), their steps taken
  in pairs, alternating which goes first: one sharded as the library runs
  it (``repro.runtime.shards``: on two CPUs, slots 0-1 in this process and
  2-3 in a shard worker, when the slots are large), one in this process
  alone (the tool sets ``shards.MIN_SLOT_BYTES`` to infinity);
* for the MLP, whose slots are small, two fused width-8 arrays (jobs 0-7
  and 8-15), one per CPU as the engine's turn loop runs a cycle: the
  first here, the second whole in a shard worker, each turn starting both
  epochs, stepping this process's array, then finishing both (on one CPU
  both train here);
* one width-1 array, ``B`` serial steps per sample;
* two concurrent width-1 processes, each stepping its own job on one
  thread: the serial comparator that uses both CPUs too.

It prints for every step (pair) of each array's life the wall ms, minor
faults, system-CPU ms and this process's CPU-seconds per wall second (a
shard worker's CPU is not in it), then the medians of rows 2 on (the first
step of an array allocates its activation arena, so it faults by
construction), the sharded / one-process and sharded / concurrent ratios
of the fused step, the MLP's ms per width-8 step of the two arrays one per
CPU (a turn's wall over two) and its ratio to the one-process step, the
concurrent pair's ms per ``B`` model-steps, each shard worker's peak RSS
(``VmHWM``) and proportional set size (``Pss``: pages it shares with this
process, which forked it, count by halves), the
MB (2^20 bytes, as ``peak_rss_mb``) each array's activation arena holds
here, and this process's peak RSS since it started, after the model's
arrays ran (models run in the order pointnet, lm, mlp).  The arrays run
one after another, as in a benchmark lap.  BLAS runs one thread, as in
``bench_e2e``.  Reads the benchmark's files, writes nothing.

``--phases`` instead prints, per model, the median microseconds of each
phase of a step — inputs + forward, loss, backward, optimizer — of the
fused array and of its width-1 twin (steps 2 on): the fixed per-step costs
that a width-``B`` and a width-1 step pay alike show in both columns.

``--arena`` instead steps each model's fused array ``--steps`` times and
prints what its activation arena then holds: one row per buffer shape and
dtype, with the buffers' count and MB, most bytes first.  Then it traces
one more step with ``tracemalloc`` and prints what lives outside the
arena: the MB the step allocated and still holds when backward starts,
the step's peak MB and the source lines holding most at backward start.

``--scatter`` instead times the embedding gradient's scatter,
``np.add.at`` against occurrence rounds (``F._scatter_add_rows`` picks one
by the most frequent id's count), on the ``sweep_paper`` LM's token and
position ids and on BERT's default all-zero segment ids and a half-padded
token batch, serial and fused.
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
FAMILIES = ("pointnet", "lm", "mlp")
#: --phases: one training step's phases, in ``_Shard.step``'s order
PHASES = ("inputs + forward", "loss", "backward", "optimizer")


def executor_for(jobs, steps, host=None):
    """A prepared executor training ``jobs`` as one array, one step per
    epoch, with a budget of one step more than the probe takes (the last
    epoch would retire and export every slot); whole in the shard worker
    ``host`` if one is given."""
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
    executor.physics.host = host
    executor.prepare()
    return executor


@contextlib.contextmanager
def one_process():
    """Arrays built inside the block train in this process alone
    (``shards.MIN_SLOT_BYTES`` infinite), as on a one-CPU machine."""
    from repro.runtime import shards

    saved, shards.MIN_SLOT_BYTES = shards.MIN_SLOT_BYTES, math.inf
    try:
        yield
    finally:
        shards.MIN_SLOT_BYTES = saved


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


def here(executor):
    """The shard of ``executor``'s array that trains in this process."""
    return executor.physics.parts[0]


def run(jobs, steps, repeats=1):
    """``steps`` samples of ``repeats`` steps of one array of ``jobs``, and
    the bytes its arena holds."""
    executor = executor_for(jobs, steps * repeats)
    samples = [measure(executor.step_epoch, repeats) for _ in range(steps)]
    return samples, here(executor).arena.nbytes


def turn(executors):
    """One turn of the engine's loop over ``executors``: every epoch
    started, this process's parts stepped, every epoch finished."""
    for executor in executors:
        executor.start_epoch()
    for executor in executors:
        executor.step_here()
    for executor in executors:
        executor.step_epoch()


def run_fused(jobs, steps, others=()):
    """``steps`` rounds of steps of two fused arrays of ``jobs``, one
    sharded and one in this process, and, given the jobs of a second
    array ``others``, of a pair of arrays one per CPU (``jobs`` here,
    ``others`` in a shard worker), rotating which steps first: (sharded
    samples, one-process samples, the bytes the sharded array's arena
    here holds, per-step samples of the pair — a turn's over two — or
    ``None``)."""
    from repro.runtime import shards

    sharded = executor_for(jobs, steps)
    with one_process():
        single = executor_for(jobs, steps)
    sides = {"sharded": sharded.step_epoch, "single": single.step_epoch}
    if others:
        host = shards.workers()[0] if shards.cpus() > 1 else None
        pair = [executor_for(jobs, steps), executor_for(others, steps, host)]
        sides["pair"] = lambda: turn(pair)
    samples = {side: [] for side in sides}
    order = list(sides)
    for n in range(steps):
        for side in order[n % len(order):] + order[:n % len(order)]:
            samples[side].append(measure(sides[side], 1))
    spread = [(ms / 2, faults, sys_ms, cpu) for ms, faults, sys_ms, cpu
              in samples["pair"]] if others else None
    return (samples["sharded"], samples["single"], here(sharded).arena.nbytes,
            spread)


def run_phases(executor, steps, mark):
    """``steps`` steps of ``executor``'s one-shard array, each the body of
    ``_Shard.step`` inside its arena, calling ``mark(n, k)`` before step
    ``n`` (``k = 0``) and after each of its :data:`PHASES` (``k = 1`` to
    4)."""
    import numpy as np

    from repro import nn

    [physics], slots = executor.physics.parts, executor.slots
    with physics.arena.active():
        for n in range(steps):
            mark(n, 0)
            batches = [slot.job.data(slot.progress + n) for slot in slots]
            inputs = [nn.tensor(np.asarray(x, dtype=np.float32))
                      for x, _ in batches]
            targets = np.stack([y for _, y in batches])
            physics.optimizer.zero_grad()
            out = physics.fused(physics.fused.fuse_inputs(inputs))
            mark(n, 1)
            losses = physics.criterion.per_model(out, targets)
            del out
            mark(n, 2)
            losses.backward(np.ones_like(losses.data))
            mark(n, 3)
            physics.optimizer.step()
            mark(n, 4)
            del losses


def phase_times(jobs, steps):
    """Median microseconds of each of :data:`PHASES` over ``steps`` steps
    (after a first, arena-filling one) of one array of ``jobs``."""
    clock = time.perf_counter
    stamps = [[] for _ in range(steps + 1)]
    with one_process():
        executor = executor_for(jobs, steps)
    run_phases(executor, steps + 1, lambda n, k: stamps[n].append(clock()))
    return [statistics.median(times[k + 1] - times[k]
                              for times in stamps[1:]) * 1e6
            for k in range(len(PHASES))]


def report_phases(family, width, fused, single):
    print(f"\n{family}: median us per step phase, fused width-{width} and "
          f"width 1")
    print(f"{'phase':<18} {'fused':>9} {'width 1':>9}")
    for name, f, s in zip(PHASES + ("sum",), fused + [sum(fused)],
                          single + [sum(single)]):
        print(f"{name:<18} {f:9.1f} {s:9.1f}")


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
    executor = executor_for(jobs[index:index + 1], count)
    print("ready", flush=True)
    sys.stdin.readline()
    wall, _, _, cpu_share = measure(executor.step_epoch, count)
    print(wall / 1e3, cpu_share * wall / 1e3)


def proc_mb(pid, name, table="status"):
    """The ``name:`` line of ``/proc/<pid>/<table>`` in MB, or ``None``."""
    with contextlib.suppress(OSError):
        with open(f"/proc/{pid}/{table}") as lines:
            for line in lines:
                if line.startswith(f"{name}:"):
                    return int(line.split()[1]) / 1024
    return None


def peak_rss_mb():
    """The process's peak RSS in MB since it started (``ru_maxrss``, KiB on
    Linux, as ``peak_rss_mb``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def worker_memory():
    """``(pid, VmHWM MB, Pss MB)`` of each shard worker (``None`` where
    ``/proc`` does not say)."""
    from repro.runtime import shards

    return [(pid, proc_mb(pid, "VmHWM"), proc_mb(pid, "Pss", "smaps_rollup"))
            for pid in (worker.process.pid for worker in shards._workers
                        if worker.alive)]


def median_of_steady(samples, k):
    steady = samples[1:] or samples
    return statistics.median(sample[k] for sample in steady)


def report(family, width, fused, serial, pair, peak_mb, workers):
    (fused, single, fused_bytes, spread), (serial, serial_bytes) = \
        fused, serial
    print(f"\n{family}: a fused width-{width} step vs {width} serial steps")
    print(f"{'step':>4}  {'sharded ms':>10} {'faults':>7} {'sys ms':>7} "
          f"{'cpu/wall':>8}   {'1-proc ms':>9} {'cpu/wall':>8}   "
          f"{'serial ms':>9} {'faults':>7} {'sys ms':>7}"
          + (f"   {'2/CPU ms':>9} {'cpu/wall':>8}" if spread else ""))
    for n, (f, o, s) in enumerate(zip(fused, single, serial), 1):
        print(f"{n:>4}  {f[0]:10.2f} {f[1]:7d} {f[2]:7.2f} {f[3]:8.2f}   "
              f"{o[0]:9.2f} {o[3]:8.2f}   "
              f"{s[0]:9.2f} {s[1]:7d} {s[2]:7.2f}"
              + (f"   {spread[n - 1][0]:9.2f} {spread[n - 1][3]:8.2f}"
                 if spread else ""))
    f, o, s = ([median_of_steady(side, k) for k in range(4)]
               for side in (fused, single, serial))
    print(f"  median of rows 2..{len(fused)}: sharded {f[0]:.2f} ms, "
          f"{f[1]:.0f} faults, {f[2]:.2f} sys ms, cpu/wall {f[3]:.2f}; "
          f"one process {o[0]:.2f} ms, cpu/wall {o[3]:.2f}; serial "
          f"{s[0]:.2f} ms, {s[1]:.0f} faults, {s[2]:.2f} sys ms")
    print(f"  fused sharded / one process: {f[0] / o[0]:.2f}x")
    if spread:
        p = [median_of_steady(spread, k) for k in range(4)]
        print(f"  two width-{width} arrays, one per CPU: {p[0]:.2f} ms per "
              f"array step, cpu/wall {p[3]:.2f}; / one process: "
              f"{p[0] / o[0]:.2f}x")
    print(f"  concurrent serial, 2 processes: {pair[0]:.2f} ms per "
          f"{width} model-steps, cpu/wall {pair[1]:.2f} (fused sharded / "
          f"concurrent: {f[0] / pair[0]:.2f}x)")
    for pid, hwm, pss in workers:
        print(f"  shard worker {pid}: VmHWM {hwm or 0:.1f} MB, "
              f"Pss {pss or 0:.1f} MB")
    print(f"  arena held: fused {fused_bytes / 2**20:.1f} MB here, "
          f"serial {serial_bytes / 2**20:.1f} MB; process peak RSS "
          f"{peak_mb:.1f} MB")


def scatter_cases():
    """(name, ids, table rows, dim) of embedding gradient scatters: the
    ``sweep_paper`` LM's batch at its width, and BERT batches of 32 x 32
    tokens at hidden sizes 32 and 512 (``BertConfig.tiny``/``medium``), at
    width 1 and fused at the LM's width (model ``b``'s ids offset by ``b``
    tables, as the fused ``Embedding`` does)."""
    import numpy as np

    from bench_e2e.spec import SIZES

    lm = SIZES["sweep_paper"]
    rng = np.random.default_rng(0)
    shape = (lm["batch"], lm["length"])
    padded = rng.integers(1, 4000, (32, 32))
    padded[:, 16:] = 0                           # the pad id
    batches = [
        ("lm tokens", rng.integers(0, lm["vocab"], shape), lm["vocab"],
         lm["d_model"]),
        ("lm positions", np.broadcast_to(np.arange(lm["length"]), shape),
         lm["length"], lm["d_model"]),
        *((f"bert segments d{dim}", np.zeros((32, 32), np.int64), 2, dim)
          for dim in (32, 512)),
        *((f"bert padded d{dim}", padded, 4000, dim) for dim in (32, 512))]
    for name, ids, num, dim in batches:
        for width in (1, lm["width"]):
            fused = np.stack([ids + b * num for b in range(width)])
            yield f"{name} B={width}", fused.reshape(-1), width * num, dim


def scatter(repeats=20):
    """Print the median us of ``np.add.at``, of the occurrence rounds and of
    the form ``F._scatter_add_rows`` picks, per :func:`scatter_cases`."""
    import numpy as np

    from repro.nn import functional as F

    def add_at(out, ids, rows):
        np.add.at(out, ids, rows)

    forms = (add_at, F._add_in_rounds, F._scatter_add_rows)
    print(f"{'ids':<22} {'rows':>5} {'dim':>4} {'most':>5} {'budget':>6} "
          f"{'add.at us':>9} {'rounds us':>9} {'picked':>7} {'ratio':>6}")
    rng = np.random.default_rng(1)
    for name, ids, num, dim in scatter_cases():
        rows = rng.standard_normal((len(ids), dim)).astype(np.float32)
        times = {form: [] for form in forms}
        for _ in range(repeats):
            for form in forms:
                out = np.zeros((num, dim), np.float32)
                start = time.perf_counter()
                form(out, ids, rows)
                times[form].append(time.perf_counter() - start)
        at, rnd, picked = (statistics.median(times[f]) * 1e6 for f in forms)
        most, budget = np.bincount(ids).max(), F._round_budget(*rows.shape)
        print(f"{name:<22} {len(ids):5d} {dim:4d} {most:5d} {budget:6d} "
              f"{at:9.0f} {rnd:9.0f} "
              f"{'rounds' if most <= budget else 'add.at':>7} "
              f"{picked / at:6.2f}")


def report_arena(family, width, arena):
    """Print ``arena``'s buffers by shape and dtype, most bytes first."""
    print(f"\n{family}: the arena of a fused width-{width} array, "
          f"{arena.nbytes / 2**20:.2f} MB")
    print(f"{'shape':<22} {'dtype':<8} {'count':>5} {'MB':>7}")
    for shape, dtype, count, nbytes in arena.holdings():
        print(f"{str(list(shape)):<22} {str(dtype):<8} {count:5d} "
              f"{nbytes / 2**20:7.2f}")


def outside_arena(executor, sites=5):
    """``tracemalloc`` over one more step of ``executor``'s warm array:
    (MB allocated in the step and still held when backward starts, the
    step's peak MB, the ``sites`` lines holding most at backward start as
    ``(file:line, MB)``).  The arena's buffers predate the trace, so this
    is what lives outside the arena."""
    import tracemalloc

    seen = {}

    def mark(n, k):
        if k == 0:
            tracemalloc.start()
        elif k == 2:                                   # backward starts
            seen["held"], seen["peak"] = tracemalloc.get_traced_memory()
            stats = tracemalloc.take_snapshot().statistics("lineno")
            seen["sites"] = [(f"{Path(s.traceback[0].filename).name}:"
                              f"{s.traceback[0].lineno}", s.size / 2**20)
                             for s in stats[:sites]]
            del stats
            tracemalloc.reset_peak()
        elif k == 4:
            seen["peak"] = max(seen["peak"], tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    run_phases(executor, 1, mark)
    return seen["held"] / 2**20, seen["peak"] / 2**20, seen["sites"]


def report_outside(family, held, peak, sites):
    print(f"{family}: outside the arena over one warm step: {held:.2f} MB "
          f"held at backward start, {peak:.2f} MB peak")
    for site, mb in sites:
        print(f"  {site:<28} {mb:7.2f} MB")


def family_jobs(family):
    from bench_e2e.spec import SIZES
    from bench_e2e.workloads import SweepMLP, SweepPaper

    if family == "mlp":
        return SweepMLP(SIZES["sweep_mlp"], seed=0, scratch=None).make_jobs()
    jobs = SweepPaper(SIZES["sweep_paper"], seed=0, scratch=None).make_jobs()
    return [job for job in jobs if job.name.startswith(family)]


def family_width(family):
    from bench_e2e.spec import SIZES

    return SIZES["sweep_mlp" if family == "mlp" else "sweep_paper"]["width"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=10,
                        help="rows per model: pairs of fused steps (sharded, "
                             "one process), samples of B serial steps")
    parser.add_argument("--phases", action="store_true",
                        help="median us of each phase of a fused and a "
                             "width-1 step instead")
    parser.add_argument("--arena", action="store_true",
                        help="print what each fused array's arena holds "
                             "after --steps steps instead")
    parser.add_argument("--scatter", action="store_true",
                        help="time the embedding gradient's scatter "
                             "instead")
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
    if args.scatter:
        scatter()
        return 0
    for family in FAMILIES:
        width = family_width(family)
        jobs = family_jobs(family)[:width]
        if args.arena:
            with one_process():
                executor = executor_for(jobs, args.steps)
            for _ in range(args.steps):
                executor.step_epoch()
            report_arena(family, width, here(executor).arena)
            report_outside(family, *outside_arena(executor))
            continue
        if args.phases:
            report_phases(family, width, phase_times(jobs, args.steps),
                          phase_times(jobs[:1], args.steps))
            continue
        others = family_jobs(family)[width:2 * width] if family == "mlp" \
            else ()
        fused = run_fused(jobs, args.steps, others)
        serial = run(jobs[:1], args.steps, repeats=width)
        peak_mb = peak_rss_mb()
        report(family, width, fused, serial,
               concurrent(family, width, args.steps), peak_mb,
               worker_memory())
    return 0


if __name__ == "__main__":
    sys.exit(main())
