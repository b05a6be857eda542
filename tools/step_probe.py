"""Per-step wall time, minor page faults and system time of a fused step.

    python tools/step_probe.py              # 10 steps
    python tools/step_probe.py --steps 20

For each ``sweep_paper`` model at its benchmark size (the jobs of
``bench_e2e.workloads.SweepPaper`` at ``bench_e2e.spec.SIZES``: PointNet
and the Transformer LM, with their builders, data and learning rates),
steps one fused array at the benchmark's width ``B`` (4) and one width-1
array through the engine's own executor, one step per epoch, and prints
for every step of the array's life the fused step's wall ms, minor
faults and system-CPU ms next to those of ``B`` serial steps; then the
median of steps 2 on
(the first step of an array allocates its activation arena, so it faults
by construction) and the MB (2^20 bytes, as ``peak_rss_mb``) each array's
activation arena holds.  The fused array runs all its steps before the
serial one, as in a benchmark lap.  BLAS runs one thread, as in
``bench_e2e``.  Reads the benchmark's files, writes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("pointnet", "lm")


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


def measure(step, repeats):
    """(ms, minor faults, system ms) of ``repeats`` calls of ``step``."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for _ in range(repeats):
        step()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (wall * 1e3, after.ru_minflt - before.ru_minflt,
            (after.ru_stime - before.ru_stime) * 1e3)


def probe(jobs, width, steps):
    """Rows of (fused sample, serial sample), and the arenas' bytes."""
    fused = executor_for(jobs[:width], steps)
    fused_samples = [measure(fused.step_epoch, 1) for _ in range(steps)]
    serial = executor_for(jobs[:1], steps * width)
    serial_samples = [measure(serial.step_epoch, width)
                      for _ in range(steps)]
    return (list(zip(fused_samples, serial_samples)),
            fused.physics.arena.nbytes, serial.physics.arena.nbytes)


def report(family, width, rows, fused_bytes, serial_bytes):
    print(f"\n{family}: a fused width-{width} step vs {width} serial steps")
    print(f"{'step':>4}  {'fused ms':>9} {'faults':>7} {'sys ms':>7}   "
          f"{'serial ms':>9} {'faults':>7} {'sys ms':>7}")
    for n, (f, s) in enumerate(rows, 1):
        print(f"{n:>4}  {f[0]:9.2f} {f[1]:7d} {f[2]:7.2f}   "
              f"{s[0]:9.2f} {s[1]:7d} {s[2]:7.2f}")
    steady = rows[1:]
    if steady:
        median = [statistics.median(sample[side][k] for sample in steady)
                  for side in (0, 1) for k in range(3)]
        print(f"  median of steps 2..{len(rows)}: fused {median[0]:.2f} ms, "
              f"{median[1]:.0f} faults, {median[2]:.2f} sys ms; serial "
              f"{median[3]:.2f} ms, {median[4]:.0f} faults, "
              f"{median[5]:.2f} sys ms")
    print(f"  arena held: fused {fused_bytes / 2**20:.1f} MB, "
          f"serial {serial_bytes / 2**20:.1f} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=10,
                        help="fused steps per model (each array's life)")
    args = parser.parse_args(argv)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")     # before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench_e2e.spec import SIZES
    from bench_e2e.workloads import SweepPaper

    size = SIZES["sweep_paper"]
    jobs = SweepPaper(size, seed=0, scratch=None).make_jobs()
    for family in FAMILIES:
        mine = [job for job in jobs if job.name.startswith(family)]
        report(family, size["width"],
               *probe(mine, size["width"], args.steps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
