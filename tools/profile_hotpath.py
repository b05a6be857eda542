#!/usr/bin/env python
"""Profile the fused training hot path and dump the cProfile top-N.

Runs the exact per-step sequence ``FusedPhysics.step`` executes
(zero_grad -> forward -> fused criterion -> backward -> optimizer.step ->
per-model logging losses) on a synthetic width-``W`` MLP array, measures
steps/sec without the profiler attached, then profiles the same loop and
writes the top-N functions by cumulative time to a text artifact.

This is the harness behind ``make profile``; the committed artifact
(`benchmarks/PROFILE_hotpath.txt` by default) records where step time
goes so perf regressions show up in review, not just in the bench gate.
See ``docs/performance.md`` for the workflow.

Usage::

    python tools/profile_hotpath.py [--width 32] [--steps 64] [--top 30] \
        [--out benchmarks/PROFILE_hotpath.txt]
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import hfta, nn                                    # noqa: E402
from repro.hfta import ops as hops                            # noqa: E402
from repro.hfta import optim as fused_optim                   # noqa: E402

IN_FEATURES = 16
HIDDEN = 32
CLASSES = 10
BATCH = 32


def build_workload(width: int, seed: int = 0):
    """A width-``width`` two-layer MLP array plus criterion and optimizer."""
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        hops.Linear(width, IN_FEATURES, HIDDEN),
        hops.ReLU(width),
        hops.Linear(width, HIDDEN, CLASSES))
    for p in model.parameters():
        p.data[...] = rng.standard_normal(p.shape).astype(p.data.dtype)
    optimizer = fused_optim.Adam(model.parameters(), num_models=width,
                                 lr=[1e-3] * width)
    criterion = hfta.FusedCrossEntropyLoss(width)
    x = nn.tensor(rng.standard_normal(
        (width, BATCH, IN_FEATURES)).astype(np.float32))
    targets = rng.integers(0, CLASSES, size=(width, BATCH))
    return model, optimizer, criterion, x, targets


def run_steps(model, optimizer, criterion, x, targets, steps: int) -> None:
    """The hot loop: mirrors FusedPhysics.step's per-step work."""
    for _ in range(steps):
        optimizer.zero_grad()
        out = model(x)
        loss = criterion(out, targets)
        loss.backward()
        optimizer.step()
        criterion.per_model(out, targets)


def measure_steps_per_sec(width: int, steps: int) -> float:
    work = build_workload(width)
    run_steps(*work, steps=max(4, steps // 8))     # warm up
    start = time.perf_counter()
    run_steps(*work, steps=steps)
    elapsed = time.perf_counter() - start
    return steps / elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--width", type=int, default=32,
                        help="array width B to profile (default 32)")
    parser.add_argument("--steps", type=int, default=64,
                        help="training steps per measurement (default 64)")
    parser.add_argument("--top", type=int, default=30,
                        help="number of functions in the report (default 30)")
    parser.add_argument("--out", default="benchmarks/PROFILE_hotpath.txt",
                        help="artifact path (default "
                             "benchmarks/PROFILE_hotpath.txt)")
    args = parser.parse_args(argv)

    throughput = {w: measure_steps_per_sec(w, args.steps)
                  for w in (1, 8, args.width)}

    work = build_workload(args.width)
    run_steps(*work, steps=4)                      # warm up before profiling
    profiler = cProfile.Profile()
    profiler.enable()
    run_steps(*work, steps=args.steps)
    profiler.disable()

    report = io.StringIO()
    stats = pstats.Stats(profiler, stream=report)
    stats.sort_stats("cumulative").print_stats(args.top)
    # normalize machine-specific paths so the committed artifact diffs
    # cleanly across contributors' checkouts and interpreters
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    text = report.getvalue()
    for prefix, repl in ((os.path.join(repo_root, "tools", "..", "src"),
                          "src"),
                         (os.path.join(repo_root, "tools"), "tools"),
                         (repo_root, "."),
                         (sys.prefix, "<python>")):
        text = text.replace(prefix + os.sep, repl + os.sep)
    report = io.StringIO(text)

    lines = [
        "# Hot-path profile — tools/profile_hotpath.py",
        f"# width={args.width} steps={args.steps} "
        f"batch={BATCH} model=MLP({IN_FEATURES}->{HIDDEN}->{CLASSES})",
        "#",
        "# steps/sec (measured without profiler overhead):",
    ]
    lines += [f"#   width {w:>3}: {sps:10.1f} steps/sec"
              for w, sps in sorted(throughput.items())]
    lines += ["#", report.getvalue().rstrip(), ""]
    artifact = "\n".join(lines)

    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write(artifact)
    print(artifact)
    print(f"profile written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
