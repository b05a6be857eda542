"""Command line of the benchmark; see ``bench_e2e/README.md``.

    python -m bench_e2e                       all workloads, a table
    python -m bench_e2e --trace               the same, per-layer metrics
    python -m bench_e2e --workload sweep_mlp --seed 3 --trace 0
    python -m bench_e2e --smoke               everything, tiny, < 60 s

With ``--workload`` the last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import time

T0 = time.perf_counter()      # process start, for setup_s

import argparse               # noqa: E402 — T0 first
import json                   # noqa: E402
import os                     # noqa: E402
import re                     # noqa: E402
import shutil                 # noqa: E402
import subprocess             # noqa: E402
import sys                    # noqa: E402

from . import spec            # noqa: E402


def parse(argv):
    benchmark = spec.load_benchmark()
    parser = argparse.ArgumentParser(prog="python -m bench_e2e",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in benchmark["workloads"]],
                        help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds data, initial weights and sim_fleet's "
                             "arrival trace, never sizes")
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="accepted because the driver passes it; the "
                             "work of a run is fixed in spec.py and sized "
                             "to take this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced pass, per-layer metrics")
    parser.add_argument("--out", default=str(spec.DEFAULT_OUT),
                        help="directory for result files and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; alone: self-test of the benchmark")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv), benchmark


def metric_names(benchmark, trace):
    return [m["name"]
            for m in benchmark["per_layer" if trace else "end_to_end"]]


def run_one(args, benchmark) -> int:
    """One workload in this process; prints the contract's JSON line."""
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"       # before numpy is imported
    source = spec.ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"bench_e2e: no program to measure: {source}/repro is "
              f"missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from . import runner                 # imports numpy and repro
    import_s = time.perf_counter() - T0

    run = runner.Run(args.workload, args.seed, args.trace, args.out,
                     args.smoke, T0, import_s)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": run.setup_s}))
            return 0
        detail = run.measure_layers() if args.trace else run.measure()
    finally:
        run.workload.close()
    names = metric_names(benchmark, args.trace)
    missing = sorted(set(names) - set(detail))
    if missing:
        raise SystemExit(f"bench_e2e: {missing} are in BENCHMARK.json but "
                         f"were not measured")
    line = runner.result_line(run, detail, spec.metric_units(benchmark),
                              names)
    kind = "layers" if args.trace else "result"
    path = run.out / f"{kind}.{args.workload}.seed{args.seed}.json"
    path.write_text(json.dumps(
        dict(line, workload=args.workload, seed=args.seed,
             refused=run.refused, failures=run.failures[:50],
             detail=detail, laps=run.rows), indent=1) + "\n")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(line))
    return 0


def child(args, workload, trace, out, smoke=False):
    """The same command for one workload, in a fresh subprocess."""
    command = [sys.executable, "-m", "bench_e2e", "--workload", workload,
               "--seed", str(args.seed), "--trace", str(trace),
               "--out", str(out)]
    done = subprocess.run(command + (["--smoke"] if smoke else []),
                          cwd=spec.ROOT, capture_output=True, text=True,
                          timeout=600)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"bench_e2e: {workload} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_all(args, benchmark) -> int:
    """Every workload, one after another, each in its own process."""
    correct = True
    for workload in benchmark["workloads"]:
        line = child(args, workload["name"], args.trace, args.out)
        correct &= line["correct"]
        print(f"\n{workload['name']}: attempted {line['attempted']}, "
              f"failed {line['failed']}, "
              f"{'correct' if line['correct'] else 'INCORRECT'}")
        for name, metric in line["metrics"].items():
            print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    return 0 if correct else 1


def smoke(args, benchmark) -> int:
    """All four workloads, the tracer, the checker and compare.py on
    itself, at tiny sizes; names must equal BENCHMARK.json's exactly."""
    from . import compare
    out = spec.DEFAULT_OUT / "smoke"
    shutil.rmtree(out, ignore_errors=True)
    legal = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")

    def require(condition, message):
        if not condition:
            raise SystemExit(f"smoke: {message}")

    for workload in benchmark["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            line = child(args, name, trace, out, smoke=True)
            wanted = metric_names(benchmark, trace)
            require(list(line["metrics"]) == wanted,
                    f"{name} emitted other metrics than BENCHMARK.json: "
                    f"{sorted(set(line['metrics']) ^ set(wanted))}")
            require(all(legal.match(n) for n in wanted + [name]),
                    f"illegal name among {wanted + [name]}")
            require(line["correct"] and line["failed"] == 0,
                    f"{name} (trace {trace}) is not correct: {line}")
        require((out / f"trace.{name}.jsonl").exists(),
                f"{name} wrote no trace file")
        print(f"smoke: {name} ok")
    require(compare.main([str(out), str(out)]) == 0,
            "compare.py finds a regression between a set and itself")
    print("smoke: ok")
    return 0


def main(argv=None) -> int:
    args, benchmark = parse(argv)
    if args.workload:
        return run_one(args, benchmark)
    if args.smoke:
        return smoke(args, benchmark)
    return run_all(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
