"""Paired parent/change runs of the repo benchmark.

    python tools/paired_bench.py PARENT_REF --workload sweep_paper --pairs 10
    python tools/paired_bench.py PARENT_REF --pairs 4 \
        --workload sweep_mlp,sweep_paper,serve_elastic,sim_fleet

Exports ``PARENT_REF`` with ``git archive`` into a temporary directory (no
worktree, nothing left in ``.git``), then runs ``python -m bench_e2e
--workload W --seed i --out <tmp>`` once in the export and once in this
checkout's working tree for ``i = 0 .. pairs-1``, the parent first on even
pairs and the change first on odd ones.  Per end-to-end metric of
``BENCHMARK.json`` it prints each pair, the wins of the change (ties count
for neither side), the median of the per-pair change/parent ratios and both
sides' quartiles; for workloads with a serial lap, the fused and the serial
``slot_steps_per_s`` of every pair as well, so that a ``fused_speedup``
bought by slowing the width-1 path shows, and each run's failed operations
(the checker's ``failed``; every attempted one when a run is not
``correct``).  ``--workload`` takes a comma-separated list: the parent is
exported once, the workloads run one after another, and each gets its own
summary block as soon as its pairs are done.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SERIAL_RATE = "serial.slot_steps_per_s"

sys.path.insert(0, str(ROOT))
from bench_e2e.compare import quartiles      # noqa: E402 — ROOT first


def export_parent(ref: str, target: Path) -> None:
    """The committed files of ``ref``, unpacked under ``target``."""
    archive = target.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(archive),
                    ref], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(target)
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, out: Path) -> dict:
    """One benchmark run in ``tree``; its result file as a dict."""
    subprocess.run([sys.executable, "-m", "bench_e2e", "--workload", workload,
                    "--seed", str(seed), "--out", str(out)],
                   cwd=tree, check=True, stdout=subprocess.DEVNULL)
    return json.loads(
        (out / f"result.{workload}.seed{seed}.json").read_text())


def values_of(result: dict, names) -> dict:
    """The run's end-to-end values, its failed operations (an incorrect run
    counts as all attempted), plus the serial rate when measured."""
    values = {name: result["metrics"][name]["value"] for name in names}
    values["failed"] = (result["failed"] if result["correct"]
                        else result["attempted"])
    serial = result["detail"].get(SERIAL_RATE)
    if serial is not None:
        values[SERIAL_RATE] = serial["value"]
    return values


def spread(values) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def report(workload: str, pairs, better: dict) -> None:
    """``pairs``: one (parent values, change values) per seed."""
    print(f"\n{workload}: {len(pairs)} alternating pairs, seeds 0.."
          f"{len(pairs) - 1}; ratio = change / parent")
    for name, direction in better.items():
        if name not in pairs[0][0]:
            continue
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        if direction == "higher":
            wins = sum(c > p for p, c in zip(parent, change))
        else:
            wins = sum(c < p for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        ratios = [c / p for p, c in zip(parent, change) if p]
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "n/a"
        print(f"  {name} ({direction} is better): wins {wins}/"
              f"{len(pairs) - ties}, median ratio {ratio}")
        print(f"    parent median [q1, q3]: {spread(parent)}")
        print(f"    change median [q1, q3]: {spread(change)}")
        print("    pairs: " + "  ".join(
            f"{p:.4g}->{c:.4g}" for p, c in zip(parent, change)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_ref", metavar="PARENT_REF")
    parser.add_argument("--workload", required=True,
                        help="one workload, or several separated by commas")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    names = list(better)
    better.update({"failed": "lower", SERIAL_RATE: "higher"})
    with tempfile.TemporaryDirectory(prefix="paired_bench.") as scratch:
        scratch = Path(scratch)
        trees = {"parent": scratch / "parent", "change": ROOT}
        export_parent(args.parent_ref, trees["parent"])
        for workload in args.workload.split(","):
            pairs = []
            for seed in range(args.pairs):
                order = ("parent", "change") if seed % 2 == 0 \
                    else ("change", "parent")
                values = {side: values_of(
                    run_once(trees[side], workload, seed,
                             scratch / f"out.{side}"), names)
                    for side in order}
                pairs.append((values["parent"], values["change"]))
                print(f"{workload} pair {seed} ({order[0]} first): "
                      + "  ".join(
                          f"{name} {values['parent'][name]:.4g}->"
                          f"{values['change'][name]:.4g}"
                          for name in ("slot_steps_per_s", "jobs_per_s",
                                       "fused_speedup", SERIAL_RATE)
                          if name in values["parent"]), flush=True)
            report(workload, pairs, better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
