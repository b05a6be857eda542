"""Compare two sets of result files: ``python bench_e2e/compare.py A_DIR B_DIR``.

Each directory holds ``result.<workload>.seed<n>.json`` files written by
``python -m bench_e2e --out DIR``; A is the base (the parent commit), B
the change.  For every (workload, end-to-end metric) the medians and
quartiles over each set's runs are printed, every ratio with its base,
and a verdict from the bounds in ``BENCHMARK.json``:

* ``unresolved`` — either set's own run-to-run spread (q3 - q1, as a share
  of A's median) is wider than the bound, so no verdict can be given;
* ``regressed``  — B's median is worse than A's by more than the bound;
* ``ok``         — otherwise.

Exits 1 when any row is ``regressed``.  Standard library only, so it runs
as a script from any checkout.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory) -> dict:
    """{workload: {metric: [one value per run]}} of a result directory."""
    runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("result.*.json")):
        result = json.loads(path.read_text())
        for name, metric in result["metrics"].items():
            runs[result["workload"]][name].append(metric["value"])
    return runs


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them;
    a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, change, better, bound):
    """(verdict, worsening as a share of the base median, spread)."""
    (a1, a, a3), (b1, b, b3) = quartiles(base), quartiles(change)
    worse = (b - a) / a if better == "lower" else (a - b) / a
    spread = max(a3 - a1, b3 - b1) / abs(a)
    if spread > bound:
        return "unresolved", worse, spread
    return ("regressed" if worse > bound else "ok"), worse, spread


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK.read_text())
    base, change = load(argv[0]), load(argv[1])
    regressed = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in base or workload not in change:
            print(f"{workload}: no result files in both sets, skipped")
            continue
        print(f"{workload}  (A = {argv[0]}, B = {argv[1]})")
        for metric in benchmark["end_to_end"]:
            a = base[workload][metric["name"]]
            b = change[workload][metric["name"]]
            word, worse, spread = verdict(a, b, metric["better"],
                                          metric["bound"])
            regressed |= word == "regressed"
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            print(f"  {metric['name']:18s} {metric['unit']:5s} "
                  f"A {am:11.5g} [{a1:.5g}, {a3:.5g}] n={len(a)}  "
                  f"B {bm:11.5g} [{b1:.5g}, {b3:.5g}] n={len(b)}  "
                  f"B/A = {bm:.5g}/{am:.5g} = {bm / am:.4f}  "
                  f"worse by {worse:+.1%} (bound {metric['bound']:.0%}, "
                  f"spread {spread:.1%})  {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
