"""Fixed sizes of the benchmark: the same on every commit it compares.

``--seed`` changes data and arrival patterns, never a size or a lap
count below.  The driver allows ~37 s per run (set-up and checks
included), and the box's disturbances are bursts of a fraction of a second
to some ten seconds that only ever slow work down, so a run is **many short
laps** — ``laps`` fused laps of 0.5-1.4 s, each followed by a serial lap of
~0.25 s (``sim_fleet``: none), about 20 s of laps, ``run_seconds`` of
``BENCHMARK.json`` — and reports the second-best lap, not the 7 x 4-5 s
and the median of the issue's prototypes (README, "Run shape").  Metric
names, units, directions and bounds live in ``BENCHMARK.json`` only;
:func:`load_benchmark` reads them.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = Path(__file__).resolve().parent / "out"

#: rounds (untraced lap, serial lap, traced lap) of a traced run, and laps
#: of a ``--smoke`` run; an untraced run takes ``laps`` of ``SIZES``
TRACE_LAPS = 5
#: extra set-up samples taken in child processes (the run's own set-up is
#: the first sample); ``setup_s`` is the median of all of them
SETUP_CHILDREN = 2
#: delivered jobs per real workload compared with serial ``repro.optim``
#: training.  Fused and serial float32 trajectories start out equal (the
#: first two losses within 5e-7 on every job measured), then some drift
#: apart: a ReLU flips on rounding noise and Adam amplifies it.  On 1 150
#: sweep-MLP jobs three in a hundred did so within 256 steps — one of them
#: before step 48 — ending with loss curves up to 5.4e-3 and the delivered
#: model's outputs up to 2.2e-2 from the serial ones, while a neighbouring
#: slot's checkpoint is never closer than 0.7.  PointNet (BatchNorm over a
#: batch of 8) drifts from its fourth step: curves 2.7e-2 apart by step 8,
#: outputs 0.19, a wrong slot 0.41 or more.  So three gates: the first
#: ``EXACT_STEPS`` losses at ``EXACT_TOLERANCE`` (the right job, data, seed
#: and learning rate), the whole curve at the workload's curve tolerance
#: (a slot disturbed by eviction, admission, merge or restart), and the
#: delivered checkpoint's outputs at the middle, in log, of the largest
#: drift and the smallest wrong-slot gap.
SERIAL_SAMPLE = 4
EXACT_STEPS = 2
EXACT_TOLERANCE = 1e-5
CURVE_TOLERANCE = {"sweep_mlp": 2e-2, "serve_elastic": 2e-2,
                   "sweep_paper": 5e-2}
OUTPUT_TOLERANCE = {"sweep_mlp": 0.1, "serve_elastic": 0.1,
                    "sweep_paper": 0.25}

SIZES = {
    "sweep_mlp": dict(
        laps=26, jobs=16, steps=256, epoch_steps=16, batch=32, features=32,
        hidden=64, classes=10, width=8, serial_jobs=2),
    "sweep_paper": dict(
        laps=20, pointnet_jobs=4, pointnet_steps=4, points=128,
        pointnet_classes=8, lm_jobs=4, lm_steps=8, d_model=64, layers=2,
        heads=2, length=32, vocab=256, batch=8, width=4, serial_jobs=1),
    "serve_elastic": dict(
        laps=24, jobs=36, bursts=3, cycle_jobs=8, steps=64, epoch_steps=16,
        stop_epochs=2, stop_every=4, checkpoint_every=4, batch=32, features=32,
        hidden=(48, 64),
        classes=10, width=8, tenants=("alpha", "beta", "gamma", "delta"),
        deadline_s=120.0, serial_jobs=6, restart_jobs=16, crash_step=24),
    "sim_fleet": dict(
        laps=28, lap_jobs=3_000, jobs=18_000, duration_s=3600.0,
        devices=256, width=32,
        max_pending=700, cycle_quantum_s=60.0, mean_burst=24.0,
        max_burst=64, prio_deadline_s=1800.0, free_rate=0.2, free_burst=16),
}

#: ``--smoke`` sizes: every code path of the full run in a few seconds
SMOKE_SIZES = {
    "sweep_mlp": dict(SIZES["sweep_mlp"], jobs=8, steps=32, serial_jobs=1),
    "sweep_paper": dict(SIZES["sweep_paper"], pointnet_steps=2, lm_steps=2),
    "serve_elastic": dict(SIZES["serve_elastic"], jobs=24, cycle_jobs=6,
                          steps=48, serial_jobs=2, crash_step=20),
    "sim_fleet": dict(SIZES["sim_fleet"], lap_jobs=300, jobs=600,
                      duration_s=600.0, devices=16, max_pending=60),
}


def load_benchmark() -> dict:
    """``BENCHMARK.json`` as a dict (workloads, metrics, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(benchmark: dict) -> dict:
    """Unit of every metric the benchmark declares, by name."""
    return {m["name"]: m["unit"]
            for m in benchmark["end_to_end"] + benchmark["per_layer"]}
