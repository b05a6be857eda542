"""``tools/step_probe.py`` at one step: it runs and reports the two
``sweep_paper`` models and the ``sweep_mlp`` MLP, sharded and in one
process, two MLP arrays one per CPU, the concurrent-serial comparator, the
CPU share, each shard worker's memory (on two CPUs, where the large arrays
are sharded), the arena and the process peak RSS; its phase table covers
every phase of a fused and a width-1 step of each model, and its arena
table each model's buffers, largest first, then what lives outside the
arena (held at backward start, the step's peak, the top allocation sites);
its scatter table times both forms of the embedding gradient's scatter on
each batch of ids.  And its phase loop is the engine's step:
``run_phases`` leaves an array's parameters and optimizer state as
``_Shard.step`` does."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PROBE = str(ROOT / "tools" / "step_probe.py")


def probe(*args):
    done = subprocess.run([sys.executable, PROBE, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


#: model -> its benchmark width
FAMILIES = {"pointnet": 4, "lm": 4, "mlp": 8}


def test_step_probe_reports_one_step_of_each_model():
    out = probe("--steps", "1")
    for family, width in FAMILIES.items():
        assert (f"{family}: a fused width-{width} step vs {width} serial "
                f"steps") in out
    held = re.findall(r"arena held: fused ([\d.]+) MB here, serial [\d.]+ "
                      r"MB; process peak RSS ([\d.]+) MB", out)
    assert len(held) == 3 and float(held[0][0]) > 0
    assert all(float(arena) < float(peak) for arena, peak in held)
    ratios = re.findall(r"fused sharded / one process: ([\d.]+)x", out)
    assert len(ratios) == 3 and all(float(r) > 0 for r in ratios)
    spread = re.findall(r"two width-8 arrays, one per CPU: ([\d.]+) ms per "
                        r"array step, cpu/wall ([\d.]+); / one process: "
                        r"([\d.]+)x", out)
    assert len(spread) == 1 and all(float(v) > 0 for v in spread[0])
    workers = re.findall(r"shard worker \d+: VmHWM ([\d.]+) MB, Pss "
                         r"([\d.]+) MB", out)
    if len(os.sched_getaffinity(0)) > 1:     # pointnet's and lm's worker
        assert len(workers) >= 2
        assert all(float(hwm) > 0 and float(pss) > 0 for hwm, pss in workers)
    else:
        assert workers == []
    pairs = re.findall(r"concurrent serial, 2 processes: ([\d.]+) ms per "
                       r"(\d) model-steps, cpu/wall ([\d.]+)", out)
    assert [int(width) for _, width, _ in pairs] == list(FAMILIES.values())
    assert all(float(ms) > 0 for ms, _, _ in pairs)
    shares = re.findall(r"sharded [\d.]+ ms, \d+ faults, [\d.]+ sys ms, "
                        r"cpu/wall ([\d.]+); one process [\d.]+ ms, "
                        r"cpu/wall ([\d.]+)", out)
    assert len(shares) == 3 and all(float(s) > 0 for s in shares[0])


def test_phase_table_times_every_phase_of_each_model():
    out = probe("--phases", "--steps", "2")
    tables = re.findall(r"^(\w+): median us per step phase, fused width-(\d) "
                        r"and width 1\n.*\n((?:.+\n?){5})", out, re.M)
    assert {family: int(width) for family, width, _ in tables} == FAMILIES
    for _, _, rows in tables:
        rows = re.findall(r"^(.+?)\s+([\d.]+)\s+([\d.]+)$", rows, re.M)
        assert [name for name, _, _ in rows] == [
            "inputs + forward", "loss", "backward", "optimizer", "sum"]
        assert all(float(f) > 0 and float(s) > 0 for _, f, s in rows)


def test_arena_table_lists_each_models_buffers_largest_first():
    out = probe("--arena", "--steps", "2")
    tables = re.findall(r"^(\w+): the arena of a fused width-(\d) array, "
                        r"([\d.]+) MB\n.*\n((?:\[.+\n?)*)", out, re.M)
    assert {family: int(width) for family, width, _, _ in tables} == FAMILIES
    for family, _, total, rows in tables:
        rows = re.findall(r"^\[[\d, ]+\]\s+(\w+)\s+(\d+)\s+([\d.]+)$", rows,
                          re.M)
        sizes = [float(mb) for _, _, mb in rows]
        assert sizes == sorted(sizes, reverse=True)
        assert all(int(count) > 0 for _, count, _ in rows)
        assert sum(sizes) == pytest.approx(float(total), abs=0.01 * len(rows)
                                           + 0.01)
        if family != "mlp":          # its activations are all below 128 KiB
            assert rows and float(total) > 0
    outside = re.findall(r"^(\w+): outside the arena over one warm step: "
                         r"([\d.]+) MB held at backward start, ([\d.]+) MB "
                         r"peak\n((?:  .+\n?)*)", out, re.M)
    assert [family for family, *_ in outside] == list(FAMILIES)
    for _, held, peak, sites in outside:
        assert 0 < float(held) <= float(peak)
        sites = re.findall(r"^  (\S+:\d+)\s+([\d.]+) MB$", sites, re.M)
        assert 0 < len(sites) <= 5
        held_by = [float(mb) for _, mb in sites]
        assert held_by == sorted(held_by, reverse=True)


def test_scatter_table_times_both_forms_on_each_batch_of_ids():
    rows = re.findall(r"^(\w+ [\w ]+ B=\d)\s+\d+\s+\d+\s+(\d+)\s+(\d+)\s+"
                      r"(\d+)\s+(\d+)\s+(rounds|add\.at)\s+([\d.]+)$",
                      probe("--scatter"), re.M)
    assert len(rows) == 12
    assert {picked for *_, picked, _ in rows} == {"rounds", "add.at"}
    for _, most, budget, at_us, rounds_us, picked, ratio in rows:
        assert (picked == "rounds") == (int(most) <= int(budget))
        assert int(at_us) > 0 and int(rounds_us) > 0 and float(ratio) > 0


def training_state(executor):
    """The bytes of a one-shard array's parameters, buffers and optimizer
    state."""
    [physics] = executor.physics.parts
    state = [p.data for p in physics.fused.parameters()]
    state += [buf for _, buf in physics.fused.named_buffers()
              if buf is not None]
    for p in physics.fused.parameters():
        slot_state = physics.optimizer.state.get(id(p), {})
        state += [np.asarray(slot_state[key]) for key in sorted(slot_state)]
    return [array.tobytes() for array in state]


@pytest.mark.parametrize("family", ["mlp", "lm"])
def test_run_phases_trains_as_the_engine_step_does(family, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))       # bench_e2e, for the jobs
    spec = importlib.util.spec_from_file_location("step_probe", PROBE)
    step_probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(step_probe)
    jobs = step_probe.family_jobs(family)
    with step_probe.one_process():
        probed = step_probe.executor_for(jobs, 3)
        stepped = step_probe.executor_for(jobs, 3)
    for executor in (probed, stepped):
        executor.step_epoch()            # later steps read later batches
    before = training_state(probed)
    assert before == training_state(stepped)
    step_probe.run_phases(probed, 2, lambda n, k: None)
    epoch = stepped.physics.start(stepped.slots, 2)
    epoch.here()
    epoch.finish()
    after = training_state(probed)
    assert after != before
    assert after == training_state(stepped)
