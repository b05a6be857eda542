"""``tools/step_probe.py`` at one step: it runs and reports both models,
the one-thread and concurrent-serial comparators, the CPU share, the arena
and the process peak RSS, and its kernel table covers every split
kernel."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE = str(ROOT / "tools" / "step_probe.py")


def probe(*args):
    done = subprocess.run([sys.executable, PROBE, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_step_probe_reports_one_step_of_each_model():
    out = probe("--steps", "1")
    for family in ("pointnet", "lm"):
        assert f"{family}: a fused width-4 step vs 4 serial steps" in out
    held = re.findall(r"arena held: fused ([\d.]+) MB, serial [\d.]+ MB; "
                      r"process peak RSS ([\d.]+) MB", out)
    assert len(held) == 2 and float(held[0][0]) > 0
    assert all(float(arena) < float(peak) for arena, peak in held)
    ratios = re.findall(r"fused split / one thread: ([\d.]+)x", out)
    assert len(ratios) == 2 and all(float(r) > 0 for r in ratios)
    pairs = re.findall(r"concurrent serial, 2 processes: ([\d.]+) ms per 4 "
                       r"model-steps, cpu/wall ([\d.]+)", out)
    assert len(pairs) == 2 and all(float(ms) > 0 for ms, _ in pairs)
    shares = re.findall(r"fused [\d.]+ ms, \d+ faults, [\d.]+ sys ms, "
                        r"cpu/wall ([\d.]+); one thread [\d.]+ ms, "
                        r"cpu/wall ([\d.]+)", out)
    assert len(shares) == 2 and all(float(s) > 0 for s in shares[0])


def test_kernel_table_times_every_split_kernel_at_every_size():
    rows = re.findall(r"^(\w+ (?:forward|backward))\s+([\d.]+)\s+[\d.]+\s+"
                      r"[\d.]+\s+([\d.]+)$", probe("--kernels"), re.M)
    kernels = {name for name, _, _ in rows}
    assert kernels == {f"{k} {d}" for k in ("conv1d", "batch_norm",
                                           "conv1d_bn", "relu", "max",
                                           "linear")
                       for d in ("forward", "backward")}
    assert len({mib for _, mib, _ in rows}) == 5
    assert all(float(ratio) > 0 for _, _, ratio in rows)
