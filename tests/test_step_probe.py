"""``tools/step_probe.py`` at one step: it runs and reports both models."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_step_probe_reports_one_step_of_each_model():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_probe.py"), "--steps",
         "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for family in ("pointnet", "lm"):
        assert f"{family}: a fused width-4 step vs 4 serial steps" \
            in done.stdout
    held = re.findall(r"arena held: fused ([\d.]+) MB", done.stdout)
    assert len(held) == 2 and float(held[0]) > 0
