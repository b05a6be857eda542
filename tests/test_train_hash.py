"""``tools/train_hash.py`` as documented (no arguments): one SHA-256 digest
per model, width and split mode, and — since splitting a kernel across two
CPUs never changes a result — the same digest inline and split."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = str(ROOT / "tools" / "train_hash.py")
MODELS = ("pointnet_cls", "pointnet_seg", "lm", "bert")


def test_train_hash_prints_one_digest_per_model_width_and_mode():
    done = subprocess.run([sys.executable, TOOL], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = re.findall(r"^(\w+)\s+(serial|w4)\s+(inline|split)\s+"
                      r"([0-9a-f]{64})$", done.stdout, re.M)
    assert [row[:3] for row in rows] == [
        (model, width, mode) for model in MODELS
        for width in ("serial", "w4") for mode in ("inline", "split")]
    digests = {row[:3]: row[3] for row in rows}
    for model in MODELS:
        for width in ("serial", "w4"):
            assert digests[model, width, "inline"] == \
                digests[model, width, "split"]
        assert digests[model, "serial", "inline"] != \
            digests[model, "w4", "inline"]
