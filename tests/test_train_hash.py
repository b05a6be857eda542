"""``tools/train_hash.py`` as documented (no arguments): one SHA-256 digest
per model, width and mode, and — since a fused array cut into shards, the
upper ones trained in a shard worker, trains the bytes the whole array
trains — the same digest inline and sharded at width 4; and, since a
cycle's small arrays spread one per CPU train the bytes they train one
after another in one process, the same ``mlp 2xw4`` digest both ways."""

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
    rows = re.findall(r"^(\w+)\s+(serial|w4)\s+(inline|sharded)\s+"
                      r"([0-9a-f]{64})$", done.stdout, re.M)
    assert [row[:3] for row in rows] == [
        (model, width, mode) for model in MODELS
        for width, mode in (("serial", "inline"), ("w4", "inline"),
                            ("w4", "sharded"))]
    digests = {row[:3]: row[3] for row in rows}
    for model in MODELS:
        assert digests[model, "w4", "inline"] == \
            digests[model, "w4", "sharded"]
        assert digests[model, "serial", "inline"] != \
            digests[model, "w4", "inline"]
    cycles = re.findall(r"^mlp\s+2xw4\s+(1-proc|spread)\s+([0-9a-f]{64})$",
                        done.stdout, re.M)
    assert [mode for mode, _ in cycles] == ["1-proc", "spread"]
    assert cycles[0][1] == cycles[1][1]
