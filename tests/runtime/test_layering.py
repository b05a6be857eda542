"""The runtime sits below HFHT: importing it loads no ``repro.hfht``
module, and the two packages import in either order."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")


def run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_runtime_loads_no_hfht_module():
    out = run("import sys, repro.runtime\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.startswith('repro.hfht')))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("order", [("hfht", "runtime"),
                                   ("runtime", "hfht")])
def test_both_import_orders_succeed(order):
    run("".join(f"import repro.{name}\n" for name in order)
        + "import repro.hfht\n"
          "assert repro.hfht.JobScheduler(\n"
          "    repro.hwsim.get_workload('pointnet_cls'), repro.hwsim.V100,\n"
          "    repro.hfht.pointnet_search_space(), mode='hfta').fleet\n")
