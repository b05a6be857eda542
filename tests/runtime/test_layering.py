"""The runtime sits below HFHT: importing it loads no ``repro.hfht``
module, and the two packages import in either order.  It loads no
``repro.cluster`` module either: the trace classifier and generator are
inputs a caller may feed it, while fusibility is structural and never
reads a job's name.  Below the runtime, ``repro.hfta`` loads no runtime
module and the serial reference ``repro.nn`` neither of them.  scipy, the
LP placer's optional solver, loads at the first LP use, never with a
package."""

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


def test_runtime_loads_no_cluster_module():
    out = run("import sys, repro.runtime\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.startswith('repro.cluster')))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("package,above", [
    ("repro.nn", ("repro.hfta", "repro.runtime")),
    ("repro.hfta", ("repro.runtime",)),
])
def test_a_lower_layer_loads_no_higher_one(package, above):
    out = run(f"import sys, {package}\n"
              "print(sorted(m for m in sys.modules\n"
              f"             if m.startswith({above!r})))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("order", [("hfht", "runtime"),
                                   ("runtime", "hfht")])
def test_both_import_orders_succeed(order):
    run("".join(f"import repro.{name}\n" for name in order)
        + "import repro.hfht\n"
          "assert repro.hfht.JobScheduler(\n"
          "    repro.hwsim.get_workload('pointnet_cls'), repro.hwsim.V100,\n"
          "    repro.hfht.pointnet_search_space(), mode='hfta').fleet\n")


#: the documented packages ``make docs-check`` imports
DOCUMENTED = ("repro, repro.hfta, repro.hfht, repro.hwsim, repro.cluster, "
              "repro.runtime, repro.models, repro.data")

#: one sim job of a real workload on a fresh fleet, run for one cycle
ONE_SIM_CYCLE = (
    "from repro.nn import Module\n"
    "job = repro.runtime.TrainingJob(\n"
    "    name='j', build_model=lambda B=None, g=None: Module(),\n"
    "    data=lambda step: (None, None), steps=4, epoch_steps=2,\n"
    "    workload='pointnet_cls')\n"
    "fleet = repro.runtime.FleetScheduler(\n"
    "    devices=(repro.hwsim.V100,), execution='sim', placement={!r})\n"
    "fleet.submit(job)\n"
    "fleet.run_cycle()\n")

SCIPY_LOADED = "any(m.startswith('scipy') for m in sys.modules)"


def test_no_package_and_no_greedy_fleet_loads_scipy():
    out = run("import sys, repro.runtime\n"
              f"print({SCIPY_LOADED})\n"
              f"import {DOCUMENTED}\n"
              f"print({SCIPY_LOADED})\n"
              + ONE_SIM_CYCLE.format("greedy") +
              "space = repro.hfht.pointnet_search_space()\n"
              "repro.hfht.JobScheduler(\n"
              "    repro.hwsim.get_workload('pointnet_cls'),\n"
              "    repro.hwsim.V100, space, mode='hfta').run_batch(\n"
              "    repro.hfht.RandomSearch(space, 2, 1).propose())\n"
              f"print({SCIPY_LOADED})\n")
    assert out.split() == ["False", "False", "False"]


def test_an_lp_fleet_loads_scipy_when_built():
    out = run(f"import sys, {DOCUMENTED}\n"
              + ONE_SIM_CYCLE.format("lp") +
              "loaded = 'scipy.optimize' in sys.modules\n"
              "from repro.runtime import lp_available\n"
              "solution = fleet.placer.last_solution\n"
              "print(loaded == lp_available(), fleet.metrics.lp_solves,\n"
              "      (solution.relaxed_objective is not None)\n"
              "      == lp_available())\n")
    assert out.split() == ["True", "1", "True"]
