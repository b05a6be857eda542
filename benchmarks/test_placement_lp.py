"""Placement benchmark: greedy vs. LP over a heterogeneous sim fleet.

The LP placement policy (:mod:`repro.runtime.placement_lp`) solves each
scheduling cycle globally — every pending cohort against every device at
once — where the greedy baseline ranks devices one cohort at a time.
This benchmark replays one 200-job bursty three-tenant trace with mixed
step counts over a 16-device heterogeneous fleet (four each of V100,
RTX6000, A100, TPUv3) through the virtual-time backend, once per policy,
over the *identical* arrival sequence, and pins what differs:

* **busiest-device busy seconds** — ``metrics.simulated_makespan``: the
  summed virtual seconds of the arrays the most-loaded device ran.
  Greedy stacks whole bursts onto the globally fastest devices; the LP's
  makespan variable (in practice its greedy rounding) spreads them:
  5.09 s -> 4.13 s here.  That is 5 busy seconds of a 1 617-second
  trace — every device is under 1 % utilised — so **no job finishes earlier**: the
  fleet's finish time is the same virtual second under both policies and
  job latency p50/p90 move by 0.1 % (``docs/placement.md``, "What the
  placement ablation measured", has the table over 11 trace seeds);
* **SLO misses** — the ``prio`` tenant submits every job with a
  deadline; neither policy may miss one;
* **solver activity** — the solve count (the solver's wall milliseconds
  are machine-dependent and only printed).

Every pinned number is virtual-time arithmetic, bit-reproducible across
machines and the same with or without scipy on this trace (the relaxation
wins one solve in ten; the greedy *rounding* under the LP objective
carries the rest).
"""

import pytest

from repro import nn
from repro.hfta.ops.factory import OpsLibrary
from repro.cluster import ServingTraceConfig, TenantLoad, \
    generate_serving_trace
from repro.runtime import ServingGateway, TenantSpec, TraceReplayer, \
    TrainingJob, synthetic_fleet
from .conftest import print_table

N_JOBS = 200                     # the ISSUE's reference trace ...
N_DEVICES = 16                   # ... over a 16-device heterogeneous fleet
MAX_WIDTH = 8
TRACE_SECONDS = 1800.0
CYCLE_QUANTUM_S = 120.0
FEATURES, CLASSES = 4, 2


class SimMLP(nn.Module):
    """Minimal fusible architecture: the sim never runs its tensors."""

    def __init__(self, hidden=2, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(FEATURES, hidden, generator=generator)
        self.fc2 = lib.Linear(hidden, CLASSES, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


def build_model(num_models=None, generator=None):
    return SimMLP(2, num_models, generator)


def no_data(step):
    """Sim executors never read the stream; loss comes from the model."""
    return (None, None)


def make_trace():
    """Bursty three-tenant trace with heterogeneous step counts — wide
    fusible bursts are exactly where whole-cohort greedy stacking loses
    to the LP's global spread."""
    return generate_serving_trace(ServingTraceConfig(
        num_jobs=N_JOBS, duration_s=TRACE_SECONDS, seed=7,
        tenants=(TenantLoad("batch", share=5.0),
                 TenantLoad("interactive", share=3.0),
                 TenantLoad("prio", share=2.0, priority=2,
                            deadline_s=3600.0, deadline_rate=1.0)),
        mean_burst_size=16.0, max_burst_size=48,
        steps_choices=(4, 8, 16), epoch_steps_choices=(2,)))


def job_factory(event):
    return TrainingJob(
        name=event.name, build_model=build_model, data=no_data,
        steps=event.steps, epoch_steps=event.epoch_steps, seed=event.seed,
        tenant=event.tenant, user=event.user, priority=event.priority,
        workload=event.workload)


def run_policy(placement, trace):
    """One full trace replay under ``placement``; returns the summary."""
    gateway = ServingGateway(
        tenants=(TenantSpec("batch", weight=1.0),
                 TenantSpec("interactive", weight=2.0),
                 TenantSpec("prio", weight=4.0, priority=2)),
        max_pending=N_JOBS + 1,
        devices=synthetic_fleet(N_DEVICES), max_width=MAX_WIDTH,
        execution="sim", placement=placement)
    replayer = TraceReplayer(gateway, trace, job_factory,
                             cycle_quantum_s=CYCLE_QUANTUM_S)
    results = replayer.run()
    metrics = gateway.metrics
    assert len(results) == N_JOBS, placement
    assert not replayer.rejected, placement
    assert metrics.jobs_completed == N_JOBS, placement
    assert metrics.jobs_failed == 0, placement
    tenants = metrics.tenant_summary()
    misses = sum(t["slo_misses"] for t in tenants.values())
    deadlined = tenants["prio"]["submitted"]
    placement_summary = gateway.placement_report()
    return {
        "busiest_device_busy_s": metrics.simulated_makespan,
        "fleet_finish_s": gateway.fleet.virtual_makespan(),
        "slo_miss_rate": misses / deadlined if deadlined else 0.0,
        "solver_ms": placement_summary["lp_solver_seconds"] * 1e3,
        "solves": placement_summary["lp_solves"],
        "fallback_solves": placement_summary["lp_fallback_solves"],
    }


def test_lp_placement_spreads_the_busiest_device():
    trace = make_trace()
    assert len(trace) == N_JOBS
    assert all(ev.deadline_s for ev in trace if ev.tenant == "prio")

    greedy = run_policy("greedy", trace)
    lp = run_policy("lp", trace)

    print_table(
        "placement: greedy vs LP, 200 jobs / 16 heterogeneous devices",
        [(key, greedy[key], lp[key]) for key in greedy],
        header=("metric", "greedy", "lp"))

    assert greedy["busiest_device_busy_s"] == pytest.approx(5.094126,
                                                            abs=1e-6)
    assert lp["busiest_device_busy_s"] == pytest.approx(4.127178, abs=1e-6)
    # ...of a trace this long: nothing finishes earlier for it
    assert lp["fleet_finish_s"] == greedy["fleet_finish_s"] \
        == pytest.approx(1616.706, abs=1e-3)
    assert greedy["slo_miss_rate"] == lp["slo_miss_rate"] == 0.0

    assert (greedy["solves"], lp["solves"]) == (0, 10)
