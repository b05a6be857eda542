"""Scale benchmark: 100k simulated jobs across a 1k-device virtual fleet.

The simulation backend (:mod:`repro.runtime.sim`) replaces every tensor
op and wall-clock read with :mod:`repro.hwsim` cost-model projections on
a :class:`~repro.runtime.sim.VirtualClock`, so one pytest process can
push the *entire* scheduling stack — gateway admission, weighted-fair +
priority dequeue, cost-model placement over a 1024-device fleet, elastic
eviction/admission/preemption — through a diurnal, bursty multi-tenant
trace of 100 000 jobs (about ten seconds of wall-clock time).

Everything asserted is virtual-time arithmetic or a count, bit-reproducible
across machines, so the test pins the values themselves:

* **scheduler decisions** — every dequeue/place/admit/retire/preempt the
  fleet makes — and **arrays launched**: a control-plane change that is
  meant to move cost only must not move either;
* **makespan vs. serial oracle** — the cost model's serial execution
  time for the whole trace divided by the busiest device's simulated
  busy time (``metrics.simulated_makespan``), and the summed busy time
  of every device;
* **job latency** — p50 and p90 of each job's virtual finish time
  (``JobResult.finished_at``) minus its arrival;
* **virtual finish time** — ``fleet.virtual_makespan()``.  The replayer
  wakes in ``CYCLE_QUANTUM_S`` quanta once the fleet drains, and the
  fleet trains its final backlog in under a second, so this number is
  the phase of the last wake-up rather than a measure of throughput: a
  placement change that moves one late arrival's cycle moves it by up
  to one quantum (7 290.78 s before placement ties spread over
  replicas, 7 453.44 s after);
* **SLO misses** — the ``prio`` tenant submits every job with a
  deadline; the weighted-fair scheduler must never miss one.

Wall-clock throughput of the same control plane is the ``sim_fleet``
workload of ``python -m bench_e2e``.
"""

import statistics

import pytest

from repro import nn
from repro.hfta.ops.factory import OpsLibrary
from repro.cluster import ServingTraceConfig, TenantLoad, \
    generate_serving_trace
from repro.runtime import ServingGateway, TenantSpec, TraceReplayer, \
    TrainingJob, synthetic_fleet
from .conftest import print_table

N_JOBS = 100_000                 # >= 100k simulated jobs ...
N_DEVICES = 1024                 # ... over >= 1k simulated devices
MAX_WIDTH = 32
TRACE_SECONDS = 7200.0           # two simulated hours of arrivals
CYCLE_QUANTUM_S = 300.0          # virtual-time step while draining
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
    """Diurnal + bursty three-tenant arrival trace, fully deterministic."""
    return generate_serving_trace(ServingTraceConfig(
        num_jobs=N_JOBS, duration_s=TRACE_SECONDS, seed=0,
        tenants=(TenantLoad("batch", share=6.0),
                 TenantLoad("interactive", share=3.0),
                 TenantLoad("prio", share=1.0, priority=2,
                            deadline_s=3600.0, deadline_rate=1.0)),
        mean_burst_size=24.0, max_burst_size=64,
        steps_choices=(4, 8), epoch_steps_choices=(2,)))


def make_gateway():
    return ServingGateway(
        tenants=(TenantSpec("batch", weight=1.0),
                 TenantSpec("interactive", weight=2.0),
                 TenantSpec("prio", weight=4.0, priority=2)),
        max_pending=N_JOBS + 1,
        devices=synthetic_fleet(N_DEVICES), max_width=MAX_WIDTH,
        execution="sim", store=None, checkpoint_every=0)


def job_factory(event):
    # event.deadline_s is *relative to arrival*; the TraceReplayer hands
    # it to gateway.submit, which stamps the absolute deadline at
    # admission time — so the job itself is built without one.
    return TrainingJob(
        name=event.name, build_model=build_model, data=no_data,
        steps=event.steps, epoch_steps=event.epoch_steps, seed=event.seed,
        tenant=event.tenant, user=event.user, priority=event.priority,
        workload=event.workload)


def test_scale_100k_jobs_1k_devices():
    trace = make_trace()
    assert len(trace) == N_JOBS

    gateway = make_gateway()
    replayer = TraceReplayer(gateway, trace, job_factory,
                             cycle_quantum_s=CYCLE_QUANTUM_S)

    results = replayer.run()

    metrics = gateway.metrics
    # -- completeness: no job lost, none shed (the queue bound admits the
    #    whole trace), none failed
    assert len(results) == N_JOBS
    assert not replayer.rejected
    assert metrics.jobs_completed == N_JOBS
    assert metrics.jobs_failed == 0

    # -- the priority tenant's SLO holds across the whole trace
    rows, header = gateway.report()
    by_tenant = {row[0]: dict(zip(header, row)) for row in rows}
    prio = by_tenant["prio"]
    assert prio["slo_misses"] == 0
    assert prio["slo_hits"] == prio["submitted"]
    assert sum(row[header.index("slo_misses")] for row in rows) == 0

    # -- makespan vs. the serial oracle (cost model, one job at a time)
    oracle_s = sum(
        gateway.placer.projected_seconds(ev.workload, 1, ev.steps)
        for ev in trace)
    busy_makespan_s = metrics.simulated_makespan
    device_seconds = sum(r.sim_seconds for r in metrics.records)
    virtual_makespan_s = gateway.fleet.virtual_makespan()
    speedup = oracle_s / busy_makespan_s
    assert speedup == pytest.approx(1192.843, abs=1e-3)
    assert device_seconds == pytest.approx(2963.939, abs=1e-3)
    assert virtual_makespan_s == pytest.approx(7453.435, abs=1e-3)

    # -- job latency on the virtual clock: finish minus arrival
    latencies = [results[ticket.job_id].finished_at - event.time_s
                 for event, ticket in zip(replayer.events, replayer.tickets)]
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    assert p50 == pytest.approx(142.391, abs=1e-3)
    assert p90 == pytest.approx(269.719, abs=1e-3)

    assert metrics.scheduler_decisions == 205_476
    assert metrics.arrays_launched == 5_476

    print_table(
        "scale: 100k jobs / 1024 simulated devices",
        [("scheduler_decisions", metrics.scheduler_decisions),
         ("virtual_makespan_s", virtual_makespan_s),
         ("busy_makespan_s", busy_makespan_s),
         ("device_seconds", device_seconds),
         ("job_latency_p50_s", p50),
         ("job_latency_p90_s", p90),
         ("serial_oracle_s", oracle_s),
         ("oracle_speedup", speedup),
         ("arrays", metrics.arrays_launched),
         ("mean_array_width", metrics.models_per_array)],
        header=("metric", "value"))
