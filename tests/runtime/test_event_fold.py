"""The runtime's counters are a fold over its lifecycle events.

Every transition is emitted once as a :class:`repro.runtime.Event`, and
:meth:`RuntimeMetrics.record_event` is the only writer of the counters.
So with the event log on, a fresh :class:`RuntimeMetrics` fed every
logged event must equal the live object exactly — ``as_dict()``, the
tenant ledger and the ``ArrayRecord`` list — on a real serving run, a
trace-replayed simulation, and a chaos crash with its recovery.  The
last test pins one fold rule the gateway feeds it: displacing a job the
tenant ledger never counted admitted takes no admission back.
"""

from repro.cluster import ServingTraceConfig, TenantLoad, \
    generate_serving_trace
from repro.hwsim import V100
from repro.runtime import (CheckpointStore, JobState, RecoveryManager,
                           RuntimeMetrics, ServingGateway, TenantSpec,
                           TraceReplayer, synthetic_fleet)

from . import test_wal_golden as scenario
from .conftest import make_sim_job


def logged_metrics():
    metrics = RuntimeMetrics()
    metrics.enable_event_log()
    return metrics


def assert_the_log_replays(metrics):
    replayed = RuntimeMetrics()
    for event in metrics.events:
        replayed.record_event(event)
    assert replayed.as_dict() == metrics.as_dict()
    assert replayed.tenant_summary() == metrics.tenant_summary()
    assert replayed.records == metrics.records


def test_the_event_log_is_off_by_default():
    metrics = RuntimeMetrics()
    assert metrics.events is None and metrics.decisions() == []


def test_a_real_serving_run_replays(tmp_path):
    """Gateway, store and WAL: shed, cancel, failure, preemption,
    eviction, freed-width admission and early stops on two devices."""
    metrics = logged_metrics()
    store = CheckpointStore(tmp_path)
    recovery = RecoveryManager(store)
    for phase in (scenario.shed_cancel_fail, scenario.serve,
                  scenario.two_devices):
        phase(store, recovery, metrics)
    assert min(metrics.jobs_shed, metrics.jobs_failed,
               metrics.jobs_preempted, metrics.jobs_evicted,
               metrics.jobs_admitted, metrics.checkpoints_written) >= 1
    assert_the_log_replays(metrics)


def test_a_trace_replayed_simulation_replays():
    trace = generate_serving_trace(ServingTraceConfig(
        num_jobs=60, duration_s=600.0, seed=3,
        tenants=(TenantLoad("batch", share=3.0),
                 TenantLoad("prio", share=1.0, priority=2,
                            deadline_s=900.0, deadline_rate=1.0)),
        mean_burst_size=8.0, max_burst_size=16,
        steps_choices=(4, 8), epoch_steps_choices=(2,)))
    metrics = logged_metrics()
    gateway = ServingGateway(
        tenants=(TenantSpec("batch"), TenantSpec("prio", weight=4.0,
                                                 priority=2)),
        max_pending=12, devices=synthetic_fleet(3), max_width=4,
        execution="sim", metrics=metrics)

    def job_factory(event):
        return make_sim_job(event.seed, steps=event.steps,
                            epoch_steps=event.epoch_steps, name=event.name,
                            tenant=event.tenant, priority=event.priority,
                            workload=event.workload)

    TraceReplayer(gateway, trace, job_factory, cycle_quantum_s=30.0).run()
    assert metrics.jobs_completed > 0 and metrics.jobs_shed > 0
    summary = metrics.tenant_summary()["prio"]
    assert summary["slo_hits"] + summary["slo_misses"] > 0
    assert_the_log_replays(metrics)


def test_a_chaos_crash_and_its_recovery_replay(tmp_path):
    metrics = logged_metrics()
    store = CheckpointStore(tmp_path)
    scenario.crash_and_rebuild(store, RecoveryManager(store), metrics)
    assert metrics.workers_crashed == 1 and metrics.jobs_recovered > 0
    assert_the_log_replays(metrics)


def test_displacing_a_replayed_job_takes_back_no_admission(tmp_path):
    """A replayed admission never entered this session's tenant ledger
    as ``admitted``, so shedding it must not lower the count."""
    store = CheckpointStore(tmp_path)
    recovery = RecoveryManager(store)
    first = ServingGateway(devices=(V100,), store=store, recovery=recovery)
    first.submit(scenario.make_job(0), tenant="a")
    del first                                 # dies before any training

    tenants = [TenantSpec("a"), TenantSpec("hi", priority=2)]
    gateway = ServingGateway(tenants=tenants, devices=(V100,),
                             max_pending=1, store=store, recovery=recovery)
    (replayed,) = gateway.replay_unsettled({"job0": scenario.make_job(0)})
    assert gateway.submit(scenario.make_job(1), tenant="hi").admitted
    assert gateway.queue.state(replayed.job_id) == JobState.SHED
    summary = gateway.metrics.tenant_summary()["a"]
    assert (summary["submitted"], summary["admitted"], summary["shed"]) == \
        (0, 0, 1)
