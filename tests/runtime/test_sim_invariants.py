"""Property-based invariants for the virtual-time simulation backend.

Each test replays a *randomized* arrival trace (randomized fleet size,
tenant mix, quotas, queue bound and burst shape, all derived from a
per-test ``random.Random`` seed) through a sim-mode serving gateway and
asserts properties that must hold for **every** trace, not just the
hand-picked ones:

* **conservation** — no admitted job is lost and none is served twice:
  every admitted job reaches exactly one terminal state, jobs that
  produced a result are exactly the completed/failed ones, and the
  metrics counters agree with the queue's terminal states;
* **tenant quotas** — a tenant's in-flight step total never exceeds its
  ``quota_steps`` cap *between any two scheduling cycles*, not just at
  admission time;
* **slot accounting** — every launched array's occupied slot-steps stay
  within its executed slot-steps across evictions, freed-width
  admissions and preemptions, and the per-device busy time never
  exceeds the fleet's virtual makespan;
* **width** — every launched array is at most its width cap, and that
  cap is at most its device's;
* **placement is final** — under greedy placement a live array trains on
  the device it was placed on until it drains: every event naming a job
  carries the device the job was placed on (or boarded freed width on);
* **determinism** — replaying the identical trace yields the identical
  result sequence and tenant ledger (the property the real-vs-sim
  equivalence suite then extends across backends).
"""

import random
import sys
import threading
from collections import Counter
from queue import SimpleQueue

import pytest

from repro.cluster import ServingTraceConfig, TenantLoad, \
    generate_serving_trace
from repro.hwsim import RTX6000, V100, get_workload
from repro.runtime import JobState, RuntimeMetrics, ServingGateway, \
    TenantSpec, VirtualClock, synthetic_fleet

from .conftest import assert_ledger_matches_records, make_sim_job
from .test_sim_equivalence import run_backend

TERMINAL = (JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED,
            JobState.SHED)


def job_factory(event):
    return make_sim_job(
        event.seed, steps=event.steps, epoch_steps=event.epoch_steps,
        name=event.name, tenant=event.tenant, user=event.user,
        priority=event.priority, workload=event.workload)


def random_setup(seed):
    """A randomized (trace, gateway, specs) triple derived from ``seed``."""
    rng = random.Random(987_000 + seed)
    names = ("alpha", "beta", "gamma")[:rng.choice((2, 3))]
    loads, specs = [], []
    for i, name in enumerate(names):
        deadline_rate = rng.choice((0.0, 0.5, 1.0))
        loads.append(TenantLoad(
            name, share=rng.uniform(0.5, 4.0), priority=rng.choice((0, 1)),
            deadline_s=1800.0 if deadline_rate else None,
            deadline_rate=deadline_rate))
        specs.append(TenantSpec(
            name, weight=rng.choice((1.0, 2.0)),
            priority=loads[-1].priority,
            quota_steps=rng.choice((0, 48, 96))))
    num_jobs = rng.choice((50, 80))
    trace = generate_serving_trace(ServingTraceConfig(
        num_jobs=num_jobs, duration_s=1200.0, seed=seed,
        tenants=tuple(loads),
        mean_burst_size=rng.choice((4.0, 8.0)),
        max_burst_size=16,
        steps_choices=(4, 8), epoch_steps_choices=(2,)))
    gateway = ServingGateway(
        tenants=specs, max_pending=rng.choice((24, num_jobs + 1)),
        devices=synthetic_fleet(rng.choice((3, 5, 9))),
        max_width=rng.choice((4, 8)), execution="sim",
        store=None, checkpoint_every=0)
    return trace, gateway, {spec.name: spec for spec in specs}


def replay_checking_invariants(trace, gateway, specs,
                               cycle_quantum_s=30.0):
    """TraceReplayer's loop, with invariant checks between cycles."""
    clock = gateway.clock
    assert isinstance(clock, VirtualClock)
    events = sorted(trace, key=lambda e: e.time_s)
    admitted, served, index = [], [], 0
    while True:
        while index < len(events) and events[index].time_s <= clock.now():
            event = events[index]
            index += 1
            ticket = gateway.submit(job_factory(event), tenant=event.tenant,
                                    deadline_s=event.deadline_s)
            if ticket.admitted:
                admitted.append(ticket.job_id)
        if gateway.queue.pending_count:
            before = clock.now()
            served.extend(r.job_id for r in gateway.run_cycle())
            # the virtual clock is monotonic across cycles
            assert clock.now() >= before
            # quotas hold between cycles, not just at admission time
            for name, spec in specs.items():
                if spec.quota_steps:
                    assert gateway.in_flight_steps(name) <= spec.quota_steps
            continue
        if index < len(events):
            clock.advance_to(events[index].time_s + cycle_quantum_s)
            continue
        return admitted, served


def assert_jobs_stay_on_their_device(events):
    """Every event naming a job and a device names the device of the job's
    latest ``place`` — or ``admit``, for a job that boarded freed width
    of an array already running."""
    device_of = {}
    checked = 0
    for event in events:
        if event.kind == "place":
            device_of.update(dict.fromkeys(event.job_ids, event.device))
        elif event.kind == "admit":
            device_of.update(dict.fromkeys(event.data, event.device))
        if not event.device:
            continue
        for job_id in event.job_ids:
            assert device_of[job_id] == event.device, \
                f"job {job_id} placed on {device_of[job_id]}: {event}"
            checked += 1
    assert checked, "no event named a job and a device"


def assert_arrays_fit_their_devices(fleet):
    """Every launched array is at most its width cap, and the cap at most
    its device's for the default workload (the one every job here runs)."""
    workload = get_workload(fleet.placer.default_workload)
    assert fleet.metrics.records, "no array launched"
    for record in fleet.metrics.records:
        device = fleet.workers[record.device].device
        assert record.num_models <= record.width_cap \
            <= fleet.placer.width_cap(workload, device), record


def test_two_device_trace_keeps_every_job_where_it_was_placed():
    """The real-vs-sim two-device trace: early stops free width on both
    devices, and no array leaves the device it launched on."""
    fleet, _, _ = run_backend("sim", (V100, RTX6000))
    metrics = fleet.metrics
    assert metrics.jobs_evicted and metrics.jobs_admitted
    assert_jobs_stay_on_their_device(metrics.events)
    # a record counts the gang steps its array ran, not its furthest slot
    for record in metrics.records:
        assert record.steps <= record.slot_steps_total \
            <= record.steps * record.width_cap
    assert metrics.serial_steps_saved == \
        metrics.slot_steps_total - metrics.fused_steps


@pytest.mark.parametrize("seed", range(8))
def test_randomized_trace_invariants(seed):
    trace, gateway, specs = random_setup(seed)
    gateway.metrics.enable_event_log()
    admitted, served, = replay_checking_invariants(trace, gateway, specs)
    assert admitted, "randomized trace admitted nothing"
    assert_jobs_stay_on_their_device(gateway.metrics.events)

    # -- no job double-served
    assert len(served) == len(set(served))

    # -- every admitted job reached exactly one terminal state; the jobs
    #    that produced results are exactly the completed/failed ones
    #    (displaced ones read SHED and return no result)
    states = {job_id: gateway.queue.state(job_id) for job_id in admitted}
    assert all(state in TERMINAL for state in states.values())
    with_result = {job_id for job_id, state in states.items()
                   if state in (JobState.COMPLETED, JobState.FAILED)}
    assert set(served) == with_result

    # -- the metrics ledger agrees with the queue's terminal states
    metrics = gateway.metrics
    by_state = {state: sum(1 for s in states.values() if s == state)
                for state in TERMINAL}
    assert metrics.jobs_completed == by_state[JobState.COMPLETED]
    assert metrics.jobs_failed == by_state[JobState.FAILED]
    assert metrics.jobs_failed == 0       # sim physics cannot raise
    assert len(admitted) == sum(by_state.values())

    # -- slot accounting balances across evict/admit/merge transitions
    for record in metrics.records:
        assert 0 <= record.slot_steps_occupied <= record.slot_steps_total
        assert record.fused_width_efficiency <= 1.0
        assert record.sim_seconds >= 0.0
    assert_ledger_matches_records(metrics)
    assert_arrays_fit_their_devices(gateway.fleet)
    # busy time on the busiest device never exceeds the virtual makespan
    assert metrics.simulated_makespan <= \
        gateway.fleet.virtual_makespan() + 1e-9


@pytest.mark.parametrize("seed", (0, 3))
def test_identical_trace_replays_identically(seed):
    """Same seed, same trace, two fresh gateways: bit-identical outcome."""
    runs = []
    for _ in range(2):
        trace, gateway, specs = random_setup(seed)
        admitted, served = replay_checking_invariants(trace, gateway, specs)
        runs.append((admitted, served,
                     gateway.metrics.tenant_summary(),
                     gateway.metrics.scheduler_decisions,
                     gateway.fleet.virtual_makespan()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", range(5))
def test_submitters_and_a_canceller_race_the_cycle_thread(seed):
    """Other threads may submit and cancel while a cycle runs: four
    submitter threads and a canceller run against a sim gateway while
    another thread calls ``run_cycle``.  Ids stay unique, every job that
    holds a result is delivered exactly once, every job ends terminal, and
    the event log replays into the live counters.  Burst and queue bound
    exceed the load, so nothing is shed."""
    rng = random.Random(5_300 + seed)
    submitters, per_thread, lag = 4, 25, 12
    total = submitters * per_thread
    doomed = set(rng.sample(range(total), total // 3))
    jobs = [[make_sim_job(per_thread * t + i, steps=rng.choice((2, 4, 6)),
                          tenant=f"t{t}") for i in range(per_thread)]
            for t in range(submitters)]
    metrics = RuntimeMetrics()
    metrics.enable_event_log()
    gateway = ServingGateway(
        tenants=[TenantSpec(f"t{t}", burst=total)
                 for t in range(submitters)],
        max_pending=total, devices=synthetic_fleet(2), max_width=4,
        execution="sim", metrics=metrics)
    issued, delivered, errors = SimpleQueue(), [], []
    tickets = [[] for _ in range(submitters)]
    stop = threading.Event()

    def guarded(target):
        def run():
            try:
                target()
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)
        return threading.Thread(target=run, daemon=True)

    def submit(thread):
        for job in jobs[thread]:
            ticket = gateway.submit(job)
            tickets[thread].append(ticket)
            issued.put(ticket.job_id)

    def cancel():
        # ``lag`` submissions behind, so that some doomed jobs train first
        seen = []
        for job_id in iter(issued.get, None):
            seen.append(job_id)
            if len(seen) > lag and seen[-lag - 1] in doomed:
                gateway.fleet.cancel(seen[-lag - 1])
        for job_id in seen[-lag:]:
            if job_id in doomed:
                gateway.fleet.cancel(job_id)

    def cycle():
        while not stop.is_set() or gateway.queue.pending_count:
            delivered.extend(gateway.run_cycle())

    cycler, canceller = guarded(cycle), guarded(cancel)
    feeders = [guarded(lambda t=t: submit(t)) for t in range(submitters)]
    threads = [cycler, canceller] + feeders
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)         # interleave the threads finely
    try:
        for thread in threads:
            thread.start()
        for thread in feeders:
            thread.join(timeout=5)
        issued.put(None)
        canceller.join(timeout=5)
        stop.set()
        cycler.join(timeout=5)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    ids = [ticket.job_id for batch in tickets for ticket in batch]
    assert all(ticket.admitted for batch in tickets for ticket in batch)
    assert sorted(ids) == list(range(total))
    jobs_by_id = {sub.job_id: sub for sub in gateway.queue.jobs()}
    assert sorted(jobs_by_id) == list(range(total))
    counts = Counter(result.job_id for result in delivered)
    assert set(counts.values()) <= {1}
    assert set(counts) == {job_id for job_id, sub in jobs_by_id.items()
                           if sub.result is not None}
    assert all(sub.state in TERMINAL and sub.state != JobState.SHED
               for sub in jobs_by_id.values())
    replayed = RuntimeMetrics()
    for event in metrics.events:
        replayed.record_event(event)
    assert replayed.as_dict() == metrics.as_dict()


class TestVirtualClock:
    def test_monotonic_advance(self, virtual_clock):
        assert virtual_clock() == 0.0
        assert virtual_clock.advance(2.5) == 2.5
        assert virtual_clock.advance_to(1.0) == 2.5   # never backwards
        assert virtual_clock.advance_to(7.0) == 7.0
        assert virtual_clock.now() == 7.0

    def test_negative_advance_rejected(self, virtual_clock):
        with pytest.raises(ValueError, match="backwards"):
            virtual_clock.advance(-1.0)

    def test_replayer_requires_virtual_clock(self):
        from repro.runtime import FleetScheduler, TraceReplayer
        gateway = ServingGateway(devices=synthetic_fleet(2), max_width=4)
        with pytest.raises(TypeError, match="VirtualClock"):
            TraceReplayer(gateway, [], make_sim_job)
        # and a sim fleet auto-builds one
        fleet = FleetScheduler(devices=synthetic_fleet(2), max_width=4,
                               execution="sim")
        assert isinstance(fleet.clock, VirtualClock)
