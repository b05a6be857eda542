"""Chaos testing in simulation: kill devices at virtual-time points.

The fleet's ``chaos`` hook raises :class:`~repro.runtime.sim.
SimulatedCrash` (a ``BaseException``, so it bypasses the array-level
quarantine handlers) at an epoch boundary, killing the simulated device
mid-array exactly the way a dead worker thread does in the real backend
— the crash sweep finds the orphaned executor, quarantines the device,
and the WAL + checkpoint store drive recovery.

What must survive the murder:

* **bit-identical recovery** — with ``checkpoint_every=1``, the
  recovered run's loss curves and trained-step counts are bit-identical
  to an uninterrupted run's (crash recovery may change *where* jobs run,
  never *what* they compute);
* **exactly-once completion** — every job completes exactly once; the
  WAL settles (no unsettled admissions remain) and records the crash;
* **SLO protection** — a priority tenant with deadlines on every job
  sees zero SLO misses even when a device dies mid-trace;
* **placement is final** — under LP placement, over random fleets and
  cohorts, no array ever changes device, crash or not;
* **work moved off a dead device fits where it lands** — a queued plan
  or a preempted child stranded behind a crashed array, and a plan placed
  on a quarantined device, move only to a healthy device whose width cap
  holds them, re-costed and capped at that device's width (or, for a
  plan no healthy device holds, back to the queue).
"""

import random
from types import SimpleNamespace

import pytest

from repro.cluster import ServingTraceConfig, TenantLoad, \
    generate_serving_trace
from repro.hwsim import A100, V100
from repro.runtime import ArrayExecutor, CheckpointStore, FleetScheduler, \
    JobState, LPFleetPlacer, RecoveryManager, ServingGateway, TenantSpec, \
    TraceReplayer, synthetic_fleet

from .conftest import make_sim_job
from .test_sim_invariants import assert_arrays_fit_their_devices

JOBS = 12
STEPS = 6
EPOCH_STEPS = 2


def make_jobs():
    return [make_sim_job(i, steps=STEPS, epoch_steps=EPOCH_STEPS)
            for i in range(JOBS)]


def run_sim_fleet(tmp_path, subdir, kill_at=None, victim=None):
    """One sim serving run; optionally murder ``victim`` at virtual time
    ``kill_at``.  Returns (fleet, results, recovery)."""
    store = CheckpointStore(tmp_path / subdir)
    recovery = RecoveryManager(store)
    fleet = FleetScheduler(devices=synthetic_fleet(3), max_width=4,
                           execution="sim", store=store,
                           checkpoint_every=1, recovery=recovery)
    if kill_at is not None:
        fired = []

        def chaos(device_name, executor):
            if not fired and device_name == victim \
                    and fleet.clock() >= kill_at:
                fired.append((device_name, fleet.clock()))
                return True
            return False

        fleet.chaos = chaos
    fleet.submit_all(make_jobs())
    results = fleet.run_until_idle()
    return fleet, results, recovery


def curves(results):
    return {r.name: (r.steps_trained, tuple(r.loss_curve))
            for r in results.values()}


class TestChaosRecovery:
    def test_device_killed_at_virtual_time_recovers_bit_identical(
            self, tmp_path):
        reference, expected, _ = run_sim_fleet(tmp_path, "reference")
        assert reference.metrics.workers_crashed == 0
        # pick the victim *from the reference run*: the device that was
        # busiest is guaranteed to hold live arrays at the kill point
        busiest = max(reference.metrics.device_summary().items(),
                      key=lambda kv: kv[1]["busy_seconds"])[0]

        fleet, results, recovery = run_sim_fleet(
            tmp_path, "chaos", kill_at=0.0, victim=busiest)

        assert fleet.metrics.workers_crashed == 1
        assert fleet.metrics.jobs_recovered > 0
        assert len(results) == JOBS
        assert fleet.metrics.jobs_completed == JOBS      # exactly once
        for job_id in results:
            assert fleet.queue.state(job_id) == JobState.COMPLETED
        # recovery changed *where* jobs ran, never *what* they computed
        assert curves(results) == curves(expected)
        # the WAL recorded the crash and settled every admission
        events = [r for r in recovery.entries() if r["type"] == "array"]
        assert any(r["event"] == "crash" for r in events)
        assert recovery.unsettled() == {}

    @pytest.mark.parametrize("seed", range(4))
    def test_random_device_random_virtual_time(self, tmp_path, seed):
        """Property form: any device, any virtual-time kill point — the
        outcome is always bit-identical to the uninterrupted run."""
        rng = random.Random(5_000 + seed)
        _, expected, _ = run_sim_fleet(tmp_path, "reference")
        fleet, results, recovery = run_sim_fleet(
            tmp_path, f"chaos{seed}",
            kill_at=rng.uniform(0.0, 0.2),
            victim=rng.choice(sorted(fleet_device_names())))
        # the random victim may have been idle at the kill point; either
        # way every job completes exactly once with identical state
        assert fleet.metrics.workers_crashed <= 1
        assert len(results) == JOBS
        assert fleet.metrics.jobs_completed == JOBS
        assert curves(results) == curves(expected)
        assert recovery.unsettled() == {}


def fleet_device_names():
    return [device.name for device in synthetic_fleet(3)]


def assert_arrays_never_move(events):
    """Every event of one array names the device the array first ran on:
    a live array trains where it was placed until it drains or dies."""
    device_of = {}
    for event in events:
        if event.array_id < 0 or not event.device:
            continue
        home = device_of.setdefault(event.array_id, event.device)
        assert home == event.device, \
            f"array {event.array_id} ran on {home}, then on {event.device}"
    assert device_of, "no event named an array and a device"


class TestLPPlacementIsFinal:
    """LP placement over random fleets and cohorts, with and without a
    device killed mid-trace: no array ever changes device, every array
    fits its device's width cap, every job completes exactly once with
    the losses of the uninterrupted run, and the WAL settles."""

    def run_lp_fleet(self, tmp_path, seed, kill_epoch=None):
        """A seeded LP-placed sim run; with ``kill_epoch``, the device
        reaching the fleet's ``kill_epoch``-th epoch boundary dies there."""
        rng = random.Random(31_000 + seed)
        store = CheckpointStore(tmp_path / f"kill{kill_epoch}")
        recovery = RecoveryManager(store)
        placer = LPFleetPlacer(devices=synthetic_fleet(rng.choice((2, 3, 5))),
                               max_width=rng.choice((2, 4, 8)))
        fleet = FleetScheduler(placer=placer, execution="sim", store=store,
                               checkpoint_every=1, recovery=recovery)
        fleet.metrics.enable_event_log()
        boundaries, fired = [], []
        if kill_epoch is not None:
            def chaos(device_name, executor):
                boundaries.append(device_name)
                if not fired and len(boundaries) == kill_epoch:
                    fired.append(device_name)
                    return True
                return False

            fleet.chaos = chaos
        jobs = [make_sim_job(i, steps=rng.choice((4, 8, 12)), epoch_steps=2)
                for i in range(rng.randint(6, 14))]
        fleet.submit_all(jobs)
        results = fleet.run_until_idle()
        return fleet, results, recovery, len(jobs), fired

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("kill_epoch", [None, 1, 2])
    def test_live_array_never_leaves_its_device(self, tmp_path, seed,
                                                kill_epoch):
        fleet, results, recovery, num_jobs, fired = self.run_lp_fleet(
            tmp_path, seed, kill_epoch)

        assert fleet.metrics.lp_solves >= 1
        assert fleet.metrics.workers_crashed == len(fired)
        assert len(fired) == (kill_epoch is not None)
        assert len(results) == num_jobs
        assert fleet.metrics.jobs_completed == num_jobs
        for job_id in results:
            assert fleet.queue.state(job_id) == JobState.COMPLETED
        assert recovery.unsettled() == {}
        assert_arrays_never_move(fleet.metrics.events)
        assert_arrays_fit_their_devices(fleet)
        if kill_epoch is not None:
            assert fleet.metrics.jobs_recovered > 0
            _, expected, _, _, _ = self.run_lp_fleet(tmp_path, seed)
            assert curves(results) == curves(expected)


class TestChaosUnderServingLoad:
    def test_priority_tenant_rides_through_a_device_death(self, tmp_path):
        """A 40-job three-tenant trace; one device dies mid-trace.  The
        deadline-carrying priority tenant must not miss a single SLO."""
        trace = generate_serving_trace(ServingTraceConfig(
            num_jobs=40, duration_s=600.0, seed=7,
            tenants=(TenantLoad("batch", share=3.0),
                     TenantLoad("prio", share=1.0, priority=2,
                                deadline_s=1800.0, deadline_rate=1.0)),
            mean_burst_size=6.0, max_burst_size=12,
            steps_choices=(4, 8), epoch_steps_choices=(2,)))
        store = CheckpointStore(tmp_path / "gateway")
        gateway = ServingGateway(
            tenants=(TenantSpec("batch", weight=1.0),
                     TenantSpec("prio", weight=4.0, priority=2)),
            max_pending=64,
            devices=synthetic_fleet(3), max_width=4, execution="sim",
            store=store, checkpoint_every=1,
            recovery=RecoveryManager(store))
        fired = []

        def chaos(device_name, executor):
            if not fired and gateway.fleet.clock() >= 60.0:
                fired.append(device_name)
                return True
            return False

        gateway.fleet.chaos = chaos

        def job_factory(event):
            return make_sim_job(
                event.seed, steps=event.steps,
                epoch_steps=event.epoch_steps, name=event.name,
                tenant=event.tenant, user=event.user,
                priority=event.priority, workload=event.workload)

        replayer = TraceReplayer(gateway, trace, job_factory,
                                 cycle_quantum_s=30.0)
        results = replayer.run()

        assert fired, "chaos hook never fired"
        assert gateway.metrics.workers_crashed == 1
        assert len(results) == 40
        assert not replayer.rejected
        summary = gateway.metrics.tenant_summary()
        assert summary["prio"]["slo_misses"] == 0
        assert summary["prio"]["slo_hits"] == summary["prio"]["submitted"]


def kill_once(fleet, victim, when=lambda fleet: True):
    """Arm ``fleet.chaos`` to kill ``victim`` at its first epoch boundary
    where ``when(fleet)`` holds; returns the list the kill is logged in."""
    fired = []

    def chaos(device_name, executor):
        if not fired and device_name == victim and when(fleet):
            fired.append(executor.array_id)
            return True
        return False

    fleet.chaos = chaos
    return fired


class TestWorkOffADeadDevice:
    """V100 and A100 differ in width cap for the default workload (9 and
    16 at ``max_width=16``), so work moved off a dead A100 must shrink to
    fit the V100 or wait for the A100 to come back."""

    def test_plan_on_a_quarantined_device_never_outgrows_the_fallback(self):
        """Regression: the quarantine fallback re-routed a 16-wide plan to
        the V100, which launched it past its width cap of 9."""
        fleet = FleetScheduler(devices=(V100, A100), max_width=16,
                               execution="sim")
        fired = kill_once(fleet, "A100")
        fleet.submit_all([make_sim_job(i, steps=8) for i in range(16)])
        assert fleet.run_cycle() == []
        assert fired and fleet.quarantined_devices() == ["A100"]

        fleet.submit_all([make_sim_job(16 + i, steps=8) for i in range(16)])
        results = fleet.run_until_idle()

        assert_arrays_fit_their_devices(fleet)
        assert len(results) == 32
        assert fleet.metrics.jobs_completed == 32

    def test_plan_stranded_behind_a_crash_runs_recosted_elsewhere(
            self, tmp_path):
        """A plan queued on the A100 behind its running array when the
        A100 dies runs on the V100, priced for the V100."""
        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        fleet = FleetScheduler(devices=(V100, A100), max_width=4,
                               execution="sim", store=store,
                               checkpoint_every=1, recovery=recovery)
        fleet.metrics.enable_event_log()
        fired = kill_once(fleet, "A100",
                          when=lambda f: bool(f.workers["A100"].plans))
        fleet.submit_all([make_sim_job(i, steps=8) for i in range(16)])
        results = fleet.run_until_idle()

        assert fired and fleet.metrics.workers_crashed == 1
        assert len(results) == 16
        assert fleet.metrics.jobs_completed == 16
        assert recovery.unsettled() == {}
        assert_arrays_fit_their_devices(fleet)

        placed, launched = {}, {}
        for event in fleet.metrics.events:
            if event.kind == "place":
                placed.setdefault(event.job_ids, event.device)
            elif event.kind == "launch":
                launched.setdefault(event.job_ids, event)
        stranded = [launched[ids] for ids, device in placed.items()
                    if device == "A100" and launched[ids].device == "V100"]
        assert len(stranded) == 1
        record, = [r for r in fleet.metrics.records
                   if r.array_id == stranded[0].array_id]
        shape = SimpleNamespace(workload=None, num_models=4, steps=8)
        on_v100 = fleet.placer.estimate(shape, V100).train_seconds
        assert record.sim_seconds == on_v100
        assert on_v100 != fleet.placer.estimate(shape, A100).train_seconds

    def test_preempted_child_stranded_behind_a_crash_is_capped(
            self, tmp_path):
        """A preempted child queued behind its crashing parent moves to
        the V100 with the V100's width cap, so the freed-width admissions
        that refill it there stop at 9."""
        store = CheckpointStore(tmp_path)
        recovery = RecoveryManager(store)
        gateway = ServingGateway(
            tenants=[TenantSpec("hog", weight=1.0, priority=0),
                     TenantSpec("slo", weight=1.0, priority=2)],
            devices=(V100, A100), max_width=16, execution="sim",
            store=store, checkpoint_every=1, recovery=recovery)
        fleet = gateway.fleet
        slo = []

        def submit_slo(epochs, curve):
            # the first epoch boundary, while the array is full: preempt
            if epochs == 1 and not slo:
                slo.append(gateway.submit(
                    make_sim_job(99, steps=8, tenant="slo"), deadline_s=0.0))
            return False

        fired = kill_once(fleet, "A100", when=lambda f: any(
            isinstance(item, ArrayExecutor)
            for item in f.workers["A100"].plans))
        hogs = [gateway.submit(make_sim_job(
                    i, steps=8, tenant="hog",
                    stop=submit_slo if i == 0 else None)).job_id
                for i in range(16)]
        results = gateway.run_until_idle()

        assert fired and fleet.metrics.workers_crashed == 1
        assert fleet.metrics.jobs_preempted == 1
        assert set(results) == set(hogs) | {slo[0].job_id}
        assert fleet.metrics.jobs_completed == 17
        assert recovery.unsettled() == {}
        assert_arrays_fit_their_devices(fleet)
        child, = [result.array_id for result in results.values()
                  if result.preemptions]
        record, = [r for r in fleet.metrics.records if r.array_id == child]
        assert (record.device, record.width_cap) == ("V100", 9)
