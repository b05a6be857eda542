"""Chaos testing in simulation: kill devices at virtual-time points.

The fleet's ``chaos`` hook raises :class:`~repro.runtime.sim.
SimulatedCrash` (a ``BaseException``, so it bypasses the array-level
quarantine handlers) at an epoch boundary, killing the simulated device
mid-array exactly the way a hard kill does in the real backend — the
fleet catches it where the device's work item runs, quarantines the
device, and the WAL + checkpoint store drive recovery.

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
  holds them, re-costed and capped at that device's width (or, when no
  healthy device holds them, back to the queue), and take ordinary turns
  there: the chaos hook, the gateway's admission order and a second
  crash reach them like any other work.
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

from .conftest import assert_ledger_matches_records, make_sim_job
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
        assert_ledger_matches_records(fleet.metrics)
        for job_id in results:
            assert fleet.queue.state(job_id) == JobState.COMPLETED
        # recovery changed *where* jobs ran, never *what* they computed
        assert curves(results) == curves(expected)
        # the WAL recorded the crash and settled every admission
        events = [r for r in recovery.entries() if r["type"] == "array"]
        assert any(r["event"] == "crash" for r in events)
        assert recovery.unsettled() == {}

    def test_a_crash_after_an_early_stop_counts_every_job_and_slot_step(
            self):
        """Four jobs on one V100: job 1 stops early after epoch 1 and the
        device dies at the second epoch boundary.  The dead array closes
        its record, so job 1 counts once among 4 completions, and the
        records hold its 4x2 + 3x2 slot-steps beside the rerun's 3x8 —
        38, as the tenant ledger bills."""
        fleet = FleetScheduler(devices=(V100,), max_width=4,
                               execution="sim")
        boundaries = []

        def chaos(device_name, executor):
            boundaries.append(device_name)
            return len(boundaries) == 2

        fleet.chaos = chaos
        ids = fleet.submit_all([
            make_sim_job(i, steps=8, epoch_steps=2,
                         stop=(lambda epochs, curve: epochs >= 1)
                         if i == 1 else None)
            for i in range(4)])
        results = fleet.run_until_idle()

        assert fleet.metrics.workers_crashed == 1
        assert sorted(results) == ids
        assert all(fleet.queue.state(job_id) == JobState.COMPLETED
                   for job_id in ids)
        assert results[ids[1]].steps_trained == 2
        assert fleet.metrics.jobs_completed == 4
        assert fleet.metrics.slot_steps_total == 38
        assert_ledger_matches_records(fleet.metrics)

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
        assert_ledger_matches_records(fleet.metrics)
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
        assert_ledger_matches_records(fleet.metrics)
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
        assert_ledger_matches_records(fleet.metrics)

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
        assert_ledger_matches_records(fleet.metrics)
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

    @staticmethod
    def stranded_child(tmp_path, at_risk=1):
        """A 16-wide hog array on the A100 preempts ``at_risk`` slots for
        as many at-risk jobs at its first epoch boundary; the A100 dies
        while the preempted child waits behind its parent.  Returns the
        armed gateway, the hogs' ids, the at-risk jobs' tickets, and the
        kill log (nothing has run yet)."""
        store = CheckpointStore(tmp_path)
        gateway = ServingGateway(
            tenants=[TenantSpec("hog", weight=1.0, priority=0),
                     TenantSpec("slo", weight=1.0, priority=2)],
            devices=(V100, A100), max_width=16, execution="sim",
            store=store, checkpoint_every=1,
            recovery=RecoveryManager(store))
        slo = []

        def submit_slo(epochs, curve):
            # the first epoch boundary, while the array is full: preempt
            if epochs == 1 and not slo:
                slo.extend(gateway.submit(
                    make_sim_job(99 + k, steps=8, tenant="slo"),
                    deadline_s=0.0) for k in range(at_risk))
            return False

        fired = kill_once(gateway.fleet, "A100", when=lambda f: any(
            isinstance(item, ArrayExecutor)
            for item in f.workers["A100"].plans))
        hogs = [gateway.submit(make_sim_job(
                    i, steps=8, tenant="hog",
                    stop=submit_slo if i == 0 else None)).job_id
                for i in range(16)]
        return gateway, hogs, slo, fired

    def test_preempted_child_stranded_behind_a_crash_is_capped(
            self, tmp_path):
        """A preempted child queued behind its crashing parent moves to
        the V100 with the V100's width cap, so the freed-width admissions
        that refill it there stop at 9."""
        gateway, hogs, slo, fired = self.stranded_child(tmp_path)
        fleet = gateway.fleet
        results = gateway.run_until_idle()

        assert fired and fleet.metrics.workers_crashed == 1
        assert fleet.metrics.jobs_preempted == 1
        assert set(results) == set(hogs) | {slo[0].job_id}
        assert fleet.metrics.jobs_completed == 17
        assert_ledger_matches_records(fleet.metrics)
        assert fleet.recovery.unsettled() == {}
        assert_arrays_fit_their_devices(fleet)
        child, = [result.array_id for result in results.values()
                  if result.preemptions]
        record, = [r for r in fleet.metrics.records if r.array_id == child]
        assert (record.device, record.width_cap) == ("V100", 9)

    def test_a_rehomed_child_trains_on_its_new_device_timeline(
            self, tmp_path):
        """The stranded child re-homed to the V100 is the V100's work:
        each of its epochs, from the crash on, is priced for the V100 and
        charged to the V100's timeline alone, its results finish on that
        timeline, and the dead A100's timeline stops at the crash."""
        gateway, _, _, fired = self.stranded_child(tmp_path)
        fleet = gateway.fleet
        assert len({id(worker.engine)
                    for worker in fleet.workers.values()}) == 1

        def timelines():
            return {name: worker.sim_time
                    for name, worker in fleet.workers.items()}

        kill, at_crash = fleet.chaos, []

        def chaos(device_name, executor):
            if kill(device_name, executor):
                at_crash.append(timelines())
                return True
            return False

        charge, charges = fleet.engine.charge_epoch, []

        def logged(executor, width, steps, seconds, samples):
            before = timelines()
            priced = charge(executor, width, steps, seconds, samples)
            after = timelines()
            charges.append((executor.array_id, executor.device_name, width,
                            steps, priced[0],
                            {name for name in after
                             if after[name] != before[name]},
                            after["V100"]))
            return priced

        fleet.chaos, fleet.engine.charge_epoch = chaos, logged
        results = gateway.run_until_idle()

        assert fired and len(at_crash) == 1
        assert fleet.workers["A100"].sim_time == at_crash[0]["A100"]
        child, = {result.array_id for result in results.values()
                  if result.preemptions}
        epochs = [entry for entry in charges if entry[0] == child]
        # the V100 takes the child over no earlier than the crash
        _, _, _, _, seconds, _, v100 = epochs[0]
        assert v100 - seconds >= at_crash[0]["A100"]
        v100_times = set()
        for _, device, width, steps, seconds, moved, v100 in epochs:
            shape = SimpleNamespace(workload=None, num_models=width,
                                    steps=steps)
            assert (device, moved) == ("V100", {"V100"})
            assert seconds == fleet.placer.estimate(shape, V100).train_seconds
            v100_times.add(v100)
        finished = [result.finished_at for result in results.values()
                    if result.array_id == child]
        assert finished and set(finished) <= v100_times

    def test_a_child_too_wide_for_any_healthy_device_requeues(
            self, tmp_path):
        """The hog array preempts 12 slots, and the 12-wide child fits no
        healthy device (the V100's cap is 9): its jobs go back to the
        queue from the store.  While the A100 is quarantined no epoch is
        charged to it and no job boards or trains there; every job
        settles exactly once."""
        gateway, hogs, slo, fired = self.stranded_child(tmp_path,
                                                        at_risk=12)
        fleet = gateway.fleet
        charge, charged = fleet.engine.charge_epoch, []

        def logged(executor, width, steps, seconds, samples):
            charged.append((executor.device_name,
                            tuple(fleet.quarantined_devices())))
            return charge(executor, width, steps, seconds, samples)

        record, boarded = fleet.metrics.record_event, []

        def recorded(event):
            if event.kind in ("launch", "admit"):
                boarded.append((event.device,
                                tuple(fleet.quarantined_devices())))
            record(event)

        fleet.engine.charge_epoch, fleet.metrics.record_event = \
            logged, recorded
        results = gateway.run_until_idle()

        assert fired and fleet.metrics.workers_crashed == 1
        assert fleet.metrics.jobs_preempted >= 12
        assert set(results) == set(hogs) | {ticket.job_id for ticket in slo}
        assert fleet.metrics.jobs_completed == 28
        assert_ledger_matches_records(fleet.metrics)
        assert fleet.recovery.unsettled() == {}
        assert_arrays_fit_their_devices(fleet)
        assert ("V100", ("A100",)) in charged
        assert [entry for entry in charged + boarded
                if entry[0] in entry[1]] == []

    @staticmethod
    def kill_the_child_too(fleet):
        """Arm a second kill on top of ``stranded_child``'s: the device
        that runs the re-homed child dies at the child's second epoch
        boundary there.  Returns the second kill's log."""
        first, second, boundaries = fleet.chaos, [], []

        def chaos(device_name, executor):
            if first(device_name, executor):
                return True
            if device_name != "A100" and not second and any(
                    slot.preemptions for slot in executor.slots):
                boundaries.append(device_name)
                if len(boundaries) == 2:
                    second.append(device_name)
                    return True
            return False

        fleet.chaos = chaos
        return second

    def test_a_crash_of_the_device_running_the_rehomed_child_recovers(
            self, tmp_path):
        """The V100 takes the stranded child over and dies while it runs
        it.  That crash is recovered like the first, and every job
        settles exactly once, with the loss curves and step counts of an
        uncrashed run."""
        reference, _, _, _ = self.stranded_child(tmp_path / "reference")
        reference.fleet.chaos = None
        expected = reference.run_until_idle()

        gateway, hogs, slo, fired = self.stranded_child(tmp_path / "chaos")
        fleet = gateway.fleet
        second = self.kill_the_child_too(fleet)
        results = gateway.run_until_idle()

        assert fired and second == ["V100"]
        assert fleet.metrics.workers_crashed == 2
        assert set(results) == set(hogs) | {slo[0].job_id}
        assert fleet.metrics.jobs_completed == 17
        assert_ledger_matches_records(fleet.metrics)
        assert fleet.recovery.unsettled() == {}
        assert_arrays_fit_their_devices(fleet)
        assert curves(results) == curves(expected)

    def test_the_rehomed_child_admits_in_the_gateways_rank_order(
            self, tmp_path):
        """The child re-homed to the V100 refills its freed width from the
        queue the crash filled, in the gateway's ``rank`` order: the
        at-risk job boards ahead of the hogs queued before it."""
        gateway, _, slo, fired = self.stranded_child(tmp_path)
        fleet = gateway.fleet
        refill, refills = fleet.engine.refill_from_queue, []

        def logged(executor, key=None):
            ranked = [sub.job_id for sub in sorted(
                fleet.queue.pending_jobs(), key=gateway.rank)]
            before = {slot.sub.job_id for slot in executor.slots}
            admitted = refill(executor, key=key)
            boarded = [slot.sub.job_id for slot in executor.slots
                       if slot.sub.job_id not in before]
            refills.append((executor.device_name, ranked, boarded))
            return admitted

        fleet.engine.refill_from_queue = logged
        gateway.run_until_idle()

        assert fired
        rehomed = [(ranked, boarded)
                   for device, ranked, boarded in refills
                   if device == "V100" and boarded]
        assert rehomed, "the re-homed child admitted nothing"
        ranked, boarded = rehomed[0]
        assert slo[0].job_id in boarded
        assert boarded == ranked[:len(boarded)]
