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
  sees zero SLO misses even when a device dies mid-trace.
"""

import random

import pytest

from repro.cluster import ServingTraceConfig, TenantLoad, \
    generate_serving_trace
from repro.runtime import CheckpointStore, FleetScheduler, JobState, \
    LPFleetPlacer, LPWeights, RecoveryManager, ServingGateway, TenantSpec, \
    TraceReplayer, synthetic_fleet

from .conftest import make_sim_job

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


class TestChaosMidMigration:
    """Device death *mid-migration* (the LP optimizer's moving parts).

    The LP policy migrates live arrays between devices at epoch
    boundaries; a device that dies while hosting a freshly migrated
    array is the nastiest interleaving the WAL has to get right — the
    array's provenance spans two devices, and the recovery sweep must
    re-queue its in-flight cohort exactly once so the next solve can
    re-place it without double-assignment.
    """

    MJOBS = 10
    MSTEPS = 40

    def run_lp_fleet(self, tmp_path, subdir, kill_migrated=False):
        """An LP-placement sim run that provably migrates; optionally
        kill the migration *target* while it steps the migrated array."""
        store = CheckpointStore(tmp_path / subdir)
        recovery = RecoveryManager(store)
        # zero hysteresis: any marginal improvement migrates, so this
        # small trace reliably exercises the mover
        placer = LPFleetPlacer(devices=synthetic_fleet(3), max_width=4,
                               weights=LPWeights(migration=0.0))
        fleet = FleetScheduler(placer=placer, execution="sim",
                               migration_budget=8, store=store,
                               checkpoint_every=1, recovery=recovery)
        fleet.metrics.enable_event_log()
        if kill_migrated:
            fired = []

            def chaos(device_name, executor):
                if fired:
                    return False
                for _, payload in fleet.metrics.decisions("migrate"):
                    array_id, _, target = payload
                    if device_name == target \
                            and executor.array_id == array_id:
                        fired.append((device_name, array_id))
                        return True
                return False

            fleet.chaos = chaos
        fleet.submit_all([make_sim_job(i, steps=self.MSTEPS,
                                       epoch_steps=2)
                          for i in range(self.MJOBS)])
        results = fleet.run_until_idle()
        return fleet, results, recovery

    def test_migration_target_dies_while_stepping_migrated_array(
            self, tmp_path):
        reference, expected, _ = self.run_lp_fleet(tmp_path, "reference")
        assert reference.metrics.migrations_emitted > 0
        assert reference.metrics.workers_crashed == 0

        fleet, results, recovery = self.run_lp_fleet(
            tmp_path, "chaos", kill_migrated=True)

        # the victim really was a migration target running the moved
        # array (the chaos hook only fires on that exact interleaving)
        assert fleet.metrics.migrations_emitted > 0
        assert fleet.metrics.workers_crashed == 1
        migrated_ids = {payload[0] for _, payload
                        in fleet.metrics.decisions("migrate")}
        crash_events = [r for r in recovery.entries()
                        if r["type"] == "array" and r["event"] == "crash"]
        assert len(crash_events) == 1
        assert crash_events[0]["array_id"] in migrated_ids

        # the WAL carries the move itself: provenance spans both devices
        migrate_events = [r for r in recovery.entries()
                          if r["type"] == "array"
                          and r["event"] == "migrate"]
        assert migrate_events, "migration was never journaled"

        # exactly-once: the in-flight migrated cohort was re-queued once,
        # re-placed by a later solve, and nothing completed twice
        assert len(results) == self.MJOBS
        assert fleet.metrics.jobs_completed == self.MJOBS
        for job_id in results:
            assert fleet.queue.state(job_id) == JobState.COMPLETED
        assert fleet.metrics.jobs_recovered > 0
        assert fleet.metrics.lp_solves >= 2, \
            "recovery never reached a re-solve"
        assert recovery.unsettled() == {}

        # recovery changed *where* jobs ran, never *what* they computed
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
