"""Tests for the multi-tenant serving gateway: admission, fairness, SLOs.

Burst behavior under contract:

* token-bucket rate limiting sheds over-rate submissions and admits again
  exactly when the bucket refills (manual clock — no timing assumptions);
* per-tenant quotas bound in-flight work and free as the backlog drains;
* under backpressure (bounded queue) the lowest-priority queued job is
  shed first, and only for a strictly higher-priority newcomer;
* the fair dequeue serves deadline-at-risk jobs first, then priority
  classes, then tenants by weighted-fair virtual time;
* preemption detaches an over-quota tenant's slot so a deadline-at-risk
  job can board, and the preempted job resumes serially-equivalent.
"""

import numpy as np
import pytest

from repro import nn, optim as serial_optim
from repro.hfta.ops.factory import OpsLibrary
from repro.hwsim import V100
from repro.nn import functional as F
from repro.runtime import (Batcher, JobQueue, JobState, ServingGateway,
                           ShedReason, TenantSpec, TrainingJob)

STEPS = 4
BATCH = 6
CLASSES = 3
FEATURES = 10


class TinyMLP(nn.Module):
    """Minimal OpsLibrary model used as the tests' job architecture."""

    def __init__(self, hidden=8, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(FEATURES, hidden, generator=generator)
        self.fc2 = lib.Linear(hidden, CLASSES, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


def stream(seed, steps=STEPS):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, FEATURES)).astype(np.float32),
                rng.integers(0, CLASSES, size=BATCH))
               for _ in range(steps)]
    return lambda step: batches[step]


def make_job(index, tenant="default", lr=1e-3, steps=STEPS, **kwargs):
    return TrainingJob(
        name=f"job{index}_lr{lr}", seed=index, steps=steps,
        config={"lr": lr, "optimizer": "adam"},
        build_model=lambda B=None, g=None: TinyMLP(8, B, g),
        data=stream(1000 + index, steps), tenant=tenant, **kwargs)


def manual_clock(start=0.0):
    now = [start]

    def advance(dt):
        now[0] += dt
    return (lambda: now[0]), advance


def assert_checkpoint_matches(result, job):
    reference = job.build_model(None, np.random.default_rng(job.seed))
    opt = serial_optim.Adam(reference.parameters(), lr=job.config["lr"])
    for step in range(result.steps_trained):
        x, y = job.data(step)
        opt.zero_grad()
        F.cross_entropy(reference(nn.tensor(x)), y).backward()
        opt.step()
    for (name, p_ref), (_, p_out) in zip(
            reference.named_parameters(),
            result.checkpoint.named_parameters()):
        np.testing.assert_allclose(p_out.data, p_ref.data, rtol=1e-4,
                                   atol=1e-6,
                                   err_msg=f"{result.name} {name}")


# --------------------------------------------------------------------- #
class TestRateLimit:
    def test_burst_then_shed_then_refill(self):
        clock, advance = manual_clock()
        gateway = ServingGateway(
            tenants=[TenantSpec("t", rate=1.0, burst=2)],
            devices=(V100,), max_width=4, clock=clock)

        first = gateway.submit(make_job(0, "t"))
        second = gateway.submit(make_job(1, "t"))
        assert first.admitted and second.admitted

        third = gateway.submit(make_job(2, "t"))
        assert not third.admitted
        assert third.reason == ShedReason.RATE_LIMITED
        assert third.retry_after == pytest.approx(1.0)
        assert third.job_id is None

        # the bucket refills exactly one token per second
        advance(1.0)
        fourth = gateway.submit(make_job(3, "t"))
        assert fourth.admitted
        fifth = gateway.submit(make_job(4, "t"))
        assert not fifth.admitted

        summary = gateway.metrics.tenant_summary()
        assert summary["t"]["submitted"] == 5
        assert summary["t"]["admitted"] == 3
        assert summary["t"]["shed"] == 2

    def test_rate_limited_jobs_never_reach_the_queue(self):
        clock, _ = manual_clock()
        gateway = ServingGateway(
            tenants=[TenantSpec("t", rate=0.5, burst=1)],
            devices=(V100,), max_width=4, clock=clock)
        gateway.submit(make_job(0, "t"))
        gateway.submit(make_job(1, "t"))
        assert gateway.queue.pending_count == 1


class TestQuota:
    def test_quota_caps_in_flight_steps_and_frees_on_completion(self):
        gateway = ServingGateway(
            tenants=[TenantSpec("t", quota_steps=2 * STEPS)],
            devices=(V100,), max_width=4)
        assert gateway.submit(make_job(0, "t")).admitted
        assert gateway.submit(make_job(1, "t")).admitted
        over = gateway.submit(make_job(2, "t"))
        assert not over.admitted
        assert over.reason == ShedReason.OVER_QUOTA
        assert over.retry_after > 0

        gateway.run_until_idle()          # the backlog drains
        assert gateway.in_flight_steps("t") == 0
        assert gateway.submit(make_job(3, "t")).admitted


class TestBackpressure:
    def test_full_queue_sheds_lowest_priority_tenant_first(self):
        """Quota exhaustion on the shared queue displaces the cheapest
        queued work: the newest lowest-priority job is shed (freeing its
        width claim), never the high-priority backlog."""
        gateway = ServingGateway(
            tenants=[TenantSpec("low", priority=0),
                     TenantSpec("mid", priority=1),
                     TenantSpec("high", priority=2)],
            devices=(V100,), max_width=4, max_pending=3)
        low_ids = [gateway.submit(make_job(i, "low")).job_id
                   for i in range(2)]
        mid = gateway.submit(make_job(2, "mid"))
        assert gateway.queue.pending_count == 3

        ticket = gateway.submit(make_job(3, "high"))
        assert ticket.admitted
        # the newest *low* job was displaced — not the mid one
        assert gateway.queue.state(low_ids[1]) == JobState.SHED
        assert gateway.queue.state(low_ids[0]) == JobState.QUEUED
        assert gateway.queue.state(mid.job_id) == JobState.QUEUED
        summary = gateway.metrics.tenant_summary()
        assert summary["low"]["shed"] == 1
        assert gateway.metrics.jobs_shed == 1

    def test_slo_carrying_queued_jobs_are_never_displaced(self):
        """Regression: displacement must not silently drop an admitted
        SLO job — its deadline has to be scored hit or miss.  With only
        SLO work queued, the hot newcomer is shed instead."""
        gateway = ServingGateway(
            tenants=[TenantSpec("slo", priority=0, deadline_s=600.0),
                     TenantSpec("hot", priority=5)],
            devices=(V100,), max_width=4, max_pending=1)
        protected = gateway.submit(make_job(0, "slo"))
        ticket = gateway.submit(make_job(1, "hot"))
        assert not ticket.admitted
        assert ticket.reason == ShedReason.BACKPRESSURE
        assert gateway.queue.state(protected.job_id) == JobState.QUEUED
        gateway.run_until_idle()
        summary = gateway.metrics.tenant_summary()
        assert summary["slo"]["slo_hits"] == 1

    def test_equal_priority_newcomer_is_shed_not_the_queue(self):
        gateway = ServingGateway(
            tenants=[TenantSpec("a", priority=1), TenantSpec("b",
                                                             priority=1)],
            devices=(V100,), max_width=4, max_pending=2)
        ids = [gateway.submit(make_job(i, "a")).job_id for i in range(2)]
        ticket = gateway.submit(make_job(2, "b"))
        assert not ticket.admitted
        assert ticket.reason == ShedReason.BACKPRESSURE
        assert ticket.retry_after > 0
        assert all(gateway.queue.state(i) == JobState.QUEUED for i in ids)

    def test_displacing_a_non_gateway_job_keeps_the_ledger_sane(self):
        """Regression: a job that entered the queue via fleet.submit
        (never counted admitted) being displaced must not drive the
        tenant's admitted counter negative."""
        gateway = ServingGateway(tenants=[TenantSpec("hi", priority=2)],
                                 devices=(V100,), max_width=4,
                                 max_pending=1)
        legacy = make_job(0, tenant="legacy")
        gateway.fleet.submit(legacy)           # bypasses the gateway
        ticket = gateway.submit(make_job(1, "hi"))
        assert ticket.admitted
        summary = gateway.metrics.tenant_summary()
        assert summary["legacy"]["shed"] == 1
        assert summary["legacy"]["admitted"] == 0

        # the same tenant also holds a gateway admission: displacing its
        # direct job must not take that admission back off the ledger
        gateway = ServingGateway(tenants=[TenantSpec("a", priority=1),
                                          TenantSpec("hi", priority=2)],
                                 devices=(V100,), max_width=4,
                                 max_pending=2)
        kept = gateway.submit(make_job(0, "a"))
        gateway.fleet.submit(make_job(1, tenant="a", priority=0))
        assert gateway.submit(make_job(2, "hi")).admitted
        assert gateway.queue.state(kept.job_id) == JobState.QUEUED
        summary = gateway.metrics.tenant_summary()
        assert (summary["a"]["submitted"], summary["a"]["admitted"],
                summary["a"]["shed"]) == (1, 1, 1)

    def test_explicit_priority_zero_is_not_promoted(self):
        """Regression: priority 0 is a legitimate class, not an 'unset'
        sentinel — a deliberately deprioritized job under a hot tenant
        must stay at class 0."""
        gateway = ServingGateway(tenants=[TenantSpec("hot", priority=5)],
                                 devices=(V100,), max_width=4)
        inherited = gateway.submit(make_job(0, "hot"))
        demoted = gateway.submit(make_job(1, "hot", priority=0))
        assert gateway.queue.get(inherited.job_id).job.priority == 5
        assert gateway.queue.get(demoted.job_id).job.priority == 0

    def test_shed_only_removes_queued_jobs(self):
        queue = JobQueue()
        job_id = queue.submit(make_job(0))
        (sub,) = queue.pop_pending()
        assert not queue.shed(job_id)          # already scheduled
        assert sub.state == JobState.SCHEDULED
        assert not queue.shed(12345)           # unknown id


class TestFairDequeue:
    def test_weighted_fair_order_tracks_tenant_weights(self):
        """Tenant A (weight 3) is dequeued ~3x as often as B (weight 1)
        while both have backlog — start-time fair queueing on steps."""
        gateway = ServingGateway(
            tenants=[TenantSpec("a", weight=3.0),
                     TenantSpec("b", weight=1.0)],
            devices=(V100,), max_width=2)
        a_ids = [gateway.submit(make_job(i, "a")).job_id for i in range(6)]
        b_ids = [gateway.submit(make_job(10 + i, "b")).job_id
                 for i in range(6)]

        order = [sub.job_id
                 for sub in gateway.queue.pop_fair(key=gateway.rank)]
        assert set(order) == set(a_ids) | set(b_ids)
        # the first dequeues all belong to the heavy tenant, and within
        # the first six it holds at least its 3:1 share
        assert order[0] in a_ids and order[1] in a_ids
        assert sum(1 for i in order[:6] if i in a_ids) >= 4

    def test_priority_classes_outrank_weights(self):
        gateway = ServingGateway(
            tenants=[TenantSpec("vip", weight=0.1, priority=1),
                     TenantSpec("bulk", weight=10.0, priority=0)],
            devices=(V100,), max_width=2)
        bulk = [gateway.submit(make_job(i, "bulk")).job_id
                for i in range(3)]
        vip = [gateway.submit(make_job(10 + i, "vip")).job_id
               for i in range(3)]
        order = [sub.job_id
                 for sub in gateway.queue.pop_fair(key=gateway.rank)]
        assert order[:3] == vip
        assert set(order[3:]) == set(bulk)

    def test_deadline_at_risk_job_jumps_the_fair_queue(self):
        """A best-effort backlog is queued ahead of it, but the job whose
        deadline the cost model says is already blown dequeues first."""
        gateway = ServingGateway(
            tenants=[TenantSpec("bulk", weight=10.0, priority=1),
                     TenantSpec("slo", weight=1.0, priority=0)],
            devices=(V100,), max_width=2)
        for i in range(5):
            gateway.submit(make_job(i, "bulk"))
        risky = gateway.submit(make_job(9, "slo"), deadline_s=0.0)
        assert risky.admitted

        risky_sub = gateway.queue.get(risky.job_id)
        assert gateway.at_risk(risky_sub)
        order = [sub.job_id
                 for sub in gateway.queue.pop_fair(key=gateway.rank)]
        # lowest priority, lowest weight, submitted last — yet first out
        assert order[0] == risky.job_id

    def test_generous_deadline_is_not_at_risk(self):
        gateway = ServingGateway(tenants=[TenantSpec("t")],
                                 devices=(V100,), max_width=2)
        ticket = gateway.submit(make_job(0, "t"), deadline_s=3600.0)
        assert not gateway.at_risk(gateway.queue.get(ticket.job_id))


class TestPreemption:
    def test_at_risk_job_preempts_over_share_tenant_and_both_resume_exact(
            self):
        """A width-4 array is full of one tenant's work when a
        deadline-at-risk job arrives mid-flight: the fleet detaches the
        hog's lowest slot (state moved wholesale), boards the SLO job,
        and *every* checkpoint — preempted, at-risk, and bystander —
        still matches serial training."""
        gateway = ServingGateway(
            tenants=[TenantSpec("hog", weight=1.0, priority=0),
                     TenantSpec("slo", weight=1.0, priority=2)],
            devices=(V100,), max_width=4)

        steps = 8
        slo_job = make_job(99, "slo", steps=steps)
        slo_ticket = []

        def submit_slo(epochs, curve):
            # fires at the first epoch boundary, while the array is full
            if epochs == 1 and not slo_ticket:
                slo_ticket.append(gateway.submit(slo_job, deadline_s=0.0))
            return False

        hog_jobs = [make_job(i, "hog", steps=steps,
                             stop=submit_slo if i == 0 else None)
                    for i in range(4)]
        hog_ids = [gateway.submit(job).job_id for job in hog_jobs]
        results = gateway.run_until_idle()

        assert slo_ticket and slo_ticket[0].admitted
        slo_id = slo_ticket[0].job_id
        assert gateway.metrics.jobs_preempted == 1
        summary = gateway.metrics.tenant_summary()
        assert summary["hog"]["preempted"] == 1

        assert set(results) == set(hog_ids) | {slo_id}
        preempted = [results[i] for i in hog_ids
                     if results[i].preemptions > 0]
        assert len(preempted) == 1
        # the preempted slot trained its full budget in its own array
        assert preempted[0].steps_trained == steps
        assert preempted[0].array_id != results[slo_id].array_id

        for job, job_id in list(zip(hog_jobs, hog_ids)) + \
                [(slo_job, slo_id)]:
            assert results[job_id].steps_trained == steps
            assert_checkpoint_matches(results[job_id], job)

    def test_structural_mismatch_never_triggers_preemption(self):
        """Regression: an at-risk job whose cheap admission profile
        matches a full array but whose model structure does not must not
        cost any running slot its width — the structural check runs
        before victims are nominated."""
        gateway = ServingGateway(
            tenants=[TenantSpec("hog", weight=1.0, priority=0),
                     TenantSpec("slo", weight=1.0, priority=2)],
            devices=(V100,), max_width=4)

        steps = 6
        # same optimizer/loss/workload, different architecture
        alien = TrainingJob(
            name="job50_lr0.001", seed=50, steps=steps,
            config={"lr": 1e-3, "optimizer": "adam"},
            build_model=lambda B=None, g=None: TinyMLP(16, B, g),
            data=stream(1050, steps), tenant="slo")
        fired = []

        def submit_alien(epochs, curve):
            if epochs == 1 and not fired:
                fired.append(gateway.submit(alien, deadline_s=0.0))
            return False

        jobs = [make_job(i, "hog", steps=steps,
                         stop=submit_alien if i == 0 else None)
                for i in range(4)]
        ids = [gateway.submit(job).job_id for job in jobs]
        results = gateway.run_until_idle()

        assert gateway.metrics.jobs_preempted == 0
        assert all(results[i].preemptions == 0 for i in ids)
        # the alien still trains — in its own array, next cycle
        assert results[fired[0].job_id].steps_trained == steps

    def test_direct_submissions_rank_behind_admitted_backlog(self):
        """Regression: a job that bypassed the gateway has no virtual
        time; it must not leapfrog weight-paying tenants of its class."""
        gateway = ServingGateway(tenants=[TenantSpec("t")],
                                 devices=(V100,), max_width=2)
        free_rider = make_job(0, tenant="legacy")
        direct_id = gateway.fleet.submit(free_rider)
        paying = [gateway.submit(make_job(1 + i, "t")).job_id
                  for i in range(3)]
        order = [sub.job_id
                 for sub in gateway.queue.pop_fair(key=gateway.rank)]
        assert order == paying + [direct_id]

    def test_no_preemption_without_deadline_pressure(self):
        gateway = ServingGateway(
            tenants=[TenantSpec("a"), TenantSpec("b", priority=2)],
            devices=(V100,), max_width=4)
        for i in range(4):
            gateway.submit(make_job(i, "a"))
        gateway.submit(make_job(9, "b"))   # high priority, no deadline
        results = gateway.run_until_idle()
        assert len(results) == 5
        assert gateway.metrics.jobs_preempted == 0

    def test_slo_carrying_slots_are_never_victims(self):
        """Both tenants carry deadlines: even under pressure the victim
        picker refuses to trade one SLO for another."""
        gateway = ServingGateway(
            tenants=[TenantSpec("a", deadline_s=3600.0),
                     TenantSpec("b", priority=2)],
            devices=(V100,), max_width=2)
        late = make_job(9, "b")
        fired = []

        def submit_late(epochs, curve):
            if epochs == 1 and not fired:
                fired.append(gateway.submit(late, deadline_s=0.0))
            return False

        jobs = [make_job(i, "a", steps=6,
                         stop=submit_late if i == 0 else None)
                for i in range(2)]
        ids = [gateway.submit(job).job_id for job in jobs]
        results = gateway.run_until_idle()
        assert gateway.metrics.jobs_preempted == 0
        assert set(results) == set(ids) | {fired[0].job_id}


class TestSLOAccounting:
    def test_generous_deadlines_score_hits(self):
        gateway = ServingGateway(
            tenants=[TenantSpec("t", deadline_s=600.0)],
            devices=(V100,), max_width=4)
        for i in range(3):
            gateway.submit(make_job(i, "t"))
        gateway.run_until_idle()
        summary = gateway.metrics.tenant_summary()
        assert summary["t"]["slo_hits"] == 3
        assert summary["t"]["slo_misses"] == 0
        assert summary["t"]["slo_rate"] == 1.0

    def test_blown_deadline_scores_a_miss(self):
        gateway = ServingGateway(tenants=[TenantSpec("t")],
                                 devices=(V100,), max_width=4)
        gateway.submit(make_job(0, "t"), deadline_s=0.0)
        gateway.run_until_idle()
        summary = gateway.metrics.tenant_summary()
        assert summary["t"]["slo_misses"] == 1

    @pytest.mark.parametrize("jump, deadline_s, hit", [
        (0.0, 600.0, True),
        (100.0, 50.0, False),
    ])
    def test_manual_clock_scores_slo_in_gateway_coordinates(
            self, jump, deadline_s, hit):
        """Regression: a result is stamped on the gateway's clock, not on
        time.monotonic().  A manual clock starts at 0 and need not run at
        wall speed: one that jumps ``jump`` seconds at the job's first
        epoch boundary finishes the job at ``jump``, and its deadline is
        scored against that."""
        clock, advance = manual_clock()
        boundaries = []

        def jump_once(epochs, curve):
            if not boundaries:
                advance(jump)
            boundaries.append(epochs)
            return False

        gateway = ServingGateway(tenants=[TenantSpec("t")],
                                 devices=(V100,), max_width=4, clock=clock)
        ticket = gateway.submit(make_job(0, "t", stop=jump_once),
                                deadline_s=deadline_s)
        results = gateway.run_until_idle()
        assert boundaries
        assert results[ticket.job_id].finished_at == jump
        summary = gateway.metrics.tenant_summary()
        assert summary["t"]["slo_hits"] == int(hit)
        assert summary["t"]["slo_misses"] == int(not hit)

    def test_cancelled_deadline_job_scores_neither_hit_nor_miss(self):
        """Regression: a voluntarily withdrawn job is not a completion —
        cancelling after the deadline must not log an SLO miss."""
        gateway = ServingGateway(tenants=[TenantSpec("t")],
                                 devices=(V100,), max_width=4)
        victim = []

        def cancel_victim(epochs, curve):
            if epochs >= 2:
                gateway.fleet.cancel(victim[0])
            return False

        doomed = gateway.submit(make_job(0, "t", steps=6),
                                deadline_s=0.0)   # already blown
        victim.append(doomed.job_id)
        gateway.submit(make_job(1, "t", steps=6, stop=cancel_victim))
        gateway.run_until_idle()
        summary = gateway.metrics.tenant_summary()
        assert summary["t"]["slo_hits"] == 0
        assert summary["t"]["slo_misses"] == 0

    def test_slo_settles_once_across_repeated_drains(self):
        gateway = ServingGateway(
            tenants=[TenantSpec("t", deadline_s=600.0)],
            devices=(V100,), max_width=4)
        gateway.submit(make_job(0, "t"))
        gateway.run_until_idle()
        gateway.submit(make_job(1, "t"))
        gateway.run_until_idle()
        summary = gateway.metrics.tenant_summary()
        assert summary["t"]["slo_hits"] == 2


class TestCrossTenantPacking:
    def test_tenants_share_arrays_and_admission_profiles(self):
        queue = JobQueue()
        for i in range(4):
            queue.submit(make_job(i, tenant="a" if i % 2 else "b"))
        batch = queue.pop_pending()
        batcher = Batcher()

        cohorts, failures = batcher.form_cohorts(batch)
        assert not failures
        assert len(cohorts) == 1
        assert batcher.admission_profile(batch[0]) == \
            batcher.admission_profile(batch[1])


class TestTenantSpecValidation:
    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError, match="weight"):
            TenantSpec("t", weight=0.0)
        with pytest.raises(ValueError, match="rate"):
            TenantSpec("t", rate=0.0)
        with pytest.raises(ValueError, match="burst"):
            TenantSpec("t", burst=0)
        with pytest.raises(ValueError, match="quota_steps"):
            TenantSpec("t", quota_steps=-1)

    def test_unknown_tenant_autoregisters_best_effort(self):
        gateway = ServingGateway(devices=(V100,), max_width=4)
        ticket = gateway.submit(make_job(0, "walk-in"))
        assert ticket.admitted
        assert gateway.tenant("walk-in").weight == 1.0

    def test_settled_terminal_jobs_are_pruned_from_tracking(self):
        gateway = ServingGateway(tenants=[TenantSpec("t",
                                                     deadline_s=600.0)],
                                 devices=(V100,), max_width=4)
        for i in range(3):
            gateway.submit(make_job(i, "t"))
        gateway.run_until_idle()
        assert gateway._tracked == {}          # history does not accrete
        assert gateway.in_flight_steps("t") == 0

    def test_gateway_rejects_fleet_plus_fleet_kwargs(self):
        from repro.runtime import FleetScheduler
        fleet = FleetScheduler(devices=(V100,), max_width=2)
        with pytest.raises(ValueError, match="not both"):
            ServingGateway(fleet=fleet, max_width=4)
