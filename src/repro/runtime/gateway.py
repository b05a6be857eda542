"""Multi-tenant serving gateway: the fleet's front door.

Everything below this module treats the job stream as already admitted —
the queue accepts whatever is submitted, the batcher packs it, the placer
costs it, the fleet trains it.  A production platform serving heavy
traffic cannot: tenants burst, misbehave, and carry different SLOs, and
the shared fleet must stay fair *and* full.  The
:class:`ServingGateway` sits in front of :class:`~repro.runtime.fleet.
FleetScheduler` and closes that gap::

    tenant request
      -> rate limit        (token bucket per tenant; shed + retry-after)
      -> quota check       (in-flight fused-slot-steps per tenant)
      -> backpressure      (bounded queue; lowest-priority job shed first)
      -> fair admission    (deadline-at-risk > priority > weighted fair)
      -> placement         (SLO-slack-ordered, cost-model driven)
      -> preemption        (at-risk job boards; over-quota slots detach)
      -> per-tenant accounting  (admitted/shed/SLO/slot-seconds)

The gateway is also the fleet's *admission policy* (the duck-typed
``admission`` hook of :class:`FleetScheduler`): it supplies

* ``rank(sub)`` — the fair-dequeue order.  Deadline-at-risk jobs come
  first (earliest deadline leading), then higher priority classes, then
  tenants by weighted-fair virtual time: each admission advances the
  tenant's virtual clock by ``steps / weight``, so a tenant's share of
  dequeued work tracks its weight no matter how hard it bursts
  (start-time fair queueing, the classic packet-scheduling construction);
* ``now()`` — the gateway clock, feeding deadline-weighted placement
  (:meth:`FleetPlacer.place` sorts cohorts by SLO slack);
* ``at_risk(sub)`` — whether the cost model projects the job to miss its
  deadline even if placed immediately on the ideal device;
* ``preemption_victims(executor, need)`` — which live slots an at-risk
  job may take over: tenants consuming more fused-slot-steps than their
  weighted fair share, lowest priority first, never SLO-carrying slots.
  The fleet detaches victims with :meth:`ArrayExecutor.detach_slots` —
  their training state moves wholesale, so a preempted job resumes
  bit-exactly where it stopped (the elastic primitives of the re-fusion
  layer are what make preemption *safe*, not just possible).

Determinism: the gateway takes an injectable ``clock`` (default
``time.monotonic``).  Tests drive a manual clock through token-bucket
refill and SLO math; production uses the real one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .engine import ArrayExecutor, JobResult
from .fleet import FleetScheduler
from .metrics import Event
from .queue import JobState, StopReason, SubmittedJob, TrainingJob

__all__ = ["TenantSpec", "AdmissionTicket", "ShedReason", "ServingGateway"]


class ShedReason:
    """Why the gateway refused a request.  A job admitted earlier but
    *displaced* later (shed from the bounded queue to make room for a
    strictly higher priority) reads ``JobState.SHED`` from
    ``queue.state(job_id)`` — its ticket was already returned."""

    RATE_LIMITED = "rate_limited"    # token bucket empty; retry after refill
    OVER_QUOTA = "over_quota"        # tenant's in-flight step quota exhausted
    BACKPRESSURE = "backpressure"    # bounded queue full, priority too low


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's serving contract.

    Parameters
    ----------
    name:
        Tenant id; jobs bill to it via :attr:`TrainingJob.tenant`.
    weight:
        Weighted-fair share.  A tenant with weight 2 is served twice the
        fused-slot-steps of a weight-1 tenant when both have backlog, and
        its fair-share line (the preemption threshold) sits twice as high.
    priority:
        Admission priority class (higher = more important).  Backpressure
        sheds the lowest class first; the fair dequeue serves higher
        classes strictly before lower ones.
    rate:
        Token-bucket refill rate in requests/second (``inf`` = unlimited).
    burst:
        Token-bucket capacity: how many requests may arrive back-to-back
        before the rate limit bites.
    quota_steps:
        Cap on the tenant's *in-flight* training steps (queued + running;
        a job counts its full budget until it reaches a terminal state).
        0 means uncapped.  This is the knob that keeps one tenant from
        parking the whole fleet's width behind its backlog.
    deadline_s:
        Default SLO deadline, in seconds *relative to admission*, stamped
        on every job the tenant submits without its own deadline.  ``None``
        means best effort.
    """

    name: str
    weight: float = 1.0
    priority: int = 0
    rate: float = float("inf")
    burst: int = 8
    quota_steps: int = 0
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("weight must be > 0")
        if self.rate <= 0:
            raise ValueError("rate must be > 0 (use inf for unlimited)")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.quota_steps < 0:
            raise ValueError("quota_steps must be >= 0")


@dataclass
class AdmissionTicket:
    """What a tenant gets back for one submission."""

    tenant: str
    admitted: bool
    job_id: Optional[int] = None     # set iff admitted
    reason: str = ""                 # ShedReason when shed
    retry_after: float = 0.0         # seconds until a retry could succeed
    deadline: Optional[float] = None  # absolute SLO deadline, gateway clock


def _priority(job: TrainingJob) -> int:
    """Effective priority class: jobs that bypassed the gateway (direct
    ``fleet.submit`` while a policy is installed) carry ``None`` and read
    as the lowest class."""
    return job.priority if job.priority is not None else 0


class _TokenBucket:
    """Standard token bucket; time is injected, never read."""

    def __init__(self, rate: float, burst: int):
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last = None  # type: Optional[float]

    def acquire(self, now: float) -> Tuple[bool, float]:
        """Take one token; returns (granted, retry_after_seconds)."""
        if self.rate == float("inf"):
            return True, 0.0
        if self.last is not None:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.last) * self.rate)
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


@dataclass
class _Tracked:
    """Gateway-side bookkeeping for one admitted job."""

    sub: SubmittedJob
    tenant: str
    steps: int
    vtime: float                     # fair-queueing virtual finish tag
    deadline: Optional[float]        # absolute, gateway clock
    projected: float                 # cost-model solo training seconds
    #: time.monotonic() minus the gateway clock at admission: translates
    #: JobResult.finished_at (always monotonic) into gateway-clock
    #: coordinates for SLO settlement, so an injected manual clock still
    #: scores hits/misses correctly (offset ~0 under the default clock)
    clock_offset: float = 0.0
    slo_recorded: bool = False
    #: re-admitted by replay_unsettled: never counted on the tenant
    #: ledger's ``admitted``, so displacing it must not take one back
    replayed: bool = False


class ServingGateway:
    """SLO-aware multi-tenant admission in front of a fleet scheduler.

    Wraps (or builds) a :class:`FleetScheduler` and installs itself as its
    admission policy.  Tenants are declared up front via ``tenants`` or
    lazily via :meth:`register`; unknown tenants get a default
    :class:`TenantSpec` (weight 1, best effort, unlimited rate) so the
    gateway is safe to drop in front of an existing job stream.

    ``max_pending`` bounds the shared intake queue: beyond it the gateway
    sheds — the newcomer when nothing cheaper is queued, otherwise the
    lowest-priority queued job (which frees its quota and is marked
    ``SHED``).  Shed responses carry a ``retry_after`` hint, the serving
    analogue of HTTP 429/503.
    """

    def __init__(self, tenants: Sequence[TenantSpec] = (),
                 fleet: Optional[FleetScheduler] = None,
                 max_pending: int = 64,
                 clock: Callable[[], float] = time.monotonic,
                 **fleet_kwargs):
        if fleet is not None and fleet_kwargs:
            raise ValueError("pass fleet kwargs or a prebuilt fleet, "
                             "not both")
        self.fleet = fleet if fleet is not None \
            else FleetScheduler(**fleet_kwargs)
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = max_pending
        # a simulated fleet carries the authoritative clock: adopt it
        # (unless the caller injected their own), so SLO deadlines, token
        # buckets and placement slack all read virtual time
        if clock is time.monotonic \
                and getattr(self.fleet, "execution", "real") == "sim" \
                and self.fleet.clock is not None:
            clock = self.fleet.clock
        self.clock = clock
        self.queue = self.fleet.queue
        self.metrics = self.fleet.metrics
        self.placer = self.fleet.placer
        #: the fleet's RecoveryManager (None without durability): the
        #: gateway's events reach it through ``fleet.emit`` like the
        #: fleet's own; replay_unsettled re-admits from it on restart
        self.recovery = self.fleet.recovery
        #: guards the admission state below: submissions may arrive from
        #: any thread (including, via job callbacks, the one inside
        #: ``run_cycle``),
        #: and token buckets / virtual times / the tracking table are all
        #: read-modify-write.  Lock order is gateway -> queue (submit
        #: holds this lock while entering the queue); rank()/at_risk()
        #: deliberately take no lock — they run under the *queue* lock
        #: from pop_fair/take_if and only do atomic dict reads — so the
        #: two locks are never acquired in opposite orders.
        self._lock = threading.RLock()
        self._tenants: Dict[str, TenantSpec] = {}
        self._buckets: Dict[str, _TokenBucket] = {}
        self._vtime: Dict[str, float] = {}
        self._tracked: Dict[int, _Tracked] = {}
        for spec in tenants:
            self.register(spec)
        self.fleet.admission = self

    # ------------------------------------------------------------------ #
    # tenants
    # ------------------------------------------------------------------ #
    def register(self, spec: TenantSpec) -> TenantSpec:
        """Declare (or replace) a tenant's serving contract."""
        with self._lock:
            self._tenants[spec.name] = spec
            self._buckets[spec.name] = _TokenBucket(spec.rate, spec.burst)
            self._vtime.setdefault(spec.name, 0.0)
            return spec

    def tenant(self, name: str) -> TenantSpec:
        """The tenant's spec, auto-registering a best-effort default."""
        with self._lock:
            if name not in self._tenants:
                self.register(TenantSpec(name=name))
            return self._tenants[name]

    def in_flight_steps(self, tenant: str) -> int:
        """Training steps the tenant currently holds in non-terminal
        states — the quantity ``TenantSpec.quota_steps`` caps."""
        live = (JobState.QUEUED, JobState.SCHEDULED, JobState.RUNNING)
        with self._lock:
            tracked = list(self._tracked.values())
        return sum(t.steps for t in tracked
                   if t.tenant == tenant and t.sub.state in live)

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def submit(self, job: TrainingJob, tenant: Optional[str] = None,
               deadline_s: Optional[float] = None) -> AdmissionTicket:
        """Admit one job through rate limit, quota and backpressure.

        ``tenant`` overrides ``job.tenant``; ``deadline_s`` is a *relative*
        SLO deadline (seconds from now), defaulting to the tenant's
        contract.  Returns an :class:`AdmissionTicket` either way — a shed
        request never raises.
        """
        with self._lock:
            return self._admit(job, tenant, deadline_s)

    def _admit(self, job: TrainingJob, tenant: Optional[str],
               deadline_s: Optional[float]) -> AdmissionTicket:
        name = tenant if tenant is not None else job.tenant
        spec = self.tenant(name)
        job.tenant = spec.name
        if job.priority is None:
            job.priority = spec.priority
        now = self.clock()

        granted, retry_after = self._buckets[spec.name].acquire(now)
        if not granted:
            return self._refuse(spec, ShedReason.RATE_LIMITED, retry_after)

        if spec.quota_steps and \
                self.in_flight_steps(spec.name) + job.steps > \
                spec.quota_steps:
            # the quota frees as in-flight work drains; the cost model's
            # solo projection is the honest "try again once one job's
            # worth of your backlog has retired" hint
            return self._refuse(spec, ShedReason.OVER_QUOTA,
                                self._projected_solo_seconds(job))

        if self.queue.pending_count >= self.max_pending and \
                not self._displace_for(job):
            return self._refuse(spec, ShedReason.BACKPRESSURE,
                                self._projected_solo_seconds(job))

        relative = deadline_s if deadline_s is not None else spec.deadline_s
        if job.deadline_s is None and relative is not None:
            job.deadline_s = now + relative

        # one "accept" event: the fleet's submission and the tenant
        # ledger's admission are the same transition
        job_id = self.queue.submit(job)
        self.fleet.emit(Event("accept", (job_id,), tenant=spec.name,
                              data=job))
        return self._track(job_id, spec, now)

    def _refuse(self, spec: TenantSpec, reason: str,
                retry_after: float) -> AdmissionTicket:
        self.fleet.emit(Event("refuse", tenant=spec.name, data=reason))
        return AdmissionTicket(tenant=spec.name, admitted=False,
                               reason=reason, retry_after=retry_after)

    def _track(self, job_id: int, spec: TenantSpec, now: float,
               replayed: bool = False) -> AdmissionTicket:
        """Bill an admitted job's weighted-fair virtual time and start
        tracking it (quota, SLO); returns its ticket."""
        sub = self.queue.get(job_id)
        job = sub.job
        self._vtime[spec.name] = \
            self._vtime.get(spec.name, 0.0) + job.steps / spec.weight
        self._tracked[job_id] = _Tracked(
            sub=sub, tenant=spec.name, steps=job.steps,
            vtime=self._vtime[spec.name], deadline=job.deadline_s,
            projected=self._projected_solo_seconds(job),
            clock_offset=time.monotonic() - now, replayed=replayed)
        return AdmissionTicket(tenant=spec.name, admitted=True,
                               job_id=job_id, deadline=job.deadline_s)

    def submit_all(self, jobs: Sequence[TrainingJob],
                   tenant: Optional[str] = None) -> List[AdmissionTicket]:
        """Admit a batch of jobs; one ticket per job, submission order."""
        return [self.submit(job, tenant=tenant) for job in jobs]

    def _projected_solo_seconds(self, job: TrainingJob) -> float:
        """Cost-model training time of the job alone on its best device."""
        return self.placer.projected_seconds(job.workload, 1, job.steps)

    def _displace_for(self, job: TrainingJob) -> bool:
        """Backpressure relief: shed the cheapest queued job for ``job``.

        The victim is the lowest-priority, most-recently-queued job — and
        only a *strictly* lower priority than the newcomer's qualifies, so
        equal-priority tenants cannot churn each other's queues.
        Deadline-carrying jobs are never victims, same rule as
        :meth:`preemption_victims`: an admitted SLO must be scored hit or
        miss, never silently dropped.  Returns whether room was made.
        """
        pending = [sub for sub in self.queue.pending_jobs()
                   if sub.job.deadline_s is None]
        if not pending:
            return False
        victim = min(pending,
                     key=lambda sub: (_priority(sub.job), -sub.job_id))
        if _priority(victim.job) >= _priority(job):
            return False
        if not self.queue.shed(victim.job_id):
            return False
        track = self._tracked.get(victim.job_id)
        self.fleet.emit(Event("shed", (victim.job_id,),
                              tenant=victim.job.tenant,
                              data=track is not None and not track.replayed))
        return True

    # ------------------------------------------------------------------ #
    # the fleet's admission-policy protocol
    # ------------------------------------------------------------------ #
    def now(self) -> float:
        """The gateway clock (the fleet reads it for deadline-weighted
        placement; injectable for deterministic tests)."""
        return self.clock()

    def at_risk(self, sub: SubmittedJob) -> bool:
        """Does the cost model project this job to miss its deadline even
        if it were placed immediately on its ideal device?"""
        deadline = sub.job.deadline_s
        if deadline is None:
            return False
        track = self._tracked.get(sub.job_id)
        projected = track.projected if track is not None \
            else self._projected_solo_seconds(sub.job)
        return self.clock() + projected > deadline

    def rank(self, sub: SubmittedJob) -> Tuple:
        """Fair-dequeue key (smallest first): deadline-at-risk jobs by
        earliest deadline, then priority classes (higher first), then
        weighted-fair virtual time, then submission order.

        Jobs that bypassed the gateway (direct ``fleet.submit``) carry no
        virtual time; they sort *after* every admitted job of their class
        (``inf``, FIFO among themselves) — weight-paying tenants must
        never queue behind free riders.
        """
        job = sub.job
        track = self._tracked.get(sub.job_id)
        vtime = track.vtime if track is not None else float("inf")
        if self.at_risk(sub):
            return (0, job.deadline_s, -_priority(job), vtime, sub.job_id)
        return (1, 0.0, -_priority(job), vtime, sub.job_id)

    def fair_share(self, tenant: str) -> float:
        """The tenant's weighted fair share of all consumed slot-steps."""
        summary = self.metrics.tenant_summary()
        total_usage = sum(s["slot_steps"] for s in summary.values())
        with self._lock:
            weight = self.tenant(tenant).weight
            total_weight = sum(spec.weight
                               for spec in self._tenants.values())
        if total_weight <= 0:
            return 0.0
        return weight / total_weight * total_usage

    def preemption_victims(self, executor: ArrayExecutor,
                           need: int) -> List[int]:
        """Up to ``need`` slot indices an at-risk job may take over.

        Eligible victims belong to tenants consuming more fused-slot-steps
        than their weighted fair share, hold no SLO deadline themselves,
        and leave lowest-priority-first — so preemption is the enforcement
        arm of exactly the fairness the dequeue order promises, never a
        way for one SLO tenant to cannibalize another.
        """
        if need <= 0:
            return []
        # one snapshot for the whole decision: tenant_summary() copies the
        # counters under the metrics lock, and this runs at every epoch
        # boundary of every executor
        summary = self.metrics.tenant_summary()
        total_usage = sum(s["slot_steps"] for s in summary.values())
        with self._lock:
            weights = {name: spec.weight
                       for name, spec in self._tenants.items()}
        slot_tenants = {slot.job.tenant for slot in executor.slots}
        for name in slot_tenants:
            # unregistered tenants (direct submissions) count at the
            # default weight in the denominator too, or their share would
            # be computed against a total they are not part of
            weights.setdefault(name, 1.0)
        total_weight = sum(weights.values())
        overuse: Dict[str, float] = {}
        for name in slot_tenants:
            used = summary.get(name, {}).get("slot_steps", 0.0)
            share = (weights[name] / total_weight * total_usage
                     if total_weight > 0 else 0.0)
            overuse[name] = used - share
        candidates = []
        for index, slot in enumerate(executor.slots):
            job = slot.job
            if job.deadline_s is not None:
                continue             # never preempt SLO-carrying work
            if overuse.get(job.tenant, 0.0) <= 0.0:
                continue             # tenant is within its fair share
            candidates.append((_priority(job), -overuse[job.tenant],
                               index))
        candidates.sort()
        victims = [index for _, _, index in candidates[:need]]
        # detach_slots requires a surviving slot; trim rather than raise
        if len(victims) >= executor.live_width:
            victims = victims[:executor.live_width - 1]
        return victims

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def run_cycle(self, max_jobs: int = 0) -> List[JobResult]:
        """One fleet scheduling cycle with SLO settlement.

        The building block of trace replay (:class:`repro.runtime.sim.
        TraceReplayer`): arrivals interleave with cycles, so the gateway
        must settle and prune incrementally rather than only at idle.
        """
        results = self.fleet.run_cycle(max_jobs)
        for result in results:
            self._settle_slo(result)
        self._prune_tracked()
        return results

    def run_until_idle(self) -> Dict[int, JobResult]:
        """Drain the admitted backlog through the fleet, then settle SLOs.

        Same contract as :meth:`FleetScheduler.run_until_idle`, plus the
        gateway's ledger: every deadline-carrying completion is scored
        hit/miss against the gateway clock into the per-tenant counters.
        """
        results = self.fleet.run_until_idle()
        for result in results.values():
            self._settle_slo(result)
        self._prune_tracked()
        return results

    def replay_unsettled(self, jobs_by_name: Dict[str, TrainingJob]
                         ) -> List[AdmissionTicket]:
        """Re-admit every journaled-but-unsettled admission (restart path).

        The serving analogue of :meth:`RecoveryManager.rebuild_fleet`:
        after a crash, a fresh gateway (same tenants, a fleet wired to the
        same store/recovery manager) calls this with the restarting
        application's job definitions keyed by name.  Each unsettled
        admission is re-queued with its journaled serving contract —
        tenant, priority class and *absolute* SLO deadline — intact, its
        latest durable checkpoint attached as a resume payload, and its
        weighted-fair virtual time re-billed so fairness holds in the new
        session.  Replays bypass the admission funnel (rate limit, quota,
        backpressure): the work was already admitted once and the tenant
        must not pay for it twice.  Jobs whose name has no registered
        builder are skipped (journaled as ``unrecovered``).
        """
        if self.recovery is None:
            raise RuntimeError("replay_unsettled needs a RecoveryManager "
                               "(pass recovery=... to the fleet)")
        tickets: List[AdmissionTicket] = []
        with self._lock:
            replayed = self.recovery.replay_unsettled_jobs(jobs_by_name,
                                                           self.fleet)
            for job, job_id, resumed in replayed:
                # re-bill the gateway-side bookkeeping the shared replay
                # loop cannot know about: weighted-fair virtual time and
                # the SLO tracking table
                spec = self.tenant(job.tenant)
                self.fleet.emit(Event("replay", (job_id,), tenant=spec.name,
                                      data=resumed))
                tickets.append(self._track(job_id, spec, self.clock(),
                                           replayed=True))
        return tickets

    def _prune_tracked(self) -> None:
        """Drop bookkeeping for settled terminal jobs, so a long-lived
        gateway's quota scans stay proportional to live work, not to the
        full submission history (and finished jobs' data closures are
        released)."""
        terminal = (JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED,
                    JobState.SHED)
        with self._lock:
            self._tracked = {
                job_id: track for job_id, track in self._tracked.items()
                if track.sub.state not in terminal
                or (track.deadline is not None and not track.slo_recorded
                    and track.sub.state == JobState.COMPLETED)}

    def _settle_slo(self, result: JobResult) -> None:
        if result.stop_reason == StopReason.CANCELLED:
            return          # a withdrawn job is no completion: its SLO is
                            # neither met nor missed
        with self._lock:
            track = self._tracked.get(result.job_id)
        if track is None or track.deadline is None or track.slo_recorded:
            return
        track.slo_recorded = True
        # finished_at is monotonic; shift it into gateway-clock
        # coordinates before comparing (a no-op under the default clock).
        # A simulated result is already in virtual-clock coordinates —
        # the gateway clock itself — so no translation applies.
        finished = result.finished_at if result.sim \
            else result.finished_at - track.clock_offset
        self.fleet.emit(Event("slo", (result.job_id,), tenant=track.tenant,
                              data=finished <= track.deadline))

    def report(self) -> Tuple[List[Tuple], Tuple[str, ...]]:
        """Per-tenant admission/SLO/consumption rows (printable table)."""
        return self.metrics.tenant_report()

    def placement_report(self) -> Dict[str, float]:
        """The placement optimizer's operator surface: the active policy
        name plus the solver aggregates — solves run, fallback share,
        summed solver latency, and the latest objective/makespan ledger
        entry.  All zeros under the greedy
        baseline (it never solves), so dashboards can scrape this
        unconditionally; see ``docs/placement.md``."""
        summary: Dict[str, float] = dict(self.metrics.placement_summary())
        summary["policy"] = getattr(self.placer, "policy_name", "custom")
        return summary
