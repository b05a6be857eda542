"""Job intake for the dynamic training-array runtime.

A :class:`TrainingJob` is the runtime's unit of work: one would-be serial
training job — a model builder, a hyper-parameter configuration, a private
data stream and a step budget.  The :class:`JobQueue` accepts a live stream
of such jobs and hands the engine batches of pending work.

The queue is *async-friendly* rather than threaded: every operation is
non-blocking and guarded by a lock, so producers (request handlers, an HFHT
tuner proposing trials, a cluster-trace replayer) can submit from any thread
or event loop while a single engine drains it.  Job lifecycle::

    QUEUED -> SCHEDULED -> RUNNING -> COMPLETED | FAILED | CANCELLED

(:meth:`JobQueue.cancel` removes a queued job immediately; a running job
is evicted from its elastic array at the next epoch boundary, keeping its
partial checkpoint.)
"""

from __future__ import annotations

import numbers
import operator
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..hfta import losses as fused_losses
from ..hwsim.workloads import WORKLOADS
from ..nn.modules.module import Module

if TYPE_CHECKING:
    from ..hfht.space import SearchSpace, Value

__all__ = ["JobState", "StopReason", "TrainingJob", "SubmittedJob",
           "JobQueue", "ResumeState"]

#: ``TrainingJob.loss`` key -> the fused criterion an array trains with
CRITERIA = {
    "cross_entropy": fused_losses.FusedCrossEntropyLoss,
    "nll": fused_losses.FusedNLLLoss,
    "mse": fused_losses.FusedMSELoss,
}


class JobState:
    """Lifecycle states of a submitted job."""

    QUEUED = "queued"          # accepted, waiting to be batched
    SCHEDULED = "scheduled"    # handed to the batcher/policy
    RUNNING = "running"        # training inside a fused array
    COMPLETED = "completed"    # checkpoint exported, result available
    FAILED = "failed"          # the array (or validation) raised
    CANCELLED = "cancelled"    # caller cancelled; partial checkpoint if any
    SHED = "shed"              # gateway backpressure dropped it pre-training

    ALL = (QUEUED, SCHEDULED, RUNNING, COMPLETED, FAILED, CANCELLED, SHED)


class StopReason:
    """Why a slot left its array."""

    BUDGET = "budget"          # trained its full step budget
    CONVERGED = "converged"    # hit TrainingJob.target_loss
    EARLY_STOP = "early_stop"  # TrainingJob.stop callback said so
    CANCELLED = "cancelled"    # caller cancelled via JobQueue.cancel


#: ``build_model(num_models, generator)`` — returns an unfused model when
#: ``num_models`` is ``None`` (deterministically initialized from
#: ``generator``) and a fused array of ``num_models`` models otherwise
#: (its weights are immediately overwritten by ``load_from_unfused``).
ModelBuilder = Callable[[Optional[int], Optional[np.random.Generator]], Module]

#: ``data(step)`` — the job's private data stream: a ``(inputs, targets)``
#: numpy pair for training step ``step``.
DataStream = Callable[[int], Tuple[np.ndarray, np.ndarray]]


@dataclass
class TrainingJob:
    """One submitted training job (the runtime's unit of work).

    Parameters
    ----------
    name:
        Scheduler-visible job name: a label for reports, events and
        checkpoints.  It plays no part in fusibility — the batcher groups
        jobs by what their builder builds, never by what they are
        called.
    build_model:
        See :data:`ModelBuilder`.  The fused model it returns must expose
        ``fuse_inputs`` (the :class:`repro.hfta.ops.factory.OpsLibrary`
        models in :mod:`repro.models` all do).
    config:
        Hyper-parameters.  Fusible keys (``lr``, ``adam_beta1``, ...) may
        differ between jobs of one array; infusible keys (``batch_size``,
        ``optimizer``, anything declared infusible by ``space``) force
        separate arrays.
    data:
        See :data:`DataStream`.  Jobs fused into one array are stepped in
        lockstep, each on its own stream.
    steps:
        Training-step budget.  Arrays are gang-scheduled, so the batcher
        only fuses jobs with equal budgets (unlike HFHT's epoch-budget
        padding, the runtime returns every checkpoint bit-equivalent to its
        serial counterpart).  The *elastic* executor may retire a job
        earlier (stop signals below) or admit it into a running array whose
        other slots have different remaining budgets — per-slot progress
        tracking keeps every checkpoint serial-equivalent either way.
    epoch_steps:
        Steps per *epoch*, the granularity at which the elastic executor
        evaluates stop signals and evicts finished slots.  Epoch cadence is
        gang-scheduled, so the batcher only fuses jobs with equal
        ``epoch_steps``.
    target_loss:
        Convergence stop: once the job's training loss reaches this value
        at an epoch boundary, the elastic executor evicts the job with its
        checkpoint as of that step (``None`` disables).  A real number,
        never a ``bool``.
    stop:
        Early-stop signal, called at every epoch boundary as
        ``stop(epochs_done, loss_curve)`` with the job's own per-step loss
        curve so far; returning truthy evicts the job.  This is where HFHT
        early-stopping decisions plug in (see
        :class:`repro.hfht.MedianStopper` /
        :class:`repro.hfht.SuccessiveHalvingStopper`).
    seed:
        Seed of the job's deterministic weight initialization: an integer,
        never a ``bool``.
    loss:
        Criterion key: ``cross_entropy``, ``nll`` or ``mse`` (the keys of
        :data:`CRITERIA`).
    space:
        Optional :class:`repro.hfht.SearchSpace` declaring which config
        keys are infusible; without it the batcher falls back to the
        runtime's default infusible key set.
    user:
        Submitting user (accounting only; the runtime packs across users).
    tenant:
        Serving-gateway tenant the job bills to.  The gateway
        (:mod:`repro.runtime.gateway`) enforces per-tenant quotas, rate
        limits and weighted-fair admission on this key; the batcher packs
        across tenants, so jobs of different tenants share fused arrays.
    priority:
        Admission priority class (higher = more important; ``None`` means
        "inherit the tenant's class" at the gateway, and class 0
        elsewhere — explicitly submitting ``priority=0`` under a
        high-priority tenant deliberately deprioritizes the job).  Under
        backpressure the gateway sheds the lowest-priority queued work
        first, and the fair dequeue serves higher classes strictly before
        lower ones.
    deadline_s:
        SLO deadline as an *absolute* clock reading (same clock as the
        gateway's, default ``time.monotonic``).  ``None`` means best
        effort.  A job whose projected completion (placement cost model)
        overruns its deadline is *at risk*: it jumps the fair queue, its
        cohort is placed first, and the fleet may preempt over-quota
        tenants' slots to admit it.
    workload:
        Optional :mod:`repro.hwsim` workload name (``pointnet_cls``,
        ``dcgan``, ...) describing what this job looks like on real
        hardware.  The fleet placer (:mod:`repro.runtime.placement`) feeds
        it to the analytical cost model to pick the device and fusion
        width; jobs with different hints never share an array.  Ignored by
        the single-device engine.
    sim_loss:
        Optional synthetic loss curve for the simulation backend
        (:mod:`repro.runtime.sim`): ``sim_loss(step) -> float`` replaces
        real training losses when the job runs under ``execution="sim"``,
        so convergence stops (``target_loss``, ``stop``) trigger on a
        curve the test controls.  Defaults to
        :func:`repro.runtime.sim.default_sim_loss`; ignored entirely in
        real execution.
    """

    name: str
    build_model: ModelBuilder
    config: Dict[str, Value] = field(default_factory=dict)
    data: Optional[DataStream] = None
    steps: int = 8
    seed: int = 0
    loss: str = "cross_entropy"
    space: Optional[SearchSpace] = None
    user: str = "default"
    tenant: str = "default"
    priority: Optional[int] = None
    deadline_s: Optional[float] = None
    workload: Optional[str] = None
    epoch_steps: int = 1
    target_loss: Optional[float] = None
    stop: Optional[Callable[[int, List[float]], bool]] = None
    sim_loss: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        for name in ("name", "user", "tenant"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise TypeError(f"TrainingJob.{name} must be a str, got "
                                f"{value!r}")
        if not isinstance(self.config, Mapping):
            raise TypeError(f"TrainingJob.config must be a mapping, got "
                            f"{self.config!r}")
        for name in ("steps", "epoch_steps", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise TypeError(f"TrainingJob.{name} must be an integer, "
                                f"got {value!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.epoch_steps < 1:
            raise ValueError("epoch_steps must be >= 1")
        if self.data is None:
            raise ValueError(f"job '{self.name}' has no data stream")
        for name in ("build_model", "data", "stop", "sim_loss"):
            value = getattr(self, name)
            optional = name in ("stop", "sim_loss")
            if not (callable(value) or optional and value is None):
                raise TypeError(
                    f"TrainingJob.{name} must be callable"
                    f"{' or None' if optional else ''}, got {value!r}")
        if self.priority is not None and not _is_integer(self.priority):
            raise TypeError(f"TrainingJob.priority must be an integer or "
                            f"None, got {self.priority!r}")
        for name in ("deadline_s", "target_loss"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or
                                      not isinstance(value, numbers.Real)):
                raise TypeError(f"TrainingJob.{name} must be a real number "
                                f"or None, got {value!r}")
        if self.loss not in CRITERIA:
            raise ValueError(f"TrainingJob.loss {self.loss!r} is not a "
                             f"criterion; known: {sorted(CRITERIA)}")
        if self.workload is not None and self.workload not in WORKLOADS:
            raise ValueError(f"TrainingJob.workload {self.workload!r} is not "
                             f"a repro.hwsim workload; known: "
                             f"{sorted(WORKLOADS)}")


def _is_integer(value) -> bool:
    """An ``int`` or a numpy integer, never a ``bool``, float or string."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


@dataclass
class ResumeState:
    """Durable training state a job resumes from (crash recovery).

    Produced by the checkpoint layer (:mod:`repro.runtime.checkpoint`)
    from a persisted per-slot manifest and attached to a
    :class:`SubmittedJob` before it is (re)queued.  The executor applies
    it when the job boards a fused array: the template model is seeded
    from ``model_state`` instead of fresh initialization, the slot's
    per-model optimizer state is injected via
    :func:`repro.hfta.optim.elastic.load_slot_state`, and the slot's
    progress counter starts at ``progress`` — so the job's private data
    stream continues at the exact global step index where the checkpoint
    was taken, and the final checkpoint stays serial-equivalent.

    The payload is deliberately *array-shape agnostic*: ``model_state``
    is the job's own unfused state dict and ``optimizer_state`` its own
    per-slot slice, so a job checkpointed in one fused array (width 6,
    slot 4) can resume in a completely different one (width 2, slot 0).
    """

    progress: int                             # steps already trained
    loss_curve: List[float] = field(default_factory=list)
    #: unfused ``Module.state_dict()`` of the job's model at ``progress``
    model_state: Dict[str, np.ndarray] = field(default_factory=dict)
    #: per-slot optimizer state (see
    #: :func:`repro.hfta.optim.elastic.export_slot_state`)
    optimizer_state: Dict[int, Dict[str, np.ndarray]] = \
        field(default_factory=dict)


@dataclass
class SubmittedJob:
    """A job inside the queue: the job plus its runtime bookkeeping."""

    job_id: int
    job: TrainingJob
    state: str = JobState.QUEUED
    result: Optional[Any] = None   # JobResult once COMPLETED
    error: Optional[str] = None    # message once FAILED
    #: set by the engine when the job's fused array failed: the job is
    #: retried alone (the batcher keeps solo jobs in singleton cohorts), so
    #: one bad cohort-mate cannot take healthy jobs down with it
    solo: bool = False
    #: set by :meth:`JobQueue.cancel` while the job is scheduled/running;
    #: the elastic executor evicts the slot at the next epoch boundary
    cancel_requested: bool = False
    #: memoized :meth:`repro.runtime.batcher.Batcher.admission_profile`
    #: (immutable per job; computed at most once even though the freed-width
    #: admission predicate runs for every pending job at epoch boundaries)
    profile_cache: Optional[Tuple] = None
    #: memoized :meth:`repro.runtime.batcher.Batcher.build_template`: the
    #: job's seeded unfused model, built where a real array first touches
    #: tensors (never under ``execution="sim"``); it seeds the job's slot
    #: and receives every checkpoint exported from it
    template: Optional[Module] = None
    #: durable checkpoint to resume from (crash recovery / quarantine
    #: retry): the executor seeds the job's template model, optimizer
    #: slice and progress counter from it instead of starting at step 0
    resume: Optional[ResumeState] = None


class JobQueue:
    """Thread-safe, non-blocking intake queue for training jobs."""

    def __init__(self):
        self._lock = threading.Lock()
        self._next_id = 0
        self._jobs: "Dict[int, SubmittedJob]" = {}
        self._pending: List[int] = []
        #: results settled since the last take_settled(), in that order
        self._settled: List[Any] = []

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #
    def submit(self, job: TrainingJob) -> int:
        """Accept a job; returns its id."""
        with self._lock:
            job_id = self._next_id
            self._next_id += 1
            self._jobs[job_id] = SubmittedJob(job_id=job_id, job=job)
            self._pending.append(job_id)
            return job_id

    def reserve_ids(self, first: int) -> None:
        """Never hand out a job id below ``first``.

        A queue wired to a write-ahead log that an earlier process already
        wrote to must not reuse that process's ids: they key the WAL's
        records and the checkpoint store's manifests (the fleet calls this
        with :meth:`RecoveryManager.next_job_id`).
        """
        with self._lock:
            self._next_id = max(self._next_id, int(first))

    # ------------------------------------------------------------------ #
    # engine side
    # ------------------------------------------------------------------ #
    def pop_pending(self, max_jobs: int = 0) -> List[SubmittedJob]:
        """Dequeue up to ``max_jobs`` pending jobs (all when 0) as SCHEDULED."""
        with self._lock:
            count = len(self._pending) if max_jobs <= 0 else max_jobs
            taken, self._pending = self._pending[:count], self._pending[count:]
            batch = [self._jobs[i] for i in taken]
            for sub in batch:
                sub.state = JobState.SCHEDULED
            return batch

    def pop_fair(self, max_jobs: int = 0,
                 key: Optional[Callable[[SubmittedJob], Tuple]] = None
                 ) -> List[SubmittedJob]:
        """Fair dequeue: like :meth:`pop_pending`, but the jobs taken (and
        the order they are taken in) follow ``key`` — smallest first,
        submission order breaking ties.  This is the serving gateway's
        admission hook: its key ranks deadline-at-risk jobs first, then
        priority classes, then tenants by weighted-fair virtual time.
        Falls back to plain FIFO when ``key`` is ``None``.
        """
        if key is None:
            return self.pop_pending(max_jobs)
        with self._lock:
            ranked = sorted(self._pending,
                            key=lambda job_id: key(self._jobs[job_id]))
            count = len(ranked) if max_jobs <= 0 else max_jobs
            taken, left = ranked[:count], set(ranked[count:])
            self._pending = [i for i in self._pending if i in left]
            batch = [self._jobs[i] for i in taken]
            for sub in batch:
                sub.state = JobState.SCHEDULED
            return batch

    def take_if(self, predicate: Callable[[SubmittedJob], bool],
                max_jobs: int = 0,
                key: Optional[Callable[[SubmittedJob], Tuple]] = None
                ) -> List[SubmittedJob]:
        """Dequeue up to ``max_jobs`` pending jobs satisfying ``predicate``.

        Non-matching jobs keep their queue positions.  This is the elastic
        runtime's *freed-width admission* path: when an executor evicts
        early-stopped slots, it pulls compatible pending jobs straight into
        the running array instead of waiting for the next scheduling cycle.
        ``key`` ranks the candidates (smallest first) before the width
        budget applies — the gateway uses it so deadline-at-risk jobs board
        freed width before best-effort ones.
        """
        with self._lock:
            order = self._pending
            if key is not None:
                order = sorted(order,
                               key=lambda job_id: key(self._jobs[job_id]))
            taken: List[SubmittedJob] = []
            for job_id in order:
                sub = self._jobs[job_id]
                if (max_jobs <= 0 or len(taken) < max_jobs) and predicate(sub):
                    sub.state = JobState.SCHEDULED
                    taken.append(sub)
            taken_ids = {sub.job_id for sub in taken}
            self._pending = [i for i in self._pending if i not in taken_ids]
            return taken

    def pending_jobs(self) -> List[SubmittedJob]:
        """Snapshot of the queued (not yet scheduled) jobs, queue order."""
        with self._lock:
            return [self._jobs[i] for i in self._pending]

    def shed(self, job_id: int) -> bool:
        """Drop a still-queued job under backpressure (terminal SHED state).

        Only queued jobs can be shed — once training starts the job owns
        fused width and leaves through eviction, not load shedding.
        Returns whether the job was actually shed.
        """
        with self._lock:
            sub = self._jobs.get(job_id)
            if sub is None or sub.state != JobState.QUEUED:
                return False
            self._pending.remove(job_id)
            sub.state = JobState.SHED
            return True

    def requeue(self, submitted: SubmittedJob) -> None:
        """Put a scheduled-but-untrained job back at the front of the queue."""
        with self._lock:
            submitted.state = JobState.QUEUED
            self._pending.insert(0, submitted.job_id)

    def cancel(self, job_id: int) -> bool:
        """Cancel a job: immediately when still queued, else at the next
        epoch boundary of the array training it (the executor evicts the
        slot with its partial checkpoint).  Returns whether the request did
        anything (unknown ids and completed/failed jobs cannot be
        cancelled)."""
        with self._lock:
            sub = self._jobs.get(job_id)
            if sub is None:
                return False
            if sub.state == JobState.QUEUED:
                self._pending.remove(job_id)
                sub.state = JobState.CANCELLED
                return True
            if sub.state in (JobState.SCHEDULED, JobState.RUNNING):
                sub.cancel_requested = True
                return True
            return False

    def mark_running(self, submitted: SubmittedJob) -> None:
        """Record that the job's fused array started training it."""
        submitted.state = JobState.RUNNING

    def mark_completed(self, submitted: SubmittedJob, result: Any) -> None:
        """Record the job's terminal success with its JobResult."""
        self._settle(submitted, JobState.COMPLETED, result)

    def mark_cancelled(self, submitted: SubmittedJob, result: Any) -> None:
        """A job cancelled while it trained keeps its partial result
        (checkpoint as of the eviction epoch)."""
        self._settle(submitted, JobState.CANCELLED, result)

    def _settle(self, submitted: SubmittedJob, state: str,
                result: Any) -> None:
        with self._lock:
            submitted.state, submitted.result = state, result
            self._settled.append(result)

    def take_settled(self) -> List[Any]:
        """Every result settled since the last call, once, in the order
        the jobs settled: the one place results are handed out."""
        with self._lock:
            settled, self._settled = self._settled, []
            return settled

    def mark_failed(self, submitted: SubmittedJob, error: str) -> None:
        """Record the job's terminal failure with its error message."""
        submitted.state = JobState.FAILED
        submitted.error = error

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def pending_count(self) -> int:
        """How many jobs are queued and not yet scheduled."""
        with self._lock:
            return len(self._pending)

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def state(self, job_id: int) -> str:
        """The job's current :class:`JobState` value."""
        return self._jobs[job_id].state

    def get(self, job_id: int) -> SubmittedJob:
        """The submission record for ``job_id`` (gateway bookkeeping)."""
        return self._jobs[job_id]

    def result(self, job_id: int) -> Any:
        """The job's JobResult (``None`` until terminal; raises for a
        FAILED job, carrying its error message)."""
        sub = self._jobs[job_id]
        if sub.state == JobState.FAILED:
            raise RuntimeError(f"job {job_id} ('{sub.job.name}') failed: "
                               f"{sub.error}")
        return sub.result

    def jobs(self) -> List[SubmittedJob]:
        """Snapshot of every submission ever accepted, in id order."""
        with self._lock:
            return list(self._jobs.values())
