"""The training-array engine: drains the queue, trains fused arrays.

One :meth:`TrainingArrayEngine.run_until_idle` cycle is the runtime's whole
data path::

    queue.pop_pending()                      (queue.py)
      -> batcher.form_cohorts()              (batcher.py)   which jobs fuse?
      -> policy.plan()                       (policy.py)    how wide?
      -> run_executor() per plan             (this module)
           ArrayExecutor: PENDING -> FUSED -> STEPPING
             step_epoch() x epochs           per-slot progress + stop signals
             evict finished slots            (hfta.fusion.split_fused)
             admit queued jobs into freed width  (hfta.fusion.merge_fused)
           -> DRAINED, JobResult per job     (hfta.fusion.export_to_unfused)
      -> emit(Event("array", record))        (metrics.py)

The monolithic run-to-completion loop of the earlier runtime became the
:class:`ArrayExecutor` *state machine*: an array is trained epoch by epoch,
and at every epoch boundary each slot's stop signals are checked —
convergence (``TrainingJob.target_loss``), early-stopping callbacks
(``TrainingJob.stop``, where HFHT's tuning decisions plug in) and caller
cancellation (:meth:`~repro.runtime.queue.JobQueue.cancel`).  A finished
slot is *evicted*: its checkpoint is exported as of its own last step, the
fused parameters/buffers/optimizer-state are narrowed with the re-fusion
primitives, and the freed width goes back to the scheduler, which may
admit compatible queued jobs straight into the running array.  The
executor itself never touches a tensor: it owns the slots and
decides, and the :class:`FusedPhysics` object it holds does (six methods;
``execution="sim"`` swaps in :class:`repro.runtime.sim.SimPhysics`).

The engine also serves as the *per-device worker* of the multi-device
fleet: the fleet scheduler replaces the batcher/policy stages with
cost-model placement (:mod:`repro.runtime.placement`) and drives executors
through :meth:`TrainingArrayEngine.run_executor`, one engine per simulated
device, all sharing one queue and one metrics object.

Because every HFTA transformation is mathematically equivalent and slots
track their own progress (each job on its own data stream, per-model
optimizer state including Adam's per-slot step counters), the checkpoint a
job gets back is the one serial training would have produced for the same
number of steps — the runtime changes *when and with whom* a job trains,
never *what* it learns.
"""

from __future__ import annotations

import copy
import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import nn
from ..hfta import losses as fused_losses
from ..hfta import optim as fused_optim
from ..hfta.fusion import export_to_unfused, load_from_unfused, merge_fused, \
    split_fused, validate_fusibility
from ..hfta.optim.elastic import export_slot_state, load_slot_state, \
    merge_optimizers, split_optimizer
from ..nn.modules.module import Module
from . import sim
from .batcher import Batcher, Cohort
from .bufferpool import BufferPool
from .checkpoint import CheckpointStore, RecoveryManager
from .metrics import ArrayRecord, Event, RuntimeMetrics
from .policy import ArrayPlan, ArrayPolicy
from .queue import JobQueue, JobState, StopReason, SubmittedJob, \
    TrainingJob

__all__ = ["JobResult", "StopReason", "ArrayState", "ArrayExecutor",
           "TrainingArrayEngine"]

_CRITERIA = {
    "cross_entropy": fused_losses.FusedCrossEntropyLoss,
    "nll": fused_losses.FusedNLLLoss,
    "mse": fused_losses.FusedMSELoss,
}

#: fusible hyper-parameter keys forwarded to each optimizer as per-model
#: vectors: config key -> (constructor keyword, default).  The defaults
#: mirror the optimizer constructors', so a job that omits a key gets the
#: same value it would get training alone — even inside an array where a
#: cohort-mate sets it.
_OPTIMIZERS = {
    "adam": (fused_optim.Adam,
             {"lr": ("lr", 1e-3), "weight_decay": ("weight_decay", 0.0),
              "eps": ("eps", 1e-8)}),
    "adamw": (fused_optim.AdamW,
              {"lr": ("lr", 1e-3), "weight_decay": ("weight_decay", 0.01),
               "eps": ("eps", 1e-8)}),
    "sgd": (fused_optim.SGD,
            {"lr": ("lr", 0.01), "momentum": ("momentum", 0.0),
             "weight_decay": ("weight_decay", 0.0)}),
    "adadelta": (fused_optim.Adadelta,
                 {"lr": ("lr", 1.0), "rho": ("rho", 0.9),
                  "weight_decay": ("weight_decay", 0.0)}),
}


def make_fused_optimizer(fused: Module, configs: Sequence[Dict],
                         num_models: int):
    """Build the fused optimizer with per-model hyper-parameter vectors."""
    name = str(configs[0].get("optimizer", "adam")).lower()
    if name not in _OPTIMIZERS:
        raise ValueError(f"unknown optimizer '{name}'; choose from "
                         f"{sorted(_OPTIMIZERS)}")
    cls, vector_keys = _OPTIMIZERS[name]
    kwargs = {}
    for key, (kw, default) in vector_keys.items():
        if any(key in c for c in configs):
            kwargs[kw] = [c.get(key, default) for c in configs]
    if name in ("adam", "adamw") and any(
            "adam_beta1" in c or "adam_beta2" in c for c in configs):
        kwargs["betas"] = ([c.get("adam_beta1", 0.9) for c in configs],
                          [c.get("adam_beta2", 0.999) for c in configs])
    return cls(fused.parameters(), num_models=num_models, **kwargs)


class ArrayState:
    """Lifecycle states of a fused training array (see docs/elasticity.md)::

        PENDING -> FUSED -> STEPPING -> {EVICTING, MERGING} -> DRAINED

    EVICTING and MERGING are transient: the executor returns to STEPPING
    (or reaches DRAINED) within the same epoch boundary.
    """

    PENDING = "pending"      # created, fused model not built yet
    FUSED = "fused"          # weights loaded, optimizer ready
    STEPPING = "stepping"    # training epoch by epoch
    EVICTING = "evicting"    # exporting finished slots, narrowing the array
    MERGING = "merging"      # widening: admission or merge_with
    DRAINED = "drained"      # no live slots remain


@dataclass
class JobResult:
    """What a finished job gets back from the runtime."""

    job_id: int
    name: str
    checkpoint: Optional[Module]  # unfused model holding the trained
                                # weights (None from the sim backend)
    loss_curve: List[float]     # the job's own per-step training loss
    array_id: int               # which fused array trained it
    slot: int                   # its slot within that array
    array_width: int            # how many jobs shared the array at the end
    steps_trained: int = 0      # steps actually executed (== budget unless
                                # a stop signal retired the job earlier)
    stop_reason: str = StopReason.BUDGET
    evicted: bool = False       # left before its array drained
    preemptions: int = 0        # times the job's slot was preempted out of
                                # a live array before it finished
    finished_at: float = 0.0    # time.monotonic() at checkpoint export —
                                # the gateway's SLO clock reads this
    sim: bool = False           # produced by the simulation backend:
                                # finished_at is already in virtual-clock
                                # coordinates (no wall-clock offset applies)


@dataclass
class _Slot:
    """One live job inside an executor."""

    sub: SubmittedJob
    progress: int = 0           # steps completed so far
    curve: List[float] = field(default_factory=list)
    #: times this slot was preempted (detached mid-training so a
    #: deadline-at-risk job could take its width); carried into JobResult
    preemptions: int = 0
    #: ``progress`` at the slot's last successful durable checkpoint —
    #: the dirty-slot tracker behind incremental checkpointing (a slot's
    #: training state changes only by stepping or resume injection, and
    #: both move ``progress``), -1 until a first checkpoint lands
    persisted_progress: int = -1
    #: object refs (``{"model": ref, "optimizer": ref}``) of the last
    #: durable checkpoint, so a clean slot's *final* manifest can reuse
    #: the stored objects without re-encoding a byte
    persist_refs: Optional[Dict[str, str]] = None

    @property
    def job(self) -> TrainingJob:
        return self.sub.job

    @property
    def remaining(self) -> int:
        return self.job.steps - self.progress


class FusedPhysics:
    """The numpy training physics of one fused array.

    An :class:`ArrayExecutor` decides what happens to which slot when; the
    physics object it holds is the only thing that touches tensors.  The
    whole protocol is six methods (:class:`repro.runtime.sim.SimPhysics`
    answers the same six from the cost model, with no weights):

    * ``build(subs, mate=None)`` — materialize the training state of
      ``subs`` (fusible with the live job ``mate`` when boarding a running
      array); returns the jobs that boarded;
    * ``step(slots, steps)`` — train every slot ``steps`` gang-scheduled
      steps, appending per-step losses to each slot's curve; returns
      ``(seconds, samples)``;
    * ``take(indices)`` — a new physics holding just those slots (eviction
      keeps the survivors; preemption takes the victims, then the rest);
    * ``absorb(other)`` — append ``other``'s slots (admission, merge);
      succeeds, or raises with the live state untouched;
    * ``export(index, slot)`` — ``(checkpoint, durable)``: the slot's
      unfused model as of its last step, or ``None`` without weights, and
      ``durable() -> (model state, optimizer state)``, evaluated only
      when a store writes — retiring without one copies nothing;
    * ``load_resume(index, resume)`` — inject a durable checkpoint's
      optimizer slice (the weights arrive through the job's template).

    The eight re-fusion primitives are called through this module's
    globals, which is where ``bench_e2e.tracing`` measures them.
    """

    def __init__(self, engine: TrainingArrayEngine, plan: ArrayPlan):
        self.engine = engine
        self.loss_key = plan.jobs[0].job.loss
        self.fused = self.optimizer = self.criterion = self.arena = None

    def _install(self, fused: Module, optimizer) -> FusedPhysics:
        """Swap in a fused model/optimizer pair, the criterion of their
        width and an empty activation arena — the old one's buffers have
        the old width's shapes (nothing is assigned if the loss is
        unknown)."""
        if self.loss_key not in _CRITERIA:
            raise ValueError(f"unknown loss '{self.loss_key}'; choose from "
                             f"{sorted(_CRITERIA)}")
        self.criterion = _CRITERIA[self.loss_key](optimizer.num_models)
        self.fused, self.optimizer = fused, optimizer
        self.arena = nn.Arena()
        return self

    def build(self, subs: Sequence[SubmittedJob],
              mate: Optional[SubmittedJob] = None) -> List[SubmittedJob]:
        """Fuse the jobs whose template builds (here, where an array first
        touches tensors; memoized on the submission).  A job whose builder
        raises is FAILED and left out; its mates fuse."""
        boarded: List[SubmittedJob] = []
        for sub in subs:
            try:
                self.engine.batcher.build_template(sub)
            except Exception as exc:  # noqa: BLE001 — job-provided builder
                self.engine._fail_job(sub, f"build_model failed: {exc}")
            else:
                boarded.append(sub)
        if not boarded:
            return boarded
        templates = [sub.template for sub in boarded]
        # funnel level 3: the batcher grouped these jobs on what their
        # *builder* builds; the templates are what the array really loads
        # (a boarding party is checked against what the live array runs)
        validate_fusibility(
            ([mate.template] if mate is not None else []) + templates)
        fused = boarded[0].job.build_model(len(boarded), None)
        if not hasattr(fused, "fuse_inputs"):
            raise TypeError(
                f"fused model {type(fused).__name__} has no 'fuse_inputs'; "
                f"build models through repro.hfta.ops.factory.OpsLibrary "
                f"(see repro.models for examples)")
        load_from_unfused(fused, templates)
        self._install(fused, make_fused_optimizer(
            fused, [sub.job.config for sub in boarded], len(boarded)))
        return boarded

    def step(self, slots: Sequence[_Slot], steps: int) -> Tuple[float, int]:
        start = time.perf_counter()
        samples = 0
        with self.arena.active():
            for i in range(steps):
                batches = [slot.job.data(slot.progress + i) for slot in slots]
                inputs = [nn.tensor(np.asarray(x, dtype=np.float32))
                          for x, _ in batches]
                targets = np.stack([y for _, y in batches])
                self.optimizer.zero_grad()
                out = self.fused(self.fused.fuse_inputs(inputs))
                losses = self.criterion.per_model(out, targets)
                losses.sum().backward()
                self.optimizer.step()
                for slot, value in zip(slots, losses.data.tolist()):
                    slot.curve.append(value)
                samples += sum(len(y) for _, y in batches)
                # the graph dies here, not after the next forward: two
                # steps' activations never coexist in the arena
                del out, losses
        return time.perf_counter() - start, samples

    def take(self, indices: Sequence[int]) -> FusedPhysics:
        fused = split_fused(self.fused, indices)
        optimizer = split_optimizer(self.optimizer, fused.parameters(),
                                    indices)
        return copy.copy(self)._install(fused, optimizer)

    def absorb(self, other: FusedPhysics) -> None:
        pool = self.engine.pool
        merged = merge_fused(self.fused, other.fused, allocator=pool.take)
        merged_opt = merge_optimizers(self.optimizer, other.optimizer,
                                      merged.parameters(),
                                      allocator=pool.take)
        # merge_fused/merge_optimizers never mutate their inputs, so a
        # raise above leaves the live array untouched; past this point the
        # swap is atomic
        dead = [(self.fused, self.optimizer), (other.fused, other.optimizer)]
        self._install(merged, merged_opt)
        other.fused = other.optimizer = other.criterion = other.arena = None
        for fused, optimizer in dead:
            pool.release_all(self._allocations(fused, optimizer))

    @staticmethod
    def _allocations(fused: Module, optimizer) -> List[np.ndarray]:
        """A dead structure's arrays, for recycling into the buffer pool.

        Safe only for structures nothing references anymore (both inputs
        of a merge): the pool itself additionally rejects views — a
        narrowed array's slices stay untouched — and anything not owning
        its memory.  Gradients are never offered: autograd may hand the
        same array to several parameters (shared-weight accumulation).
        """
        dead = [p.data for p in fused.parameters()]
        dead.extend(buf for _, buf in fused.named_buffers()
                    if buf is not None)
        for slot_state in optimizer.state.values():
            dead.extend(value for value in slot_state.values()
                        if isinstance(value, np.ndarray))
        return dead

    def export(self, index: int, slot: _Slot
               ) -> Tuple[Module, Callable[[], Tuple[Dict, Dict]]]:
        # the job's template, overwritten in place
        checkpoint = export_to_unfused(self.fused, index, slot.sub.template)
        return checkpoint, lambda: (
            checkpoint.state_dict(),
            export_slot_state(self.optimizer, index))

    def load_resume(self, index: int, resume) -> None:
        load_slot_state(self.optimizer, index, resume.optimizer_state)


class ArrayExecutor:
    """Steps one fused array through its elastic lifecycle.

    The executor owns everything about the array that is not a tensor —
    which job sits in which slot, per-slot progress and loss curves, stop
    signals, lifetime accounting, lifecycle events and checkpoint cadence —
    and exposes it epoch by epoch, so the scheduler above can interleave
    stop-signal checks, evictions, admissions and preemptions with
    training instead of running each array to completion in one call.
    The tensors (or their cost-model projection) live in ``self.physics``,
    whose six methods (see :class:`FusedPhysics`) are the only way the
    lifecycle reaches them; the engine picks the physics, the device
    timeline charge and the result clock once, for every array it runs.

    It is driven by :meth:`TrainingArrayEngine.run_executor`, whose
    ``after_epoch`` hook is where the fleet admits and preempts
    (:meth:`detach_slots`).
    """

    def __init__(self, engine: "TrainingArrayEngine", plan: ArrayPlan,
                 array_id: int):
        self.engine = engine
        self.plan = plan
        self.array_id = array_id
        self.state = ArrayState.PENDING
        self.device_name = plan.device or engine.device_name
        self.width_cap = plan.width_cap
        jobs = plan.jobs
        self.epoch_steps = jobs[0].job.epoch_steps
        self.loss_key = jobs[0].job.loss
        self.workload = plan.workload
        self.signature = plan.cohort.signature
        #: solo (quarantine-retry) arrays must keep training alone
        self.solo = any(sub.solo for sub in jobs)
        #: cheap fusibility profile + exact structure, for freed-width
        #: admission and merge compatibility
        self.admission_profile = engine.batcher.admission_profile(jobs[0])
        self.structural_sig = engine.batcher.structural_signature(jobs[0])
        #: job ids this array turned away (structure mismatch or a failed
        #: admit): the admission predicate skips them from then on
        self.admission_rejects: Set[int] = set()

        self.slots: List[_Slot] = [_Slot(sub=sub) for sub in jobs]
        self.launch_width = len(self.slots)

        self.physics = engine.make_physics(engine, plan)

        # lifetime accounting (carried across merges)
        self.epochs = 0
        self.samples = 0
        self.seconds = 0.0
        self.max_progress = 0
        self.slot_steps_total = 0
        self.evictions = 0
        self.admissions = 0
        self.merges = 0
        self.jobs_served = 0
        self._results: List[JobResult] = []

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """Whether the array drained (no live slots remain)."""
        return self.state == ArrayState.DRAINED

    @property
    def live_width(self) -> int:
        """How many slots currently train inside this array."""
        return len(self.slots)

    @property
    def freed_width(self) -> int:
        """Width available for admission (never on solo/quarantine arrays)."""
        if self.solo:
            return 0
        return max(0, self.width_cap - self.live_width)

    @property
    def compat_key(self) -> Tuple:
        """Arrays with equal keys can be merged mid-training."""
        return (self.admission_profile, self.structural_sig, self.loss_key)

    def take_results(self) -> List[JobResult]:
        """Results produced since the last call (delivered exactly once)."""
        out, self._results = self._results, []
        return out

    # ------------------------------------------------------------------ #
    # PENDING -> FUSED
    # ------------------------------------------------------------------ #
    def prepare(self) -> None:
        """Build the array's training state from every slot's job (a slot
        whose job does not board — its builder raised — is dropped)."""
        for slot in self.slots:
            self.engine.queue.mark_running(slot.sub)

        boarded = self.physics.build([slot.sub for slot in self.slots])
        if len(boarded) < self.live_width:
            ids = {sub.job_id for sub in boarded}
            self.slots = [s for s in self.slots if s.sub.job_id in ids]
            self.launch_width = self.live_width
        # durable-checkpoint resume: the templates already carry the
        # checkpointed weights (Batcher.build_template); inject the
        # optimizer half and fast-forward the progress counters so each
        # resumed slot continues at its exact global step index
        for index, slot in enumerate(self.slots):
            self._apply_resume(index, slot)
        self.state = ArrayState.FUSED
        self.engine.emit(self.event("launch"))

    # ------------------------------------------------------------------ #
    # durability: resume application, per-slot persistence
    # ------------------------------------------------------------------ #
    def _apply_resume(self, index: int, slot: _Slot) -> None:
        """Fast-forward a freshly fused slot to its durable checkpoint."""
        resume = slot.sub.resume
        if resume is None or slot.progress >= resume.progress:
            return
        self.physics.load_resume(index, resume)
        slot.progress = resume.progress
        slot.curve = list(resume.loss_curve)
        self.max_progress = max(self.max_progress, slot.progress)
        # the durable checkpoint this slot resumed from is by definition
        # up to date — seed the dirty tracker so a cadence sweep before
        # the first new step does not re-encode identical state
        refs = (resume.source or {}).get("objects")
        if isinstance(refs, dict) and \
                all(isinstance(v, str) for v in refs.values()):
            slot.persisted_progress = resume.progress
            slot.persist_refs = dict(refs)

    def _provenance(self, index: int) -> Dict:
        """The fused-array context a checkpoint is taken in (manifests)."""
        return {"array_id": self.array_id, "slot": index,
                "live_width": self.live_width,
                "launch_width": self.launch_width,
                "device": self.device_name, "signature": self.signature,
                "epoch": self.epochs}

    def _persist_slot(self, index: int, slot: _Slot,
                      durable: Optional[Callable] = None,
                      final: bool = False,
                      stop_reason: Optional[str] = None,
                      force: bool = False) -> None:
        """Write one slot's state to the engine's checkpoint store.

        Incremental: a slot whose ``progress`` has not moved since its
        last durable write is *clean* — its training state cannot have
        changed (stepping and resume injection are the only mutators, and
        both move ``progress``).  A clean cadence checkpoint is skipped
        outright; a clean *final* checkpoint rewrites only the manifest,
        pointing at the already-stored objects.  ``force`` re-encodes
        regardless (a durability sweep that must not trust the tracker).

        A failed write is counted and swallowed: losing one epoch of
        durability must not take a healthy array down with it.
        """
        store = self.engine.store
        if store is None:
            return
        clean = (not force and slot.persist_refs is not None
                 and slot.persisted_progress == slot.progress)
        if clean and not final:
            self.engine.emit(Event("checkpoint_skip", (slot.sub.job_id,)))
            return
        try:
            if clean:
                payload = {"objects": slot.persist_refs}
            else:
                if durable is None:
                    _, durable = self.physics.export(index, slot)
                model_state, optimizer_state = durable()
                payload = {"model_state": model_state,
                           "optimizer_state": optimizer_state}
            receipt = store.save_slot(
                job_id=slot.sub.job_id, job=slot.job,
                progress=slot.progress, loss_curve=slot.curve,
                provenance=self._provenance(index),
                final=final, stop_reason=stop_reason, **payload)
        except Exception:  # noqa: BLE001 — durability is best-effort
            # the cached refs may be what failed (stale object) — drop
            # them so the next attempt re-encodes from live state
            slot.persist_refs = None
            self.engine.emit(Event("checkpoint_failed", (slot.sub.job_id,)))
            return
        slot.persisted_progress = slot.progress
        slot.persist_refs = dict(receipt.objects)
        self.engine.emit(Event("checkpoint", (slot.sub.job_id,), data=receipt))

    def checkpoint_now(self, force: bool = False) -> None:
        """Persist every live slot immediately (durability sweep).

        Clean slots cost nothing; pass ``force=True`` to re-encode every
        slot from live state regardless of the dirty tracker (e.g. after
        swapping checkpoint stores).
        """
        for index, slot in enumerate(self.slots):
            self._persist_slot(index, slot, force=force)

    # ------------------------------------------------------------------ #
    # STEPPING
    # ------------------------------------------------------------------ #
    def step_epoch(self) -> List[JobResult]:
        """Train one epoch, then evict every slot whose stop signal fired.

        Returns the results of the jobs retired at this epoch boundary.
        An epoch is ``epoch_steps`` gang-scheduled steps, shortened when a
        slot's budget boundary falls inside it (merged arrays may carry
        heterogeneous remaining budgets) — no slot ever oversteps.
        """
        if self.state == ArrayState.PENDING:
            self.prepare()
        if not self.slots:
            self.state = ArrayState.DRAINED
            return []
        self.state = ArrayState.STEPPING

        num_models = self.live_width
        steps = min(self.epoch_steps,
                    min(slot.remaining for slot in self.slots))
        epoch_seconds, samples = self.physics.step(self.slots, steps)
        if self.engine.charge_epoch is not None:
            self.engine.charge_epoch(self.workload, num_models, steps)
        self.seconds += epoch_seconds
        self.samples += samples

        self.epochs += 1
        self.slot_steps_total += steps * num_models
        usage: Dict[str, Tuple[int, float]] = {}
        for slot in self.slots:
            slot.progress += steps
            self.max_progress = max(self.max_progress, slot.progress)
            # bill the epoch to the slot's tenant: gang-stepping means
            # every live slot occupies its lane for the whole epoch
            prev = usage.get(slot.job.tenant, (0, 0.0))
            usage[slot.job.tenant] = (prev[0] + steps,
                                      prev[1] + epoch_seconds)
        self.engine.emit(Event("usage", array_id=self.array_id,
                               device=self.device_name, data=usage))

        retired = self._retire_finished()
        # durability hook: retiring slots were persisted (final) by
        # _retire_finished; the survivors reach the store at the
        # checkpoint_every cadence, after the narrowing split so indices
        # match the live array
        every = self.engine.checkpoint_every
        if every > 0 and self.epochs % every == 0:
            self.checkpoint_now()
        return retired

    def _stop_reason(self, slot: _Slot) -> Optional[str]:
        if slot.remaining <= 0:
            return StopReason.BUDGET
        if slot.sub.cancel_requested:
            return StopReason.CANCELLED
        job = slot.job
        if job.target_loss is not None and slot.curve and \
                slot.curve[-1] <= job.target_loss:
            return StopReason.CONVERGED
        if job.stop is not None:
            epochs_done = -(-slot.progress // max(1, job.epoch_steps))
            if job.stop(epochs_done, slot.curve):
                return StopReason.EARLY_STOP
        return None

    def _retire_finished(self) -> List[JobResult]:
        """EVICTING: export finished slots, narrow the array, free width."""
        stop_map: Dict[int, str] = {}
        for index, slot in enumerate(self.slots):
            reason = self._stop_reason(slot)
            if reason is not None:
                stop_map[index] = reason
        if not stop_map:
            return []

        self.state = ArrayState.EVICTING
        retired: List[JobResult] = []
        keep = [i for i in range(self.live_width) if i not in stop_map]
        for index, reason in stop_map.items():
            slot = self.slots[index]
            checkpoint, durable = self.physics.export(index, slot)
            result = JobResult(
                job_id=slot.sub.job_id, name=slot.job.name,
                checkpoint=checkpoint, loss_curve=slot.curve,
                array_id=self.array_id, slot=index,
                array_width=self.live_width,
                steps_trained=slot.progress, stop_reason=reason,
                evicted=bool(keep) or reason != StopReason.BUDGET,
                preemptions=slot.preemptions,
                finished_at=self.engine.result_clock(),
                sim=self.engine.execution == "sim")
            # the exported checkpoint doubles as the final durable state
            # — a restart after this point replays nothing
            self._persist_slot(index, slot, durable=durable,
                               final=True, stop_reason=reason)
            if reason == StopReason.CANCELLED:
                self.engine.queue.mark_cancelled(slot.sub, result)
            else:
                self.engine.queue.mark_completed(slot.sub, result)
                self.jobs_served += 1
            self.engine.emit(Event(
                "retire", (result.job_id,), self.array_id, self.device_name,
                data=(reason, result.steps_trained)))
            retired.append(result)
        self._results.extend(retired)

        # only *early* retirements count as evictions — budget completions
        # inside a heterogeneous array free width too, but they are the
        # normal end of a job, not the stop-signal machinery at work
        self.evictions += sum(1 for r in stop_map.values()
                              if r != StopReason.BUDGET)
        if keep:
            self.physics = self.physics.take(keep)
        self.slots = [self.slots[i] for i in keep]
        self.state = ArrayState.STEPPING if keep else ArrayState.DRAINED
        self.engine.emit(self.event("evict" if keep else "drain",
                                     tuple(r.job_id for r in retired)))
        return retired

    # ------------------------------------------------------------------ #
    # MERGING: freed-width admission and whole-array merges
    # ------------------------------------------------------------------ #
    def admit(self, subs: Sequence[SubmittedJob]) -> List[SubmittedJob]:
        """Fuse fresh queued jobs into this array's freed width.

        Returns the jobs that boarded (one whose builder raises is FAILED
        instead).  The newcomers are built as a temporary array of their
        own with a fresh optimizer (zero state == the lazy initialization
        they would get training alone) and absorbed; their slots then
        train with their own progress counters, so their checkpoints stay
        serial-equivalent even though they boarded mid-flight.

        Either succeeds or raises with the live array — physics and slots
        — untouched (failure isolation for the admission path).
        """
        if self.state == ArrayState.PENDING:
            self.prepare()
        width = len(subs)
        if width == 0 or width > self.freed_width:
            raise ValueError(f"cannot admit {width} jobs into freed width "
                             f"{self.freed_width}")
        self.state = ArrayState.MERGING
        base = self.live_width
        newcomers = self.engine.make_physics(self.engine, self.plan)
        subs = newcomers.build(subs, mate=self.slots[0].sub)
        if subs:
            self.physics.absorb(newcomers)
        for sub in subs:
            self.engine.queue.mark_running(sub)
            self.slots.append(_Slot(sub=sub))
        # a recovering job may board freed width like any other pending
        # job; its template already holds the checkpointed weights, its
        # optimizer slice and progress counter land here
        for offset, slot in enumerate(self.slots[base:]):
            self._apply_resume(base + offset, slot)
        self.state = ArrayState.STEPPING
        if subs:
            self.admissions += len(subs)
            self.engine.emit(self.event(
                "admit", tuple(sub.job_id for sub in subs)))
        return subs

    def merge_with(self, other: "ArrayExecutor") -> None:
        """Absorb another paused executor of the same fusibility profile.

        ``other``'s live slots and their training state join this array;
        its lifetime accounting is carried over so the final
        :class:`~repro.runtime.metrics.ArrayRecord` credits the work
        wherever it was done.  ``other`` must be paused (not stepping).
        """
        if other.compat_key != self.compat_key:
            raise ValueError("cannot merge arrays with different "
                             "fusibility profiles")
        if self.state == ArrayState.PENDING:
            self.prepare()
        if other.state == ArrayState.PENDING:
            other.prepare()
        self.state = ArrayState.MERGING
        self.physics.absorb(other.physics)
        self.slots.extend(other.slots)

        self.samples += other.samples
        self.seconds += other.seconds
        self.max_progress = max(self.max_progress, other.max_progress)
        self.slot_steps_total += other.slot_steps_total
        self.evictions += other.evictions
        self.admissions += other.admissions
        self.merges += other.merges + 1
        self.jobs_served += other.jobs_served
        self._results.extend(other.take_results())
        self.launch_width = max(self.launch_width, self.live_width)

        other.slots = []
        other.state = ArrayState.DRAINED
        self.state = ArrayState.STEPPING
        self.engine.emit(self.event("merge", other.array_id))

    def detach_slots(self, indices: Sequence[int]) -> "ArrayExecutor":
        """Preemption: split live slots out into their own paused executor.

        The inverse of :meth:`merge_with`: the detached slots leave with
        their training state (fused parameters, buffers, per-slot optimizer
        state) and progress counters moved wholesale, so resuming the
        detached executor later continues training bit-exactly where it
        stopped.  This is how the fleet preempts over-quota tenants: their
        slots lose the fused width *now* (a deadline-at-risk job boards
        it) but lose none of their training state.

        Returns the detached executor (state STEPPING, fresh array id,
        zeroed lifetime accounting — work done so far stays on this
        array's record).  At least one slot must remain: preemption frees
        width *within* a live array; draining it entirely would destroy
        the very array the at-risk job needs to board.
        """
        moving = sorted(set(indices))
        if not moving:
            raise ValueError("detach_slots needs at least one slot")
        if any(not 0 <= i < self.live_width for i in moving):
            raise ValueError(f"slot indices {moving} out of range for "
                             f"width {self.live_width}")
        if len(moving) >= self.live_width:
            raise ValueError("cannot detach every slot: preemption must "
                             "leave a live array behind")
        if self.state == ArrayState.PENDING:
            self.prepare()
        self.state = ArrayState.EVICTING

        moved = [self.slots[i] for i in moving]
        moved_physics = self.physics.take(moving)
        child_cohort = Cohort(
            signature=self.signature, infusible_values=(),
            steps=max(slot.job.steps for slot in moved),
            jobs=[slot.sub for slot in moved], workload=self.workload)
        child_plan = ArrayPlan(cohort=child_cohort,
                               indices=list(range(len(moved))),
                               width_cap=self.width_cap,
                               device=self.device_name)
        child = ArrayExecutor(engine=self.engine, plan=child_plan,
                              array_id=self.engine._array_ids())
        # carry the live training state across (the constructor built
        # fresh slots; the originals keep progress/curves/preempt counts)
        child.slots = moved
        child.physics = moved_physics
        child.state = ArrayState.STEPPING
        for slot in moved:
            slot.preemptions += 1

        keep = [i for i in range(self.live_width) if i not in set(moving)]
        self.physics = self.physics.take(keep)
        self.slots = [self.slots[i] for i in keep]
        self.state = ArrayState.STEPPING
        return child

    # ------------------------------------------------------------------ #
    def event(self, kind: str, data=None) -> Event:
        """A lifecycle event of this array, over its live slots."""
        return Event(kind, tuple(slot.sub.job_id for slot in self.slots),
                     self.array_id, self.device_name, data=data)

    def record(self) -> ArrayRecord:
        """The drained array's accounting record."""
        return ArrayRecord(
            array_id=self.array_id, signature=self.signature,
            num_models=self.launch_width, width_cap=self.width_cap,
            steps=self.max_progress, samples=self.samples,
            seconds=self.seconds,
            device=self.device_name,
            sim_seconds=self.plan.projected_seconds,
            jobs_served=self.jobs_served,
            slot_steps_total=self.slot_steps_total,
            # every executed slot-step trains a live job: a slot whose stop
            # signal fired leaves at that epoch boundary
            slot_steps_occupied=self.slot_steps_total,
            evictions=self.evictions, admissions=self.admissions,
            merges=self.merges)


class TrainingArrayEngine:
    """Serves a stream of training jobs by horizontally fusing them.

    Standalone, the engine is the whole runtime: submit jobs, call
    :meth:`run_until_idle`.  Inside a fleet it is one device's worker:
    ``device`` names the simulated accelerator it represents (stamped on
    every :class:`~repro.runtime.metrics.ArrayRecord` it produces) and
    ``array_ids`` is the fleet's shared id allocator, so array ids stay
    unique across the fleet's devices.

    Durability (:mod:`repro.runtime.checkpoint`): with a ``store``
    attached, every live slot is persisted at the ``checkpoint_every``
    epoch cadence (0 disables cadence checkpoints) and every retiring
    slot's final checkpoint is persisted as it leaves;
    with a ``recovery`` manager attached, :meth:`emit` also hands every
    lifecycle event to the write-ahead log.  A failing
    multi-job array's quarantined jobs then retry *from their last durable
    checkpoint* instead of step 0 (quarantine-then-recover).
    """

    def __init__(self, policy: Optional[ArrayPolicy] = None,
                 batcher: Optional[Batcher] = None,
                 metrics: Optional[RuntimeMetrics] = None,
                 queue: Optional[JobQueue] = None,
                 device=None,
                 array_ids: Optional[Callable[[], int]] = None,
                 store: Optional[CheckpointStore] = None,
                 checkpoint_every: int = 0,
                 recovery: Optional[RecoveryManager] = None,
                 execution: str = "real",
                 clock=None,
                 precision: str = "amp",
                 default_workload: str = "pointnet_cls"):
        # `is not None`, not `or`: an empty JobQueue is falsy (__len__ == 0),
        # and a fleet passes its shared-but-empty queue at construction time
        self.queue = queue if queue is not None else JobQueue()
        self.batcher = batcher if batcher is not None else Batcher()
        self.policy = policy if policy is not None else ArrayPolicy()
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        self.device = device
        self.device_name = getattr(device, "name", "") if device else ""
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.store = store
        self.checkpoint_every = checkpoint_every
        #: allocation reuse for evict->admit churn
        self.pool = BufferPool()
        self.recovery = recovery
        if execution not in ("real", "sim"):
            raise ValueError(f"execution must be 'real' or 'sim', "
                             f"got {execution!r}")
        self.execution = execution
        #: device-timeline state: this device's own timeline (the cost
        #: model's price of every epoch it ran, see sim.charge_epoch), the
        #: precision / default workload epochs are priced with, and a memo
        #: of cost estimates keyed by (workload, width).  A sim engine
        #: drags the shared VirtualClock (fleet-wide "now") along its
        #: timeline; a real fleet's device engine keeps one only for the
        #: fleet to order device turns by; a standalone real engine (no
        #: device) keeps none and its epochs pay nothing for it
        self.clock = clock
        self.sim_time = 0.0
        self.sim_precision = precision
        self.sim_workload = default_workload
        self._sim_cost_cache: Dict[Tuple, object] = {}
        self.charge_epoch: Optional[Callable] = None
        #: what every array this engine runs is made of: the physics its
        #: executors hold (``make_physics(engine, plan)``) and the clock
        #: ``JobResult.finished_at`` is read from — a simulated result
        #: finishes on its device's own timeline, not the global clock:
        #: another device may already have simulated further ahead
        self.make_physics: Callable = FusedPhysics
        self.result_clock: Callable[[], float] = time.monotonic
        if execution == "sim" or device is not None:
            self.charge_epoch = functools.partial(sim.charge_epoch, self)
            if execution == "sim":
                self.make_physics = sim.SimPhysics
                self.result_clock = lambda: self.sim_time
                if self.clock is None:
                    self.clock = sim.VirtualClock()
                self.sim_time = float(self.clock.now())
        # array ids are allocated on the run_cycle caller's thread only
        self._array_ids = array_ids or itertools.count().__next__

    # ------------------------------------------------------------------ #
    # intake and events (FleetScheduler shares these four methods)
    # ------------------------------------------------------------------ #
    def emit(self, event: Event) -> None:
        """Emit one lifecycle event to its two folds: the metrics, and the
        write-ahead log when a recovery manager is attached."""
        self.metrics.record_event(event)
        if self.recovery is not None:
            self.recovery.record_event(event)

    def submit(self, job: TrainingJob) -> int:
        """Accept a job for the next scheduling cycle; returns its id.

        With a :class:`RecoveryManager` attached the ``submit`` event is
        also journaled to the write-ahead log, which is what makes the job
        recoverable: a restart re-queues every journaled-but-unsettled
        job (see :meth:`RecoveryManager.rebuild_fleet`).
        """
        job_id = self.queue.submit(job)
        self.emit(Event("submit", (job_id,), tenant=job.tenant, data=job))
        return job_id

    def submit_all(self, jobs: Sequence[TrainingJob]) -> List[int]:
        """Accept a batch of jobs; returns their ids in submission order."""
        return [self.submit(job) for job in jobs]

    def cancel(self, job_id: int) -> bool:
        """Cancel a job: immediately if still queued; if already training,
        it is evicted at the next epoch boundary with its partial
        checkpoint."""
        cancelled = self.queue.cancel(job_id)
        if cancelled and self.queue.state(job_id) == JobState.CANCELLED:
            # cancelled straight out of the queue; a running job's cancel
            # is its retirement, at the eviction that actually happens
            self.emit(Event("cancel", (job_id,)))
        return cancelled

    # ------------------------------------------------------------------ #
    # scheduling cycles
    # ------------------------------------------------------------------ #
    def run_cycle(self, max_jobs: int = 0) -> List[JobResult]:
        """Drain up to ``max_jobs`` pending jobs through one batching cycle."""
        batch = self.queue.pop_pending(max_jobs)
        if not batch:
            return []
        cohorts, failures = self.batcher.form_cohorts(batch)
        for sub, error in failures:
            self._fail_job(sub, error)

        results: List[JobResult] = []
        for plan in self.policy.plan(cohorts):
            results.extend(self.run_executor(self.make_executor(plan)))
        return results

    def run_until_idle(self) -> Dict[int, JobResult]:
        """Run cycles until the queue is empty; results keyed by job id."""
        results: Dict[int, JobResult] = {}
        while self.queue.pending_count:
            for result in self.run_cycle():
                results[result.job_id] = result
        return results

    # ------------------------------------------------------------------ #
    # stepwise execution
    # ------------------------------------------------------------------ #
    def make_executor(self, plan: ArrayPlan) -> ArrayExecutor:
        """A fresh executor for one placed plan (allocates the array id)."""
        return ArrayExecutor(engine=self, plan=plan,
                             array_id=self._array_ids())

    def run_executor(self, executor: ArrayExecutor,
                     after_epoch: Optional[
                         Callable[[ArrayExecutor], None]] = None
                     ) -> List[JobResult]:
        """Drive an executor until it drains.

        ``after_epoch`` runs at every epoch boundary (the fleet's
        admission and preemption hook).  Without a hook, the engine's own
        freed-width admission runs instead.

        A failing multi-job array does not fail its jobs outright: its
        still-live jobs are requeued in quarantine (``solo``) and retried
        as width-1 arrays on the next cycle, so one bad job — e.g. a data
        stream whose batches don't match its cohort's — cannot take healthy
        cohort-mates down.  Only a width-1 failure is terminal.  Jobs that
        already left the array keep their exported checkpoints.
        """
        try:
            while not executor.done:
                executor.step_epoch()
                if executor.done:
                    break
                if after_epoch is not None:
                    after_epoch(executor)
                else:
                    self.refill_from_queue(executor)
        except Exception as exc:  # noqa: BLE001 — isolate array failures
            self.emit(executor.event("array_failed"))
            live = [slot.sub for slot in executor.slots]
            executor.slots = []
            executor.state = ArrayState.DRAINED
            if len(live) > 1:
                for sub in reversed(live):
                    sub.solo = True
                    # quarantine-then-recover: the solo retry resumes from
                    # the job's last durable checkpoint when one exists,
                    # instead of retraining from step 0
                    self._refresh_resume(sub)
                    self.queue.requeue(sub)
            else:
                for sub in live:
                    self._fail_job(sub, str(exc))
            if executor.jobs_served > 0 or executor.slot_steps_total > 0:
                # the array did real work before failing: jobs already
                # evicted hold valid checkpoints and their slot-steps back
                # the efficiency metric — losing the record would leave
                # completed jobs uncounted
                self.emit(executor.event("array", executor.record()))
            return executor.take_results()
        self.emit(executor.event("array", executor.record()))
        return executor.take_results()

    def _fail_job(self, sub: SubmittedJob, error: str) -> None:
        """Terminal failure of one job: queue state and its event."""
        self.queue.mark_failed(sub, error)
        self.emit(Event("fail", (sub.job_id,), data=error))

    def _refresh_resume(self, sub: SubmittedJob) -> None:
        """Attach the job's latest durable checkpoint as its resume
        payload if it is ahead of whatever the job already carries.

        The job's array died under it and the job restarts, so the template
        its last attempt exported mid-training weights into is dropped."""
        sub.template = None
        if self.store is None:
            return
        try:
            manifest = self.store.manifest(sub.job_id)
            if manifest is None:
                return
            current = sub.resume.progress if sub.resume is not None else 0
            if manifest["progress"] <= current:
                return
            checkpoint = self.store.load_slot(sub.job_id)
            if checkpoint is None:
                return
            sub.resume = checkpoint.resume_state()
        except Exception:  # noqa: BLE001 — recovery is best-effort here
            return
        self.emit(Event("recover", (sub.job_id,)))

    # ------------------------------------------------------------------ #
    # freed-width admission
    # ------------------------------------------------------------------ #
    def refill_from_queue(self, executor: ArrayExecutor,
                          key: Optional[Callable] = None) -> int:
        """Admit compatible pending jobs into an executor's freed width.

        This is how freed capacity flows back to the scheduler between
        cycles: a queued job whose fusibility profile matches a running
        under-filled array boards it immediately instead of waiting for the
        array to drain, up to the executor's width cap.  ``key`` ranks the
        candidates (the gateway's fair-admission order: deadline-at-risk
        first, then priority, then weighted fairness).  Returns the number
        of jobs admitted.
        """
        freed = executor.freed_width
        if freed <= 0 or executor.done:
            return 0
        profile = executor.admission_profile
        candidates = self.queue.take_if(
            lambda sub: (not sub.solo and not sub.cancel_requested
                         and sub.job_id not in executor.admission_rejects
                         and self.batcher.admission_profile(sub) == profile),
            max_jobs=freed, key=key)
        if not candidates:
            return 0

        subs: List[SubmittedJob] = []
        for sub in candidates:
            try:
                structure = self.batcher.structural_signature(sub)
            except Exception as exc:  # noqa: BLE001 — job-provided builder
                self._fail_job(sub, f"build_model failed: {exc}")
                continue
            if structure != executor.structural_sig:
                # same cheap profile, different structure: remember the
                # mismatch so the next epoch does not take the job again
                executor.admission_rejects.add(sub.job_id)
                self.queue.requeue(sub)
                continue
            subs.append(sub)
        try:
            subs = executor.admit(subs) if subs else []
        except Exception:  # noqa: BLE001 — admission must not kill the array
            for sub in reversed(subs):
                if sub.state != JobState.FAILED:    # its builder raised
                    executor.admission_rejects.add(sub.job_id)
                    self.queue.requeue(sub)
            executor.state = ArrayState.STEPPING
            return 0
        return len(subs)
