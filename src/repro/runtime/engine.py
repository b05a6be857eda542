"""The training-array engine: drains the queue, trains fused arrays.

One :meth:`TrainingArrayEngine.run_until_idle` cycle is the runtime's whole
data path::

    queue.pop_pending()                      (queue.py)
      -> batcher.form_cohorts()              (batcher.py)   which jobs fuse?
      -> policy.plan()                       (policy.py)    how wide?
      -> the turn loop over the plans        (this module)  which core?
           ArrayExecutor: PENDING -> FUSED -> STEPPING
             step_epoch() x epochs           per-slot progress + stop signals
             evict finished slots            (hfta.fusion.split_fused)
             admit queued jobs into freed width  (hfta.fusion.merge_fused)
           -> DRAINED, JobResult per job     (hfta.fusion.export_to_unfused)
      -> emit(Event("array", record))        (metrics.py)

The turn loop runs a cycle's arrays side by side, one per CPU this
process may use (:mod:`repro.runtime.shards`).  An array whose slots hold
less than ``shards.MIN_SLOT_BYTES`` trains whole on a free core — this
process first, then each shard worker, which a width-1 array never takes
— beside the cycle's other such arrays.  An array of larger slots runs
alone: cut across every core, or in this process when it cannot be cut
(width 1, or a model that drops).
On one CPU the arrays run one after another.  Each *turn* is one epoch of
every live array, in three steps: start every array's epoch (one request
to each worker, its batches in the worker's shared buffer), step this
process's parts meanwhile, then, in the order the arrays started, finish
each epoch and do its boundary work — retirement, cadence checkpoints,
admission — with per-array failure isolation.  A drained array's core
takes the next plan.  :meth:`TrainingArrayEngine.run_executor` is the
same loop with one array, kept in this process.  A retired job's result
is settled in the queue, which alone hands it out
(:meth:`~repro.runtime.queue.JobQueue.take_settled`).

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
decides, and the :class:`FusedPhysics` object it holds does (seven methods;
a simulated fleet swaps in :class:`repro.runtime.sim.SimPhysics`).

A multi-device fleet (:mod:`repro.runtime.fleet`) drives exactly one
engine: it replaces the batcher/policy stages with cost-model placement
(:mod:`repro.runtime.placement`), runs every array through
:meth:`TrainingArrayEngine.run_executor` on the device its plan names, and
points the engine's backend hooks at its devices — each epoch is charged
to the timeline of the device named by ``executor.device_name``.

Because every HFTA transformation is mathematically equivalent and slots
track their own progress (each job on its own data stream, per-model
optimizer state including Adam's per-slot step counters), the checkpoint a
job gets back is the one serial training would have produced for the same
number of steps — the runtime changes *when and with whom* a job trains,
never *what* it learns.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import itertools
import time
from dataclasses import dataclass, field
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, \
    Tuple

import numpy as np

from .. import nn
from ..hfta import optim as fused_optim
from ..hfta.fusion import export_to_unfused, load_from_unfused, merge_fused, \
    split_fused, validate_fusibility
from ..hfta.optim.elastic import export_slot_state, load_slot_state, \
    merge_optimizers, split_optimizer
from ..nn.modules.module import Module
from . import shards
from .batcher import Batcher, Cohort
from .bufferpool import BufferPool
from .checkpoint import CheckpointStore, CorruptObjectError, RecoveryManager
from .metrics import ArrayRecord, Event, RuntimeMetrics
from .policy import ArrayPlan, ArrayPolicy
from .queue import CRITERIA, JobQueue, JobState, StopReason, \
    SubmittedJob, TrainingJob

__all__ = ["JobResult", "StopReason", "ArrayState", "ArrayExecutor",
           "TrainingArrayEngine"]

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

        PENDING -> FUSED -> STEPPING -> DRAINED

    Eviction, admission, merges and detaches change a live array in place;
    they are not states of their own (evicting the last slots drains it).
    """

    PENDING = "pending"      # created, fused model not built yet
    FUSED = "fused"          # weights loaded, optimizer ready
    STEPPING = "stepping"    # training epoch by epoch
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
    finished_at: float = 0.0    # when its checkpoint was exported, on the
                                # engine's result clock: time.monotonic()
                                # standalone; in a fleet the admitting
                                # gateway's clock, or a simulated device's
                                # timeline — what its deadline is read on


@dataclass
class _Slot:
    """One live job inside an executor."""

    sub: SubmittedJob
    progress: int = 0           # steps completed so far
    curve: List[float] = field(default_factory=list)
    #: times this slot was preempted (detached mid-training so a
    #: deadline-at-risk job could take its width); carried into JobResult
    preemptions: int = 0

    @property
    def job(self) -> TrainingJob:
        return self.sub.job

    @property
    def remaining(self) -> int:
        return self.job.steps - self.progress


class _Shard:
    """A fused model with its optimizer, criterion and activation arena:
    a whole array, or one contiguous run of its slots (in this process, or
    in a shard worker, :mod:`repro.runtime.shards`)."""

    def __init__(self, fused: Module, optimizer, loss_key: str,
                 scaffold: Optional[Module] = None):
        self.fused, self.optimizer, self.loss_key = fused, optimizer, loss_key
        self.width = optimizer.num_models
        self.criterion = CRITERIA[loss_key](self.width)
        # a fresh arena: an old one's buffers have the old width's shapes
        self.arena = nn.Arena()
        #: a worker's shard exports into this job template (the parent's
        #: into each job's own)
        self.scaffold = scaffold

    @classmethod
    def remote(cls, fused: Module, configs: Sequence[Dict], loss_key: str,
               scaffold: Module) -> _Shard:
        """What a worker makes of what the parent sends it: the optimizer,
        criterion and arena are built there."""
        return cls(fused, make_fused_optimizer(fused, configs, len(configs)),
                   loss_key, scaffold)

    def step(self, fetch: Callable[[int], List], steps: int
             ) -> Tuple[List[List[float]], int, float]:
        """Train ``steps`` steps on ``fetch(i)``, step ``i``'s ``(x, y)``
        per slot: (each step's per-slot losses, samples, seconds)."""
        start = time.perf_counter()
        per_step, samples = [], 0
        with self.arena.active():
            for i in range(steps):
                batches = fetch(i)
                inputs = [nn.tensor(np.asarray(x, dtype=np.float32))
                          for x, _ in batches]
                targets = np.stack([y for _, y in batches])
                self.optimizer.zero_grad()
                out = self.fused(self.fused.fuse_inputs(inputs))
                losses = self.criterion.per_model(out, targets)
                # backward consumes the graph, freeing each activation as
                # soon as its node has run: the output too, once unheld
                del out
                # backward of sum_b l_b, seeded without its node: d/dl_b = 1
                losses.backward(np.ones_like(losses.data))
                self.optimizer.step()
                per_step.append(losses.data.tolist())
                samples += sum(len(y) for _, y in batches)
                # the root dies here, not after the next forward: two
                # steps' activations never coexist in the arena
                del losses
        return per_step, samples, time.perf_counter() - start

    def take(self, indices: Sequence[int]) -> _Shard:
        fused = split_fused(self.fused, indices)
        optimizer = split_optimizer(self.optimizer, fused.parameters(),
                                    indices)
        return _Shard(fused, optimizer, self.loss_key, self.scaffold)

    def merge(self, other: _Shard, pool: BufferPool) -> _Shard:
        """Both shards' slots in one; raises with both untouched."""
        fused = merge_fused(self.fused, other.fused, allocator=pool.take)
        optimizer = merge_optimizers(self.optimizer, other.optimizer,
                                     fused.parameters(), allocator=pool.take)
        # merge_fused/merge_optimizers never mutate their inputs; the
        # inputs' arrays are dead once the caller drops the two shards
        for shard in (self, other):
            pool.release_all(shard._allocations())
        return _Shard(fused, optimizer, self.loss_key, self.scaffold)

    def merged(self, fused: Module, optimizer) -> _Shard:
        """A worker's :meth:`merge` with slots the parent built: this
        shard's, then those of ``fused`` and its ``optimizer``."""
        return self.merge(_Shard(fused, optimizer, self.loss_key),
                          BufferPool())

    def _allocations(self) -> List[np.ndarray]:
        """A dead structure's arrays, for recycling into the buffer pool.

        Safe only for structures nothing references anymore (both inputs
        of a merge): the pool itself additionally rejects views — a
        narrowed array's slices stay untouched — and anything not owning
        its memory.  Gradients are never offered: autograd may hand the
        same array to several parameters (shared-weight accumulation).
        """
        dead = [p.data for p in self.fused.parameters()]
        dead.extend(buf for _, buf in self.fused.named_buffers()
                    if buf is not None)
        for slot_state in self.optimizer.state.values():
            dead.extend(value for value in slot_state.values()
                        if isinstance(value, np.ndarray))
        return dead

    def export(self, index: int, template: Module) -> Module:
        """Slot ``index``'s weights and buffers, into ``template``."""
        return export_to_unfused(self.fused, index, template)

    def exported(self, index: int) -> Dict[str, np.ndarray]:
        """A worker's export: what :meth:`export` writes into a template,
        by name, for the parent to load into the job's own."""
        state = self.export(index, self.scaffold).state_dict()
        names = {name for name, _ in self.fused.named_parameters()}
        names.update(name for name, buf in self.fused.named_buffers()
                     if buf is not None)
        return {name: state[name] for name in state if name in names}

    def slot_state(self, index: int) -> Dict:
        return export_slot_state(self.optimizer, index)

    def load_slot(self, index: int, state: Dict) -> None:
        load_slot_state(self.optimizer, index, state)


class _RemoteShard(shards.Remote):
    """A :class:`_Shard` a worker holds, with the same methods."""

    def merged(self, shard: _Shard) -> _RemoteShard:
        """This shard's slots, then ``shard``'s, merged in the worker."""
        oid = next(self.worker.ids)
        self.worker.call((oid, self.oid, "merged",
                          (shard.fused, shard.optimizer)))
        return type(self)(self.worker, oid, self.width + shard.width)

    def export(self, index: int, template: Module) -> Module:
        template.load_state_dict(self.call("exported", index))
        return template

    def slot_state(self, index: int) -> Dict:
        return self.call("slot_state", index)

    def load_slot(self, index: int, state: Dict) -> None:
        self.call("load_slot", index, state)


class FusedPhysics:
    """The numpy training physics of one fused array.

    An :class:`ArrayExecutor` decides what happens to which slot when; the
    physics object it holds is the only thing that touches tensors.  The
    whole protocol is seven methods (:class:`repro.runtime.sim.SimPhysics`
    answers the same seven from the cost model, with no weights):

    * ``whole(subs)`` — whether the array of ``subs`` may train whole on
      a core of its own, beside other arrays (the engine's turn loop);
    * ``build(subs, mate=None)`` — materialize the training state of
      ``subs`` (fusible with the live job ``mate`` when boarding a running
      array); returns the jobs that boarded;
    * ``start(slots, steps)`` — begin training every slot ``steps``
      gang-scheduled steps; returns the epoch, whose ``here()`` steps
      what trains in this process, ``finish()`` appends per-step losses
      to each slot's curve and returns ``(seconds, samples)``, and
      ``abandon()`` collects an epoch that will not finish
      (:class:`Stepped` is the epoch a physics trained whole in
      ``start``);
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

    The array's slots live in ``parts``, contiguous runs in slot order,
    each a :class:`_Shard` in this process or a :class:`_RemoteShard` in a
    shard worker.  ``build`` cuts an array of large slots into one run per
    allowed CPU (:func:`repro.runtime.shards.split`), the lowest here;
    otherwise, and always at width 1, the array is one run: here, or in
    the shard worker ``host`` when the engine's turn loop gave the array
    that worker's core (:meth:`whole` says whether it may).  An array
    whose template drops (an ``nn.Dropout`` or ``nn.Dropout2d`` with
    ``p > 0``) is never cut: each shard would draw its own mask from a copy
    of the layer's generator, so the masks would follow the CPU count.
    Newcomers absorbed into an array that trains whole in a worker are
    merged into it there.

    An epoch is three calls, which the turn loop spreads over a turn of
    several arrays: :meth:`start` puts each worker's batches in its shared
    buffer and sends it its parts' request, :meth:`_Epoch.here` steps this
    process's parts meanwhile, and :meth:`_Epoch.finish` collects the
    workers' losses.  The epoch's seconds are the array's own: the
    slowest host's step time, a worker's counted with the time taken here
    to fetch and put its batches.

    The eight re-fusion primitives are called through this module's
    globals, which is where ``bench_e2e.tracing`` measures them — in this
    process; a worker's calls are its own.
    """

    def __init__(self, engine: TrainingArrayEngine, plan: ArrayPlan):
        self.engine = engine
        self.loss_key = plan.jobs[0].job.loss
        self.parts: List = []
        #: the shard worker ``build`` puts the whole array in, if any
        self.host: Optional[shards.Worker] = None

    def whole(self, subs: Sequence[SubmittedJob]) -> bool:
        """Whether the array of ``subs`` may train whole on one core,
        beside other arrays: its slots hold less than
        :data:`~repro.runtime.shards.MIN_SLOT_BYTES`.  Reads the first
        template that builds (memoized; a builder that raises is left to
        :meth:`build`)."""
        for sub in subs:
            with contextlib.suppress(Exception):  # job-provided builder
                template = self.engine.batcher.build_template(sub)
                return _slot_bytes(template) < shards.MIN_SLOT_BYTES
        return True

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
        configs = [sub.job.config for sub in boarded]
        if self.host is not None:
            runs = [(0, len(boarded), self.host)]
        elif _drops(templates[0]):
            runs = [(0, len(boarded), None)]
        else:
            runs = shards.split(len(boarded), _slot_bytes(templates[0]))
        job, remote, posted = boarded[0].job, [], []

        def fuse_all() -> Optional[Module]:
            # the workers unpickle theirs while this process fuses its own
            for lo, hi, worker in runs:
                if worker is not None:
                    remote.append(_RemoteShard.make(
                        worker, hi - lo, _Shard.remote,
                        self._fuse(job, templates[lo:hi]), configs[lo:hi],
                        self.loss_key, templates[lo]))
                    posted.append(worker)
            _, width, worker = runs[0]
            return None if worker is not None else \
                self._fuse(job, templates[:width])
        here, _ = shards.overlap(posted, fuse_all)
        self.parts = remote
        if here is not None:
            width = runs[0][1]
            optimizer = make_fused_optimizer(here, configs[:width], width)
            self.parts = [_Shard(here, optimizer, self.loss_key)] + remote
        return boarded

    @staticmethod
    def _fuse(job: TrainingJob, templates: Sequence[Module]) -> Module:
        """The fused model of ``templates``, built by ``job``'s builder."""
        # every weight is overwritten by the templates': draw none
        with nn.init.disabled():
            fused = job.build_model(len(templates), None)
        if not hasattr(fused, "fuse_inputs"):
            raise TypeError(
                f"fused model {type(fused).__name__} has no 'fuse_inputs'; "
                f"build models through repro.hfta.ops.factory.OpsLibrary "
                f"(see repro.models for examples)")
        return load_from_unfused(fused, templates)

    def _runs(self, slots: Sequence) -> List[Tuple[object, Sequence]]:
        """Each part with its run of ``slots``."""
        runs, lo = [], 0
        for part in self.parts:
            runs.append((part, slots[lo:lo + part.width]))
            lo += part.width
        return runs

    def _locate(self, index: int) -> Tuple[object, int]:
        """The part holding slot ``index``, and the slot's index there."""
        for part in self.parts:
            if index < part.width:
                return part, index
            index -= part.width
        raise IndexError("slot index out of range")

    def start(self, slots: Sequence[_Slot], steps: int) -> _Epoch:
        """Every batch of the epoch's remote parts fetched here (each
        ``job.data`` is called in this process) and put in its worker's
        shared buffer, and one request sent to each worker."""
        epoch = _Epoch(self._runs(slots), steps)
        requests: Dict[shards.Worker, List[Tuple]] = {}
        for part, run in epoch.runs:
            if isinstance(part, _RemoteShard):
                begin = time.perf_counter()
                fetched = [_fetch(run, i) for i in range(steps)]
                placed = iter(part.worker.put([array for batches in fetched
                                               for batch in batches
                                               for array in batch]))
                batches = [[tuple(itertools.islice(placed, len(batch)))
                            for batch in batches] for batches in fetched]
                requests.setdefault(part.worker, []).append(part.request(
                    "step", functools.partial(_received, batches), steps))
                epoch.add(part.worker, time.perf_counter() - begin)
        epoch.sent = shards.send(requests)
        return epoch

    def take(self, indices: Sequence[int]) -> FusedPhysics:
        runs: List[Tuple[object, List[int]]] = []
        for index in indices:
            part, local = self._locate(index)
            if runs and runs[-1][0] is part:
                runs[-1][1].append(local)
            else:
                runs.append((part, [local]))
        taken = copy.copy(self)
        # a part kept whole is shared, not split: the physics taken from
        # is dropped (eviction) or keeps only other parts (preemption)
        taken.parts = [part if local == list(range(part.width))
                       else part.take(local) for part, local in runs]
        return taken

    def absorb(self, other: FusedPhysics) -> None:
        last, first = self.parts[-1], other.parts[0]
        if isinstance(last, _Shard) and isinstance(first, _Shard):
            joined = [last.merge(first, self.engine.pool)]
            self.parts = self.parts[:-1] + joined + other.parts[1:]
        elif len(self.parts) == 1 and isinstance(last, _RemoteShard) \
                and other.parts == [first] and isinstance(first, _Shard):
            # an array that trains whole in a worker stays whole there
            self.parts = [last.merged(first)]
        else:
            self.parts = self.parts + other.parts
        other.parts = []

    def export(self, index: int, slot: _Slot
               ) -> Tuple[Module, Callable[[], Tuple[Dict, Dict]]]:
        part, local = self._locate(index)
        # the job's template, overwritten in place
        checkpoint = part.export(local, slot.sub.template)
        return checkpoint, lambda: (checkpoint.state_dict(),
                                    part.slot_state(local))

    def load_resume(self, index: int, resume) -> None:
        part, local = self._locate(index)
        part.load_slot(local, resume.optimizer_state)


class _Epoch:
    """One epoch of a :class:`FusedPhysics` in flight: its workers'
    requests sent by :meth:`FusedPhysics.start`, then :meth:`here` and
    :meth:`finish`."""

    def __init__(self, runs: List[Tuple[object, Sequence]], steps: int):
        self.runs, self.steps = runs, steps
        #: the workers whose replies are owed
        self.sent: List[shards.Worker] = []
        #: seconds of each host's parts (``None``: this process)
        self.seconds: Dict[Optional[shards.Worker], float] = {}
        self.local: List[Tuple[List[List[float]], int, float]] = []
        self.error: Optional[BaseException] = None

    def add(self, host: Optional[shards.Worker], seconds: float) -> None:
        self.seconds[host] = self.seconds.get(host, 0.0) + seconds

    def here(self) -> None:
        """Step this process's parts.  A failure is kept for
        :meth:`finish` to raise once every reply is in."""
        try:
            for part, run in self.runs:
                if isinstance(part, _Shard):
                    self.local.append(part.step(
                        functools.partial(_fetch, run), self.steps))
        except BaseException as exc:  # noqa: BLE001 — raised by finish
            self.error = exc

    def finish(self) -> Tuple[float, int]:
        """Collect every reply, append each slot's losses to its curve:
        ``(seconds, samples)``, the seconds of the slowest host."""
        sent, self.sent = self.sent, []
        try:
            there = shards.receive(sent)
        except Exception:  # noqa: BLE001 — this process's failure first
            if self.error is None:
                raise
        if self.error is not None:
            raise self.error
        here = iter(self.local)
        replies = {worker: iter(reply) for worker, reply in there.items()}
        samples = 0
        for part, run in self.runs:
            host = part.worker if isinstance(part, _RemoteShard) else None
            per_step, count, seconds = next(
                here if host is None else replies[host])
            self.add(host, seconds)
            samples += count
            for losses in per_step:
                for slot, value in zip(run, losses):
                    slot.curve.append(value)
        return max(self.seconds.values()), samples

    def abandon(self) -> None:
        """Collect the replies of an epoch that will not finish."""
        with contextlib.suppress(Exception):
            shards.receive(self.sent)
        self.sent = []


class Stepped:
    """The epoch of a physics that trained it whole in ``start``:
    :meth:`finish` returns its ``(seconds, samples)``."""

    def __init__(self, seconds: float, samples: int):
        self.result = (seconds, samples)

    def here(self) -> None:
        pass

    def finish(self) -> Tuple[float, int]:
        return self.result

    def abandon(self) -> None:
        pass


def _slot_bytes(template: Module) -> int:
    """One slot's parameter bytes."""
    return sum(p.data.nbytes for p in template.parameters())


def _drops(model: Module) -> bool:
    """Whether ``model`` holds a dropout layer that drops (``p > 0``)."""
    return any(isinstance(m, (nn.Dropout, nn.Dropout2d)) and m.p > 0
               for m in model.modules())


def _fetch(slots: Sequence[_Slot], i: int) -> List:
    """Step ``i`` of an epoch's batch of every slot in ``slots``."""
    return [slot.job.data(slot.progress + i) for slot in slots]


def _received(batches: List[List[Tuple]], i: int) -> List[Tuple]:
    """In a shard worker: step ``i``'s batches, read in place from its
    shared buffer (``batches`` holds what :meth:`shards.Worker.put`
    returned)."""
    return [tuple(shards.view(*array) for array in batch)
            for batch in batches[i]]


class ArrayExecutor:
    """Steps one fused array through its elastic lifecycle.

    The executor owns everything about the array that is not a tensor —
    which job sits in which slot, per-slot progress and loss curves, stop
    signals, lifetime accounting, lifecycle events and checkpoint cadence —
    and exposes it epoch by epoch, so the scheduler above can interleave
    stop-signal checks, evictions, admissions and preemptions with
    training instead of running each array to completion in one call.
    The tensors (or their cost-model projection) live in ``self.physics``,
    whose seven methods (see :class:`FusedPhysics`) are the only way the
    lifecycle reaches them; the engine picks the physics, the device
    timeline charge and the result clock once, for every array it runs.

    It is driven by the engine's turn loop (:meth:`TrainingArrayEngine.
    run_cycle`, and :meth:`~TrainingArrayEngine.run_executor`, whose
    ``after_epoch`` hook is where the fleet admits and preempts,
    :meth:`detach_slots`), which splits each epoch in three:
    :meth:`start_epoch`, :meth:`step_here` and :meth:`step_epoch`.
    """

    def __init__(self, engine: "TrainingArrayEngine", plan: ArrayPlan,
                 array_id: int):
        self.engine = engine
        self.plan = plan
        self.array_id = array_id
        self.state = ArrayState.PENDING
        #: the device the array runs on ("" on a standalone engine);
        #: crash recovery retags it when it moves the array
        self.device_name = plan.device
        self.width_cap = plan.width_cap
        jobs = plan.jobs
        self.epoch_steps = jobs[0].job.epoch_steps
        self.loss_key = jobs[0].job.loss
        self.workload = plan.workload
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
        #: gang-scheduled steps this array (and what it merged) ran
        self.steps = 0
        self.slot_steps_total = 0
        #: the epoch started and not yet finished (``physics.start``'s),
        #: and its steps
        self._epoch = None
        self._epoch_steps = 0

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

    def _provenance(self, index: int) -> Dict:
        """The fused-array context a checkpoint is taken in (manifests)."""
        return {"array_id": self.array_id, "slot": index,
                "live_width": self.live_width,
                "launch_width": self.launch_width,
                "device": self.device_name, "epoch": self.epochs}

    def _persist_slot(self, index: int, slot: _Slot,
                      durable: Optional[Callable] = None,
                      final: bool = False,
                      stop_reason: Optional[str] = None) -> None:
        """Write one slot's state to the engine's checkpoint store.

        Every write encodes the slot's live state; the store's content
        addressing writes 0 object bytes when that state is unchanged.
        A failed write is counted and swallowed: losing one epoch of
        durability must not take a healthy array down with it.
        """
        store = self.engine.store
        if store is None:
            return
        try:
            if durable is None:
                _, durable = self.physics.export(index, slot)
            model_state, optimizer_state = durable()
            receipt = store.save_slot(
                job_id=slot.sub.job_id, job=slot.job,
                progress=slot.progress, loss_curve=slot.curve,
                model_state=model_state, optimizer_state=optimizer_state,
                provenance=self._provenance(index),
                final=final, stop_reason=stop_reason)
        except Exception:  # noqa: BLE001 — durability is best-effort
            self.engine.emit(Event("checkpoint_failed", (slot.sub.job_id,)))
            return
        self.engine.emit(Event("checkpoint", (slot.sub.job_id,), data=receipt))

    def checkpoint_now(self) -> None:
        """Persist every live slot immediately (durability sweep)."""
        for index, slot in enumerate(self.slots):
            self._persist_slot(index, slot)

    # ------------------------------------------------------------------ #
    # STEPPING
    # ------------------------------------------------------------------ #
    def start_epoch(self) -> None:
        """Launch the array if it is pending, and start its epoch: the
        requests of its parts in shard workers go out.  An epoch is
        ``epoch_steps`` gang-scheduled steps, shortened when a slot's
        budget boundary falls inside it (merged arrays may carry
        heterogeneous remaining budgets) — no slot ever oversteps."""
        if self.state == ArrayState.PENDING:
            self.prepare()
        if not self.slots:
            return
        self.state = ArrayState.STEPPING
        self._epoch_steps = min(self.epoch_steps,
                                min(slot.remaining for slot in self.slots))
        self._epoch = self.physics.start(self.slots, self._epoch_steps)

    def step_here(self) -> None:
        """Step the started epoch's parts that train in this process."""
        if self._epoch is not None:
            self._epoch.here()

    def abandon_epoch(self) -> None:
        """Collect the replies of a started epoch that will not finish."""
        epoch, self._epoch = self._epoch, None
        if epoch is not None:
            epoch.abandon()

    def step_epoch(self) -> List[JobResult]:
        """Train one epoch — or finish the one :meth:`start_epoch` began —
        then evict every slot whose stop signal fired.

        Returns the results of the jobs retired at this epoch boundary.
        """
        if self._epoch is None:
            self.start_epoch()
            self.step_here()
        if not self.slots:
            self.state = ArrayState.DRAINED
            return []
        epoch, self._epoch = self._epoch, None
        num_models, steps = self.live_width, self._epoch_steps
        epoch_seconds, samples = epoch.finish()
        if self.engine.charge_epoch is not None:
            epoch_seconds, samples = self.engine.charge_epoch(
                self, num_models, steps, epoch_seconds, samples)
        self.seconds += epoch_seconds
        self.samples += samples

        self.epochs += 1
        self.steps += steps
        self.slot_steps_total += steps * num_models
        usage: Dict[str, Tuple[int, float]] = {}
        for slot in self.slots:
            slot.progress += steps
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
        """Export finished slots, narrow the array, free width."""
        stop_map: Dict[int, str] = {}
        for index, slot in enumerate(self.slots):
            reason = self._stop_reason(slot)
            if reason is not None:
                stop_map[index] = reason
        if not stop_map:
            return []

        keep = [i for i in range(self.live_width) if i not in stop_map]
        # every call that can raise from a shard worker comes before any
        # job is marked finished (the durable write below swallows its
        # failures): a worker lost here fails the array with all of its
        # jobs still live, so each is requeued, and delivered, once
        exports = {index: self.physics.export(index, self.slots[index])
                   for index in stop_map}
        physics = self.physics.take(keep) if keep else None
        retired: List[JobResult] = []
        for index, reason in stop_map.items():
            slot = self.slots[index]
            checkpoint, durable = exports[index]
            result = JobResult(
                job_id=slot.sub.job_id, name=slot.job.name,
                checkpoint=checkpoint, loss_curve=slot.curve,
                array_id=self.array_id, slot=index,
                array_width=self.live_width,
                steps_trained=slot.progress, stop_reason=reason,
                evicted=bool(keep) or reason != StopReason.BUDGET,
                preemptions=slot.preemptions,
                finished_at=self.engine.result_clock(self))
            # the exported checkpoint doubles as the final durable state
            # — a restart after this point replays nothing
            self._persist_slot(index, slot, durable=durable,
                               final=True, stop_reason=reason)
            if reason == StopReason.CANCELLED:
                self.engine.queue.mark_cancelled(slot.sub, result)
            else:
                self.engine.queue.mark_completed(slot.sub, result)
            self.engine.emit(Event(
                "retire", (result.job_id,), self.array_id, self.device_name,
                data=(reason, result.steps_trained)))
            retired.append(result)

        if keep:
            self.physics = physics
        self.slots = [self.slots[i] for i in keep]
        self.state = ArrayState.STEPPING if keep else ArrayState.DRAINED
        self.engine.emit(self.event("evict" if keep else "drain",
                                     tuple(r.job_id for r in retired)))
        return retired

    # ------------------------------------------------------------------ #
    # widening: freed-width admission and whole-array merges
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
        if subs:
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
        self.physics.absorb(other.physics)
        self.slots.extend(other.slots)

        self.samples += other.samples
        self.seconds += other.seconds
        self.steps += other.steps
        self.slot_steps_total += other.slot_steps_total
        self.launch_width = max(self.launch_width, self.live_width)

        other.slots = []
        other.state = ArrayState.DRAINED
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

        moved = [self.slots[i] for i in moving]
        moved_physics = self.physics.take(moving)
        child_cohort = Cohort(
            infusible_values=(),
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
        return child

    # ------------------------------------------------------------------ #
    def event(self, kind: str, data=None) -> Event:
        """A lifecycle event of this array, over its live slots."""
        return Event(kind, tuple(slot.sub.job_id for slot in self.slots),
                     self.array_id, self.device_name, data=data)

    def record(self) -> ArrayRecord:
        """The closing array's accounting record."""
        return ArrayRecord(
            array_id=self.array_id, num_models=self.launch_width,
            width_cap=self.width_cap,
            steps=self.steps, samples=self.samples,
            seconds=self.seconds,
            device=self.device_name,
            sim_seconds=self.plan.projected_seconds,
            slot_steps_total=self.slot_steps_total,
            # every executed slot-step trains a live job: a slot whose stop
            # signal fired leaves at that epoch boundary
            slot_steps_occupied=self.slot_steps_total)


class TrainingArrayEngine:
    """Serves a stream of training jobs by horizontally fusing them.

    Standalone, the engine is the whole runtime: submit jobs, call
    :meth:`run_until_idle`.  A :class:`~repro.runtime.fleet.FleetScheduler`
    owns one engine and drives it across its devices: it shares the
    engine's queue, metrics, batcher and array-id counter, and installs
    the backend hooks below.

    Durability (:mod:`repro.runtime.checkpoint`): with a ``store``
    attached, every live slot is persisted at the ``checkpoint_every``
    epoch cadence (0 disables cadence checkpoints) and every retiring
    slot's final checkpoint is persisted as it leaves;
    with a ``recovery`` manager attached, :meth:`emit` also hands every
    lifecycle event to the write-ahead log, and job ids start past every
    id the log already holds.  A failing
    multi-job array's quarantined jobs then retry *from their last durable
    checkpoint* instead of step 0 (quarantine-then-recover).
    """

    def __init__(self, policy: Optional[ArrayPolicy] = None,
                 store: Optional[CheckpointStore] = None,
                 checkpoint_every: int = 0,
                 recovery: Optional[RecoveryManager] = None):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.queue = JobQueue()
        self.batcher = Batcher()
        self.policy = policy if policy is not None else ArrayPolicy()
        self.metrics = RuntimeMetrics()
        self.store = store
        self.checkpoint_every = checkpoint_every
        self.recovery = recovery
        if recovery is not None:
            # job ids key the WAL and the store's manifests: never reissue
            # one a previous process on the same log already used
            self.queue.reserve_ids(recovery.next_job_id())
        #: allocation reuse for evict->admit churn
        self.pool = BufferPool()
        #: the backend hooks, which a fleet re-points at its devices: the
        #: physics (``make_physics(engine, plan)``), each epoch's device
        #: charge (``charge_epoch(executor, width, steps, seconds,
        #: samples) -> (seconds, samples)``, given the epoch as measured
        #: and returning what it is recorded as; none standalone) and
        #: ``JobResult.finished_at``'s clock (``result_clock(executor)``)
        self.make_physics: Callable = FusedPhysics
        self.charge_epoch: Optional[Callable] = None
        self.result_clock: Callable[[ArrayExecutor], float] = \
            lambda executor: time.monotonic()
        # array ids are allocated on the run_cycle caller's thread only
        self._array_ids = itertools.count().__next__

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
        """Drain up to ``max_jobs`` pending jobs through one batching
        cycle.  Its plans' arrays train side by side, one per CPU, in the
        engine's turn loop (module docstring).  Returns every result
        settled since the last call, in settlement order
        (:meth:`JobQueue.take_settled`)."""
        batch = self.queue.pop_pending(max_jobs)
        if batch:
            cohorts, failures = self.batcher.form_cohorts(batch)
            for sub, error in failures:
                self._fail_job(sub, error)
            self._drive(deque(self.policy.plan(cohorts)))
        return self.queue.take_settled()

    def run_until_idle(self) -> Dict[int, JobResult]:
        """Run cycles until the queue is empty; results keyed by job id."""
        results: Dict[int, JobResult] = {}
        while True:
            for result in self.run_cycle():
                results[result.job_id] = result
            if not self.queue.pending_count:
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
                         Callable[[ArrayExecutor], None]] = None) -> None:
        """Drive an executor until it drains, in this process: the turn
        loop of :meth:`run_cycle` with one array.  Its results are the
        queue's to hand out (:meth:`JobQueue.take_settled`).

        ``after_epoch`` runs at every epoch boundary (the fleet's
        admission and preemption hook).  Without a hook, the engine's own
        freed-width admission runs instead.
        """
        self._drive(deque(), after_epoch, executor)

    def _drive(self, plans: Deque[ArrayPlan],
               after_epoch: Optional[Callable[[ArrayExecutor], None]] = None,
               upcoming: Optional[ArrayExecutor] = None) -> None:
        """Train ``upcoming`` (if given), then the arrays of ``plans``,
        until each drains, side by side.

        The first array takes this process's core.  The next one starts
        as soon as a core is free, if it and every live array train whole
        (:meth:`FusedPhysics.whole`): this process first, then each shard
        worker.  Otherwise it waits until no array is live: an array of
        large slots is cut across every core and runs alone, and a physics
        that cannot place its array (the simulator's) runs one array at a
        time.  A width-1 array — one job trained unfused — never takes a
        worker's core: a fleet never spreads arrays (it runs one at a
        time, so a small one in this process, and cuts one of large slots
        exactly as here), so a serial lap through an engine must not
        either, or a fused fleet measured against it would set one core
        against two.  On one CPU arrays run one after another.  Each turn
        starts every live array's epoch, steps this process's parts
        meanwhile, then finishes each array's epoch in start order with
        its epoch-boundary work (:meth:`_turn`).

        A failing multi-job array does not fail its jobs outright: its
        still-live jobs are requeued in quarantine (``solo``) and retried
        as width-1 arrays on the next cycle, so one bad job — e.g. a data
        stream whose batches don't match its cohort's — cannot take healthy
        cohort-mates down.  Only a width-1 failure is terminal.  Jobs that
        already left the array keep their exported checkpoints.

        Anything else that leaves the loop — an interrupt, a dead device —
        first closes every live array (its record, if it ran a slot-step:
        :meth:`_close`), then requeues (:meth:`requeue`) the live jobs of
        each, to which it narrows the array's ``slots``, and the jobs of
        every plan not started: each job is settled or queued again.
        """
        #: (array, core), in the order the arrays started
        live: List[Tuple[ArrayExecutor, int]] = []
        try:
            while live or upcoming is not None or plans:
                if upcoming is None and plans:
                    # a plan leaves ``plans`` once its executor is built
                    upcoming = self.make_executor(plans[0])
                    plans.popleft()
                core = (None if upcoming is None
                        else self._free_core(live, upcoming))
                if core is None:
                    self._turn(live, after_epoch)
                    # a drained array is dropped here, with its tensors,
                    # before the next one is built
                    live = [entry for entry in live if not entry[0].done]
                    continue
                if core:
                    upcoming.physics.host = shards.workers()[core - 1]
                try:
                    # launched as it is placed: a template is built, and a
                    # builder called, right before the array it fuses into
                    if upcoming.state == ArrayState.PENDING:
                        upcoming.prepare()
                except Exception as exc:  # noqa: BLE001 — isolate arrays
                    self._failed(upcoming, exc)
                else:
                    if upcoming.done:
                        self._drained(upcoming)
                    else:
                        live.append((upcoming, core))
                upcoming = None
        except BaseException:
            dead = [executor for executor, _ in live]
            # an interrupt between two statements may leave an array both
            # live and upcoming: it is closed once
            if upcoming is not None and upcoming not in dead:
                dead.append(upcoming)
            for executor in dead:
                executor.slots = [slot for slot in executor.slots
                                  if slot.sub.state in (JobState.SCHEDULED,
                                                        JobState.RUNNING)]
                if not executor.done:
                    self._close(executor)
            stranded = [slot.sub for executor in dead
                        for slot in executor.slots]
            stranded += [sub for plan in plans for sub in plan.jobs]
            # by id: an interrupt between two statements may leave an
            # array both built and planned
            self.requeue(list({sub.job_id: sub for sub in stranded}.values()))
            raise

    @staticmethod
    def _free_core(live: Sequence[Tuple[ArrayExecutor, int]],
                   upcoming: ArrayExecutor) -> Optional[int]:
        """The core ``upcoming`` may start on beside the ``live`` arrays
        (0: this process), or ``None`` if it must wait."""
        if not live:
            return 0
        taken = {core for _, core in live}
        cores = shards.cpus() if len(upcoming.slots) > 1 else 1
        core = next((core for core in range(cores) if core not in taken),
                    None)
        if core is None:
            return None
        for executor in [executor for executor, _ in live] + [upcoming]:
            if not executor.physics.whole([slot.sub
                                           for slot in executor.slots]):
                return None
        return core

    def _turn(self, live: Sequence[Tuple[ArrayExecutor, int]],
              after_epoch: Optional[Callable[[ArrayExecutor], None]]
              ) -> None:
        """One epoch of every ``(array, core)`` in ``live``: start each,
        step this process's parts, then finish each in order with its
        boundary work — retirement and cadence checkpoints
        (:meth:`ArrayExecutor.step_epoch`), then ``after_epoch`` or
        freed-width admission."""
        running = []
        try:
            for executor, _ in live:
                try:
                    executor.start_epoch()
                except Exception as exc:  # noqa: BLE001 — isolate arrays
                    self._failed(executor, exc)
                else:
                    running.append(executor)
            for executor in running:
                executor.step_here()
            for executor in running:
                try:
                    executor.step_epoch()
                    if not executor.done:
                        if after_epoch is not None:
                            after_epoch(executor)
                        else:
                            self.refill_from_queue(executor)
                except Exception as exc:  # noqa: BLE001 — isolate arrays
                    self._failed(executor, exc)
                else:
                    if executor.done:
                        self._drained(executor)
        except BaseException:
            for executor in running:
                executor.abandon_epoch()
            raise

    def _drained(self, executor: ArrayExecutor) -> None:
        self.emit(executor.event("array", executor.record()))

    def _failed(self, executor: ArrayExecutor, exc: Exception) -> None:
        """Failure isolation of one array (:meth:`_drive`)."""
        self.emit(executor.event("array_failed"))
        live = [slot.sub for slot in executor.slots]
        executor.slots = []
        executor.state = ArrayState.DRAINED
        if len(live) > 1:
            for sub in live:
                sub.solo = True
            # quarantine-then-recover: the solo retry resumes from the
            # job's last durable checkpoint when one exists, instead of
            # retraining from step 0
            self.requeue(live)
        else:
            for sub in live:
                self._fail_job(sub, str(exc))
        self._close(executor)

    def _close(self, executor: ArrayExecutor) -> None:
        """Emit the record of an array that ends undrained, if it ran a
        slot-step: that work backs the throughput and efficiency
        metrics however the array ended."""
        if executor.slot_steps_total > 0:
            self.emit(executor.event("array", executor.record()))

    def requeue(self, subs: Sequence[SubmittedJob]) -> None:
        """Put the jobs of an array that will not go on back at the head
        of the queue, in slot order, each resuming from its latest durable
        checkpoint (:meth:`_refresh_resume`)."""
        for sub in reversed(subs):
            self._refresh_resume(sub)
            self.queue.requeue(sub)

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
        except CorruptObjectError as exc:
            if self.recovery is not None:
                self.recovery.record_corrupt(sub.job_id, exc)
            return
        except Exception:  # noqa: BLE001 — recovery is best-effort here
            return
        self.emit(Event("recover", (sub.job_id,)))

    # ------------------------------------------------------------------ #
    # freed-width admission
    # ------------------------------------------------------------------ #
    def may_board(self, executor: ArrayExecutor, sub: SubmittedJob,
                  exact: bool = True) -> bool:
        """The boarding rule: may queued job ``sub`` take freed width in
        ``executor``?  ``exact=False`` checks the cheap half only (not
        solo, not cancel-requested, not turned away before, same admission
        profile); the exact half compares structural signatures — the
        profile has false positives — remembers a mismatch in
        ``admission_rejects`` and raises what the job's builder raises."""
        if (sub.solo or sub.cancel_requested
                or sub.job_id in executor.admission_rejects
                or self.batcher.admission_profile(sub)
                != executor.admission_profile):
            return False
        if not exact:
            return True
        if self.batcher.structural_signature(sub) != executor.structural_sig:
            executor.admission_rejects.add(sub.job_id)
            return False
        return True

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
        candidates = self.queue.take_if(
            functools.partial(self.may_board, executor, exact=False),
            max_jobs=freed, key=key)
        subs: List[SubmittedJob] = []
        for sub in candidates:
            try:
                boards = self.may_board(executor, sub)
            except Exception as exc:  # noqa: BLE001 — job-provided builder
                self._fail_job(sub, f"build_model failed: {exc}")
                continue
            if boards:
                subs.append(sub)
            else:
                self.queue.requeue(sub)
        try:
            subs = executor.admit(subs) if subs else []
        except Exception:  # noqa: BLE001 — admission must not kill the array
            for sub in reversed(subs):
                if sub.state != JobState.FAILED:    # its builder raised
                    executor.admission_rejects.add(sub.job_id)
                    self.queue.requeue(sub)
            return 0
        return len(subs)
