"""Durable checkpointing and crash recovery for the training fleet.

Everything below this module keeps training state in memory: a worker
crash loses every in-flight slot's progress, which a production platform
(the MLSys framing of Ratner et al.: reliability is a first-class systems
concern next to throughput) cannot accept.  This module adds the durable
layer on top of the re-fusion primitives that already exist —
:func:`repro.hfta.fusion.export_to_unfused` extracts a slot's unfused
weights, :func:`repro.hfta.optim.elastic.export_slot_state` its per-slot
optimizer state — and two pieces use it:

* :class:`CheckpointStore` — a content-addressed object store plus
  per-slot manifests.  Objects (serialized array payloads) are written
  with the atomic write-then-rename pattern and named by the SHA-256 of
  their bytes, so identical payloads are stored once and a torn write can
  never be observed under the final name.  Each job's manifest records
  its *fused-array provenance* — which array/slot/width the checkpoint
  was taken in — while the payload itself is array-shape agnostic: an
  evicted or merged slot restores into a *different* array shape without
  translation.

* :class:`RecoveryManager` — a write-ahead log (``wal.jsonl``), the
  durable fold of the runtime's lifecycle event stream (admissions,
  terminal transitions, array lifecycle), plus the restart logic:
  :meth:`RecoveryManager.rebuild_fleet` builds a fresh
  :class:`~repro.runtime.fleet.FleetScheduler` from disk, re-queues every
  journaled-but-unsettled job with its tenant/priority/deadline intact,
  and attaches each job's latest durable checkpoint as a
  :class:`~repro.runtime.queue.ResumeState` — the next scheduling cycle
  then re-places the surviving work via the cost model exactly like any
  other pending job.

The serial-equivalence invariant survives a crash: a resumed slot's
weights, optimizer moments and per-model step counter are bit-identical
copies of the durable state, and its progress counter makes the private
data stream continue at the exact global step index of the checkpoint —
so the final checkpoint equals the one an uninterrupted run would have
produced (``tests/runtime/test_checkpoint.py`` kills a device worker
mid-epoch and asserts exactly that).

Job *code* (model builders, data streams) is deliberately not persisted —
closures do not serialize and would be stale after a redeploy anyway.
Recovery re-binds journaled metadata to fresh :class:`TrainingJob`
objects supplied by the restarting application, keyed by job name (see
:meth:`RecoveryManager.rebuild_fleet` and ``docs/operations.md`` for the
runbook this implements).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .metrics import Event
from .queue import JobState, ResumeState, StopReason, TrainingJob

__all__ = ["CheckpointStore", "CorruptObjectError", "RecoveryManager",
           "SlotCheckpoint", "WriteReceipt", "encode_arrays",
           "decode_arrays"]

_MAGIC = b"RPCK1\n"

#: queue states after which a journaled job needs no recovery; "recovered"
#: is WAL-only — it closes out an old job id whose work was re-admitted
#: under a new id, so a second restart cannot recover the same work twice
_TERMINAL_STATES = (JobState.COMPLETED, JobState.FAILED,
                    JobState.CANCELLED, JobState.SHED)
_SETTLED_STATES = _TERMINAL_STATES + ("recovered",)

#: terminal event kinds -> the job state their ``state`` record settles
#: (None: a ``retire`` settles COMPLETED or CANCELLED by its stop reason)
_STATE_OF = {"fail": JobState.FAILED, "cancel": JobState.CANCELLED,
             "shed": JobState.SHED, "retire": None}

#: array event kinds -> the key their ``data`` is journaled under (None:
#: the record is the array, its device and its live job ids alone)
_ARRAY_DATA = {"launch": None, "crash": None,
               "evict": "retired", "drain": "retired", "admit": "admitted",
               "merge": "absorbed_array"}


# --------------------------------------------------------------------- #
# deterministic array serialization (the content-addressed payload)
# --------------------------------------------------------------------- #
def encode_arrays(arrays: Dict[str, np.ndarray]) -> bytes:
    """Serialize named arrays into one deterministic byte string.

    Layout: magic, 8-byte big-endian header length, a JSON header listing
    ``(name, dtype, shape, offset, size)`` per array in sorted-name order,
    then the raw little-endian buffers concatenated.  Unlike ``np.savez``
    (a zip archive with member timestamps) the encoding is a pure function
    of the array contents, which is what makes content addressing work:
    equal checkpoints hash equal, and the store deduplicates them.
    """
    entries = []
    blob = bytearray()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(np.asarray(arrays[name]))
        raw = arr.tobytes()
        entries.append({"name": name, "dtype": arr.dtype.str,
                        "shape": list(arr.shape),
                        "offset": len(blob), "size": len(raw)})
        blob.extend(raw)
    header = json.dumps(entries, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    return (_MAGIC + len(header).to_bytes(8, "big") + header + bytes(blob))


def decode_arrays(payload: bytes) -> Dict[str, np.ndarray]:
    """Inverse of :func:`encode_arrays`; every returned array is writable.

    Zero-copy where possible: the arrays are disjoint views into
    ``payload``'s buffer when that buffer is writable (a ``bytearray``, as
    :meth:`CheckpointStore._get_object` returns), reshaped in place.  Only
    a read-only ``bytes`` payload forces per-array copies — the old
    behavior, which slices the body and copies after ``reshape``, paid
    three full-payload copies per restored slot.
    """
    view = memoryview(payload)
    if bytes(view[:len(_MAGIC)]) != _MAGIC:
        raise ValueError("not a checkpoint payload (bad magic)")
    offset = len(_MAGIC)
    header_len = int.from_bytes(view[offset:offset + 8], "big")
    offset += 8
    entries = json.loads(bytes(view[offset:offset + header_len]))
    body = offset + header_len
    out: Dict[str, np.ndarray] = {}
    for entry in entries:
        start = body + entry["offset"]
        arr = np.frombuffer(view[start:start + entry["size"]],
                            dtype=np.dtype(entry["dtype"]))
        arr = arr.reshape(entry["shape"])
        out[entry["name"]] = arr if arr.flags.writeable else arr.copy()
    return out


def _flatten_optimizer_state(
        state: Dict[int, Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
    """``{pos: {key: arr}}`` -> flat ``{"pos.key": arr}`` for encoding."""
    flat: Dict[str, np.ndarray] = {}
    for pos, slot in state.items():
        for key, value in slot.items():
            flat[f"{int(pos)}.{key}"] = value
    return flat


def _unflatten_optimizer_state(
        flat: Dict[str, np.ndarray]) -> Dict[int, Dict[str, np.ndarray]]:
    state: Dict[int, Dict[str, np.ndarray]] = {}
    for name, value in flat.items():
        pos_str, key = name.split(".", 1)
        state.setdefault(int(pos_str), {})[key] = value
    return state


def _file_equals(path: str, payload: bytes) -> bool:
    """Whether the file at ``path`` holds exactly ``payload``."""
    if os.path.getsize(path) != len(payload):
        return False
    with open(path, "rb") as handle:
        return handle.read() == payload


# --------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------- #
class CorruptObjectError(ValueError):
    """A store object's bytes no longer hash to the SHA-256 that names it
    (bit rot, a torn copy, a tampered file).  ``digest`` is the name."""

    def __init__(self, digest: str):
        super().__init__(f"checkpoint object {digest} fails its SHA-256 "
                         f"check")
        self.digest = digest


@dataclass(frozen=True)
class WriteReceipt:
    """What one checkpoint write cost (feeds the runtime metrics)."""

    job_id: int
    payload_bytes: int        # serialized size of the checkpoint
    written_bytes: int        # bytes that hit disk (0 when deduplicated)
    seconds: float            # wall-clock write latency (encode + fsync)
    deduplicated: bool        # every object was already in the store


@dataclass
class SlotCheckpoint:
    """A loaded per-slot checkpoint: manifest plus decoded training state."""

    manifest: Dict[str, Any]
    model_state: Dict[str, np.ndarray] = field(default_factory=dict)
    optimizer_state: Dict[int, Dict[str, np.ndarray]] = \
        field(default_factory=dict)

    @property
    def progress(self) -> int:
        """Training steps the job had completed when this was taken."""
        return int(self.manifest["progress"])

    def resume_state(self) -> ResumeState:
        """The payload a requeued job resumes from."""
        return ResumeState(progress=self.progress,
                           loss_curve=list(self.manifest["loss_curve"]),
                           model_state=self.model_state,
                           optimizer_state=self.optimizer_state)


class CheckpointStore:
    """Content-addressed, crash-safe store for per-slot checkpoints.

    Layout under ``root``::

        objects/<aa>/<sha256>     immutable array payloads (model weights,
                                  per-slot optimizer state), named by the
                                  SHA-256 of their bytes
        manifests/job-<id>.json   latest manifest per job: progress, loss
                                  curve, object references, and the
                                  fused-array provenance (array id, slot,
                                  live/launch width, device, epoch)
        wal.jsonl                 the RecoveryManager's write-ahead log

    Every file is written to a temporary name in the same directory and
    published with :func:`os.replace`, so a reader (including a recovery
    run after a crash mid-write) only ever sees complete files.  Objects
    are immutable and deduplicated: re-checkpointing an unchanged slot
    (or two slots that happen to hold identical state) writes nothing.
    ``fsync=True`` additionally flushes each object and manifest to disk
    before publishing — the durable mode a production deployment wants;
    tests and benchmarks keep the default (the atomicity guarantee does
    not depend on it).
    """

    def __init__(self, root, fsync: bool = False):
        self.root = os.fspath(root)
        self.fsync = fsync
        self._objects_dir = os.path.join(self.root, "objects")
        self._manifests_dir = os.path.join(self.root, "manifests")
        os.makedirs(self._objects_dir, exist_ok=True)
        os.makedirs(self._manifests_dir, exist_ok=True)
        self._lock = threading.Lock()
        #: lifetime write accounting (monotonic; survives nothing — the
        #: durable truth is the filesystem, these feed metrics/benchmarks)
        self.objects_written = 0
        self.bytes_written = 0
        self.dedup_hits = 0

    # ------------------------------------------------------------------ #
    def _atomic_write(self, path: str, payload: bytes) -> None:
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "wb") as handle:
            handle.write(payload)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _put_object(self, payload: bytes) -> Tuple[str, int]:
        """Store ``payload`` content-addressed; returns (digest, bytes).

        A file already under the digest is a dedup hit only when its bytes
        equal ``payload``; a corrupt one is rewritten, so the job that
        retrains after a :class:`CorruptObjectError` heals its object."""
        digest = hashlib.sha256(payload).hexdigest()
        shard = os.path.join(self._objects_dir, digest[:2])
        path = os.path.join(shard, digest)
        with self._lock:
            if os.path.exists(path) and _file_equals(path, payload):
                self.dedup_hits += 1
                return digest, 0
            os.makedirs(shard, exist_ok=True)
            self._atomic_write(path, payload)
            self.objects_written += 1
            self.bytes_written += len(payload)
            return digest, len(payload)

    def _get_object(self, digest: str) -> bytearray:
        """The object's bytes, verified against its name; raises
        :class:`CorruptObjectError` when they no longer match."""
        # a writable buffer, so decode_arrays can hand out zero-copy
        # writable views instead of copying every restored array
        path = os.path.join(self._objects_dir, digest[:2], digest)
        size = os.path.getsize(path)
        buf = bytearray(size)
        with open(path, "rb") as handle:
            read = handle.readinto(buf)
        if read != size:
            del buf[read:]
        if hashlib.sha256(buf).hexdigest() != digest:
            raise CorruptObjectError(digest)
        return buf

    def _manifest_path(self, job_id: int) -> str:
        return os.path.join(self._manifests_dir, f"job-{int(job_id)}.json")

    # ------------------------------------------------------------------ #
    def save_slot(self, *, job_id: int, job: TrainingJob, progress: int,
                  loss_curve: Sequence[float],
                  model_state: Dict[str, np.ndarray],
                  optimizer_state: Dict[int, Dict[str, np.ndarray]],
                  provenance: Dict[str, Any],
                  final: bool = False,
                  stop_reason: Optional[str] = None) -> WriteReceipt:
        """Persist one slot's training state; returns the write receipt.

        ``provenance`` is the fused-array context the checkpoint was taken
        in (array id, slot index, live/launch width, device, epoch) —
        recorded for the operations trail, *not* required for
        restore: the payload is the job's own unfused state, so it resumes
        into whatever array shape the scheduler next packs it into.
        """
        start = time.perf_counter()
        model_payload = encode_arrays(model_state)
        optim_payload = encode_arrays(
            _flatten_optimizer_state(optimizer_state))
        model_ref, model_written = self._put_object(model_payload)
        optim_ref, optim_written = self._put_object(optim_payload)
        manifest = {
            "job_id": int(job_id),
            "name": job.name,
            "tenant": job.tenant,
            "priority": job.priority,
            "deadline_s": job.deadline_s,
            "steps": int(job.steps),
            "epoch_steps": int(job.epoch_steps),
            "workload": job.workload,
            "progress": int(progress),
            "loss_curve": [float(v) for v in loss_curve],
            "objects": {"model": model_ref, "optimizer": optim_ref},
            "provenance": dict(provenance),
            "final": bool(final),
            "stop_reason": stop_reason,
            "wall_time": time.time(),
        }
        self._atomic_write(self._manifest_path(job_id),
                           json.dumps(manifest, sort_keys=True,
                                      indent=1).encode("utf-8"))
        written = model_written + optim_written
        return WriteReceipt(
            job_id=int(job_id),
            payload_bytes=len(model_payload) + len(optim_payload),
            written_bytes=written,
            seconds=time.perf_counter() - start,
            deduplicated=written == 0)

    # ------------------------------------------------------------------ #
    def manifest(self, job_id: int) -> Optional[Dict[str, Any]]:
        """The job's latest manifest, or ``None`` if never checkpointed."""
        path = self._manifest_path(job_id)
        if not os.path.exists(path):
            return None
        with open(path, "rb") as handle:
            return json.loads(handle.read())

    def load_slot(self, job_id: int) -> Optional[SlotCheckpoint]:
        """The job's latest checkpoint with its arrays decoded, or None.
        Raises :class:`CorruptObjectError` when an object it references
        fails its digest check."""
        manifest = self.manifest(job_id)
        if manifest is None:
            return None
        model_state = decode_arrays(
            self._get_object(manifest["objects"]["model"]))
        optimizer_state = _unflatten_optimizer_state(
            decode_arrays(self._get_object(manifest["objects"]["optimizer"])))
        return SlotCheckpoint(manifest=manifest, model_state=model_state,
                              optimizer_state=optimizer_state)

    def job_ids(self) -> List[int]:
        """Every job id with a manifest on disk, ascending."""
        ids = []
        for entry in os.listdir(self._manifests_dir):
            if entry.startswith("job-") and entry.endswith(".json"):
                ids.append(int(entry[len("job-"):-len(".json")]))
        return sorted(ids)


# --------------------------------------------------------------------- #
# the write-ahead log and restart logic
# --------------------------------------------------------------------- #
class RecoveryManager:
    """The write-ahead log fold of the lifecycle events; rebuilds a fleet
    from disk.

    :meth:`record_event` appends one JSONL record per durable event to
    ``wal.jsonl`` in the store's root (``docs/runtime.md`` tables which
    kinds are durable); the restart logic adds its own ``replay``,
    ``recovered`` and ``unrecovered`` provenance.  Recovery reads two
    record types: ``admit`` (a job's serving contract — tenant, priority,
    absolute deadline, budget) and ``state`` (a terminal transition).  An
    admission with no terminal state is *unsettled*: it was in flight when
    the process died and is re-queued on restart.  ``array`` records are
    the operations trail of which fused array held which jobs where.

    Appends are serialized under a lock and flushed per record; with
    ``store.fsync`` they are also fsync'd, making the WAL exactly as
    durable as the checkpoints it indexes.
    """

    def __init__(self, store: CheckpointStore):
        self.store = store
        self.wal_path = os.path.join(store.root, "wal.jsonl")
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # journaling
    # ------------------------------------------------------------------ #
    def record_event(self, event: Event) -> None:
        """Append the WAL record of one lifecycle event (kinds that are not
        durable write nothing; ``docs/runtime.md`` tables them)."""
        kind, job_ids, job = event.kind, event.job_ids, event.data
        if kind in ("submit", "accept"):   # data: the admitted TrainingJob
            # deadline_s is absolute in the *gateway clock's* coordinates
            # (default time.monotonic): it survives a process restart on
            # the same machine, not a reboot — wall_time lets an operator
            # re-base it by hand (see docs/operations.md)
            record = {
                "type": "admit", "job_id": job_ids[0], "name": job.name,
                "tenant": job.tenant, "priority": job.priority,
                "deadline_s": job.deadline_s, "steps": int(job.steps),
                "epoch_steps": int(job.epoch_steps),
                "workload": job.workload, "user": job.user,
                "seed": int(job.seed), "loss": job.loss,
                "wall_time": time.time()}
        elif kind in _ARRAY_DATA:
            record = {"type": "array", "event": kind,
                      "array_id": event.array_id, "device": event.device,
                      "job_ids": list(job_ids)}
            if _ARRAY_DATA[kind] is not None:
                record[_ARRAY_DATA[kind]] = event.data
        elif kind in _STATE_OF:
            state = _STATE_OF[kind] or (
                JobState.CANCELLED if event.data[0] == StopReason.CANCELLED
                else JobState.COMPLETED)
            record = {"type": "state", "job_id": job_ids[0], "state": state}
        else:
            return
        self._append(record)

    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            with open(self.wal_path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
                if self.store.fsync:
                    os.fsync(handle.fileno())

    # ------------------------------------------------------------------ #
    # reading the log back
    # ------------------------------------------------------------------ #
    def entries(self) -> List[Dict[str, Any]]:
        """Every WAL record, in append order (empty when no log exists).

        A torn trailing line (the crash happened mid-append) is skipped:
        the record it belonged to never became durable, exactly like a
        write that never started.
        """
        if not os.path.exists(self.wal_path):
            return []
        out: List[Dict[str, Any]] = []
        with open(self.wal_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError:
                    continue
        return out

    def unsettled(self) -> Dict[int, Dict[str, Any]]:
        """Admission records with no terminal state — the jobs a restart
        must re-queue, keyed by their (old) job id, in admission order."""
        admits: Dict[int, Dict[str, Any]] = {}
        settled: Set[int] = set()
        for record in self.entries():
            if record.get("type") == "admit":
                admits[int(record["job_id"])] = record
            elif record.get("type") == "state" and \
                    record.get("state") in _SETTLED_STATES:
                settled.add(int(record["job_id"]))
        return {job_id: record for job_id, record in admits.items()
                if job_id not in settled}

    def next_job_id(self) -> int:
        """One past the highest job id this log has journaled (0 for an
        empty log): where a queue attached to the log must start
        numbering, so a restarted process never reuses an id whose
        records and manifests belong to a job of its predecessor."""
        return 1 + max((int(record["job_id"]) for record in self.entries()
                        if "job_id" in record), default=-1)

    def record_corrupt(self, job_id: int, exc: CorruptObjectError) -> None:
        """Journal that the job's checkpoint failed its digest check.  The
        rule every restore path follows: a corrupt checkpoint counts as no
        checkpoint, so the job restarts from step 0 (or from a resume
        payload it already holds in memory)."""
        self._append({"type": "corrupt", "job_id": int(job_id),
                      "digest": exc.digest})

    def resume_state(self, job_id: int) -> Optional[ResumeState]:
        """The job's latest durable checkpoint as a resume payload, or
        ``None`` when it never reached a checkpoint boundary or the
        checkpoint is corrupt (journaled by :meth:`record_corrupt`)."""
        try:
            checkpoint = self.store.load_slot(job_id)
        except CorruptObjectError as exc:
            self.record_corrupt(job_id, exc)
            return None
        if checkpoint is None or checkpoint.progress <= 0:
            return None
        return checkpoint.resume_state()

    # ------------------------------------------------------------------ #
    # restart
    # ------------------------------------------------------------------ #
    def replay_unsettled_jobs(self, jobs_by_name: Dict[str, TrainingJob],
                              fleet) -> List[Tuple[TrainingJob, int, bool]]:
        """The shared replay loop behind :meth:`rebuild_fleet` and
        :meth:`ServingGateway.replay_unsettled`.

        For every unsettled admission: restore the journaled serving
        contract onto the registered job (tenant, priority class,
        absolute deadline), submit it to ``fleet`` (its ``submit`` event
        journals the new admission), journal a ``replay`` provenance
        record linking the new id to the old one, settle the old id as
        ``recovered`` so a second restart cannot recover the same work
        twice, and attach the old id's latest durable checkpoint as the
        new submission's resume payload.  Jobs with no registered builder
        are journaled ``unrecovered`` and skipped.  Returns ``(job, new
        job id, resumed from a checkpoint)`` per replayed job.
        """
        replayed = []
        for old_id, record in self.unsettled().items():
            job = jobs_by_name.get(record["name"])
            if job is None:
                # an operator-visible gap in the log, not an exception
                self._append({"type": "unrecovered", "job_id": int(old_id),
                              "name": record["name"],
                              "reason": "no builder registered"})
                continue
            job.tenant = record.get("tenant", job.tenant)
            job.priority = record.get("priority", job.priority)
            job.deadline_s = record.get("deadline_s", job.deadline_s)
            new_id = fleet.submit(job)
            self._append({"type": "replay", "job_id": int(new_id),
                          "replayed_from": int(old_id)})
            self._append({"type": "state", "job_id": int(old_id),
                          "state": "recovered"})
            resume = self.resume_state(old_id)
            fleet.queue.get(new_id).resume = resume
            replayed.append((job, new_id, resume is not None))
        return replayed

    def rebuild_fleet(self, jobs_by_name: Dict[str, TrainingJob],
                      **fleet_kwargs):
        """Rebuild a :class:`FleetScheduler` from the WAL and the store.

        ``jobs_by_name`` supplies the *code* half of each journaled job
        (model builder + data stream), keyed by job name — checkpoints
        persist state, never closures.  For every unsettled admission the
        matching job is re-queued with its journaled serving contract
        (tenant, priority, absolute deadline) restored and its latest
        durable checkpoint attached as a resume payload; the next
        scheduling cycle re-places the work via the cost model like any
        other pending jobs.  Jobs whose name has no registered builder
        are skipped and reported in the returned fleet's journal (an
        ``unrecovered`` record) — losing code is an operator error the
        log should show, not silently swallow.

        ``fleet_kwargs`` construct the fresh fleet; it is wired to this
        manager (and its store) so the recovered run keeps checkpointing.
        """
        from .fleet import FleetScheduler   # runtime import: avoid cycle
        fleet_kwargs.setdefault("store", self.store)
        fleet_kwargs.setdefault("recovery", self)
        fleet_kwargs.setdefault("checkpoint_every", 1)
        fleet = FleetScheduler(**fleet_kwargs)
        for _, new_id, resumed in self.replay_unsettled_jobs(jobs_by_name,
                                                             fleet):
            if resumed:
                fleet.emit(Event("recover", (new_id,)))
        return fleet
