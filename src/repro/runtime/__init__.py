"""Dynamic training-array runtime: serve a live stream of training jobs.

The layers below this package implement *static* horizontal fusion: you
pick ``B`` identical models up front, call
:func:`repro.hfta.load_from_unfused`, and train one array.  This package
turns that library into a serving system — the piece a production ML
platform (in the sense of Ratner et al.'s MLSys agenda) would put in front
of a shared accelerator:

* :mod:`repro.runtime.queue`   — async-friendly intake of
  :class:`~repro.runtime.queue.TrainingJob` submissions;
* :mod:`repro.runtime.batcher` — groups pending jobs into fusible cohorts
  by structure (:mod:`repro.hfta.fusion`), infusible hyper-parameters,
  step budget, loss and workload — never by name;
* :mod:`repro.runtime.policy`  — sizes each array against a width cap,
  splitting oversized cohorts into capacity-sized chunks (partial fusion);
* :mod:`repro.runtime.engine`  — steps each array through the *elastic*
  lifecycle (``ArrayExecutor``: PENDING -> FUSED -> STEPPING ->
  DRAINED): per-slot progress and stop signals,
  live eviction of finished jobs via :func:`repro.hfta.split_fused`,
  admission of queued jobs into freed width via
  :func:`repro.hfta.merge_fused` — and hands every job its
  serial-equivalent checkpoint; a fleet drives exactly one;
* :mod:`repro.runtime.shards`  — the second CPU: an array of large slots
  is cut into one contiguous shard per allowed CPU, the upper shards
  trained in forked shard worker processes;
* :mod:`repro.runtime.placement` — hardware-aware placement: ranks the
  fleet's devices per array with the :mod:`repro.hwsim` cost model
  (:func:`repro.hwsim.estimate_array_cost`), partial-fusion fallback when
  a cohort exceeds the chosen device's memory cap;
* :mod:`repro.runtime.placement_lp` — global placement as an assignment
  LP: the whole cycle solved at once with ``scipy.optimize.linprog``
  (deterministic greedy rounding as the always-on fallback and floor),
  objective mixing projected completion, SLO urgency and fused-width
  efficiency (``FleetScheduler(placement="lp")``);
* :mod:`repro.runtime.fleet`   — the multi-device scheduler: one engine,
  and per device a spec, a work queue and a timeline, drained by one
  deterministic event loop (the same on ``execution="real"`` and
  ``"sim"``); a live array trains on the device it was placed on, at its
  width cap, until it drains; quarantine-and-retry failure isolation;
* :mod:`repro.runtime.metrics` — the lifecycle event stream and the
  counters folded from it: throughput/occupancy in the conventions of
  ``benchmarks/test_fig*_counters.py``, per-device utilization,
  per-tenant admission/SLO/consumption counters, and the fleet-level
  aggregate-throughput report;
* :mod:`repro.runtime.gateway` — the multi-tenant front door: per-tenant
  token-bucket rate limits and quotas, weighted-fair + priority
  admission, SLO deadlines driving placement order and eviction-based
  preemption, bounded-queue backpressure with shed/retry-after;
* :mod:`repro.runtime.sim`     — the virtual-time simulation backend:
  ``execution="sim"`` swaps the training physics for
  :mod:`repro.hwsim` cost-model projections on an injectable
  :class:`~repro.runtime.sim.VirtualClock` (same lifecycle code, no
  tensors, no wall clock), with
  :class:`~repro.runtime.sim.TraceReplayer` feeding timestamped
  arrival traces and a fleet-level ``chaos`` hook injecting simulated
  device deaths — one process simulates 100k jobs over 1k devices
  (``benchmarks/test_scale.py``);
* :mod:`repro.runtime.checkpoint` — durability: a content-addressed,
  atomic :class:`~repro.runtime.checkpoint.CheckpointStore` for per-slot
  training state (model weights + per-slot optimizer state + progress)
  and a write-ahead-log
  :class:`~repro.runtime.checkpoint.RecoveryManager` that folds the
  event stream into a log and rebuilds a fleet from disk after a crash
  — recovered jobs resume bit-exactly from their last checkpoint.

Quickstart (single device)::

    from repro.runtime import TrainingArrayEngine, TrainingJob, ArrayPolicy

    engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
    for job in my_jobs:                   # heterogeneous TrainingJobs
        engine.submit(job)
    results = engine.run_until_idle()     # {job_id: JobResult}

Fleet scale::

    from repro.hwsim import V100, RTX6000, A100, TPU_V3
    from repro.runtime import FleetScheduler

    fleet = FleetScheduler(devices=(V100, RTX6000, A100, TPU_V3),
                           max_width=4)
    fleet.submit_all(my_jobs)             # jobs may hint .workload
    results = fleet.run_until_idle()      # same JobResult contract
    rows, header = fleet.metrics.fleet_report()   # per-device counters

See ``docs/architecture.md`` for the full data-flow diagram and the map
of the documentation tree (``docs/runtime.md``, ``docs/elasticity.md``,
``docs/gateway.md``, ``docs/placement.md``, ``docs/checkpointing.md``,
``docs/simulation.md``, ``docs/operations.md``, ``docs/api.md``), and
``examples/runtime_serving.py`` /
``examples/fleet_serving.py`` / ``examples/crash_recovery.py`` for
end-to-end serving sessions.
"""

from .queue import (JobState, StopReason, TrainingJob, SubmittedJob,
                    JobQueue, ResumeState)
from .batcher import Batcher, Cohort, DEFAULT_INFUSIBLE_KEYS
from .bufferpool import BufferPool
from .policy import ArrayPlan, ArrayPolicy
from .engine import (ArrayExecutor, ArrayState, JobResult,
                     TrainingArrayEngine)
from .metrics import ArrayRecord, Event, RuntimeMetrics
from .placement import (DEFAULT_FLEET, FleetPlacer, PlacementDecision,
                        synthetic_fleet)
from .placement_lp import (LPFleetPlacer, LPWeights, PlacementInstance,
                           PlacementSolution, lp_available, solve_instance)
from .checkpoint import (CheckpointStore, CorruptObjectError,
                         RecoveryManager, SlotCheckpoint, WriteReceipt)
from .fleet import DeviceWorker, FleetScheduler
from .gateway import (AdmissionTicket, ServingGateway, ShedReason,
                      TenantSpec)
from .sim import (SimulatedCrash, TraceReplayer, VirtualClock,
                  default_sim_loss)

__all__ = [
    "JobState", "TrainingJob", "SubmittedJob", "JobQueue", "ResumeState",
    "Batcher", "Cohort", "DEFAULT_INFUSIBLE_KEYS",
    "BufferPool",
    "ArrayPlan", "ArrayPolicy",
    "ArrayExecutor", "ArrayState", "JobResult", "StopReason",
    "TrainingArrayEngine",
    "ArrayRecord", "Event", "RuntimeMetrics",
    "DEFAULT_FLEET", "FleetPlacer", "PlacementDecision", "synthetic_fleet",
    "LPFleetPlacer", "LPWeights", "PlacementInstance", "PlacementSolution",
    "lp_available", "solve_instance",
    "CheckpointStore", "CorruptObjectError", "RecoveryManager",
    "SlotCheckpoint", "WriteReceipt",
    "DeviceWorker", "FleetScheduler",
    "AdmissionTicket", "ServingGateway", "ShedReason", "TenantSpec",
    "SimulatedCrash", "TraceReplayer", "VirtualClock",
    "default_sim_loss",
]
