"""Hardware-sharing execution models: serial, concurrent, MPS, MIG, HFTA.

This is the evaluation substrate that regenerates the paper's Figures 4-7 and
13-17 and Tables 5 and 8-10.  Given a workload's per-iteration kernel list
(:mod:`repro.hwsim.workloads`) and a device (:mod:`repro.hwsim.devices`), it
models how long one training iteration takes when ``B`` identical jobs share
the accelerator under each scheme, and what the DCGM hardware counters
(``sm_active``, ``sm_occupancy``, ``tensor_active``) read during that time.

The five schemes differ in exactly the ways Section 2.2 / Section 5.3 of the
paper describe:

``serial``
    One job owns the device.  Small kernels cannot fill it, so utilization is
    low and throughput per device equals one job's throughput.
``concurrent``
    ``B`` independent processes time-share the device *without* MPS: kernels
    from different processes cannot overlap, so the device-wide utilization
    (and per-device throughput) stays at the serial level, while the host
    CPUs and the framework memory overhead are paid ``B`` times.
``mps``
    Kernels from different processes may overlap via Hyper-Q, but each kernel
    keeps its original (small) size, the per-kernel launch/setup overheads are
    duplicated, and the aggregate utilization is capped well below full
    occupancy.
``mig``
    The device is split into up to 7 isolated instances; each job gets a
    slice.  Utilization *within* a slice improves (the slice is smaller) but
    each slice has 1/7 of the compute/bandwidth/memory and the partitioning
    is too coarse when more than 7 jobs are available.
``hfta``
    The ``B`` jobs are horizontally fused into one process whose kernels are
    ``B`` times larger: utilization climbs with ``B``, launch overheads and
    framework memory overhead are paid once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .devices import DeviceSpec, profile_key
from .kernels import KernelCost, KernelSpec, kernel_cost
from .workloads import WorkloadSpec, get_workload

__all__ = ["SharingMode", "SharingResult", "simulate", "max_models",
           "throughput_sweep", "memory_footprint_gb", "SHARING_MODES",
           "ArrayCostEstimate", "estimate_array_cost"]

SHARING_MODES = ("serial", "concurrent", "mps", "mig", "hfta")

#: how many kernel launches the host/driver can issue concurrently under MPS
_MPS_LAUNCH_PARALLELISM = 2.0
#: fraction of ``sm_active`` that registers as resident-warp occupancy
_OCCUPANCY_RATIO = 0.55


SharingMode = str


@dataclass
class SharingResult:
    """Outcome of simulating ``num_jobs`` jobs sharing one device."""

    workload: str
    device: str
    mode: SharingMode
    precision: str
    num_jobs: int
    fits: bool
    iteration_time_s: float          # time for every job to finish one iteration
    throughput: float                # samples / second, whole device
    memory_gb: float                 # device memory footprint
    sm_active: float
    sm_occupancy: float
    tensor_active: float
    gpu_util_nvidia_smi: float       # the coarse "GPU utilization" metric (Fig 13)


# --------------------------------------------------------------------- #
# Memory model
# --------------------------------------------------------------------- #
def memory_footprint_gb(workload: WorkloadSpec, device: DeviceSpec,
                        mode: SharingMode, num_jobs: int,
                        precision: str = "fp32") -> float:
    """Device-memory footprint of ``num_jobs`` jobs under ``mode``.

    HFTA runs all models inside one process, so the framework overhead is a
    single intercept and the footprint grows linearly with slope
    ``model_memory_gb`` (Figure 6); the process-based schemes pay the
    intercept per job.
    """
    overhead = device.framework_overhead_gb(precision)
    per_model = workload.model_memory_gb * (0.85 if precision == "amp" else 1.0)
    if mode == "hfta":
        return overhead + num_jobs * per_model
    return num_jobs * (overhead + per_model)


def _fits(workload: WorkloadSpec, device: DeviceSpec, mode: SharingMode,
          num_jobs: int, precision: str) -> bool:
    if mode == "mig":
        instances = max(device.mig_max_instances, 1)
        if device.mig_max_instances == 0:
            return False
        per_instance_mem = device.mem_gb / instances
        jobs_per_instance = int(np.ceil(num_jobs / instances))
        need = jobs_per_instance * (device.framework_overhead_gb(precision)
                                    + workload.model_memory_gb
                                    * (0.85 if precision == "amp" else 1.0))
        return need <= per_instance_mem
    return memory_footprint_gb(workload, device, mode, num_jobs,
                               precision) <= device.mem_gb


def max_models(workload: WorkloadSpec, device: DeviceSpec, mode: SharingMode,
               precision: str = "fp32", limit: int = 256) -> int:
    """Largest number of jobs/models that fit on the device under ``mode``."""
    best = 0
    for b in range(1, limit + 1):
        if _fits(workload, device, mode, b, precision):
            best = b
        else:
            break
    return best


# --------------------------------------------------------------------- #
# Execution model
# --------------------------------------------------------------------- #
def _job_profile(kernels: Sequence[KernelSpec], device: DeviceSpec,
                 precision: str) -> Dict[str, float]:
    """Aggregate one job's (or one fused array's) kernel costs."""
    costs: List[KernelCost] = [kernel_cost(k, device, precision)
                               for k in kernels]
    busy = sum(c.busy_time_s for c in costs)
    launch = sum(c.time_s - c.busy_time_s for c in costs)
    total = busy + launch
    if busy > 0:
        # DCGM's sm_active counts cycles with resident warps: memory-bound
        # kernels keep SMs occupied (stalled on memory) even though their
        # compute efficiency is low, hence the max() with a discounted
        # memory-utilization term.
        sm_active = sum(
            c.busy_time_s * max(c.compute_utilization,
                                0.6 * c.memory_utilization)
            for c in costs) / total
        tensor_active = sum(c.busy_time_s * c.tensor_core_active
                            for c in costs) / total
    else:  # pragma: no cover - degenerate workload
        sm_active = tensor_active = 0.0
    return {
        "busy": busy,
        "launch": launch,
        "total": total,
        "sm_active": sm_active,
        "tensor_active": tensor_active,
    }


def _host_pipeline_time(workload: WorkloadSpec, device: DeviceSpec,
                        num_jobs: int) -> float:
    """Total host-side (data-loading / preprocessing) time for one iteration of
    each of ``num_jobs`` independent processes.

    Input pipelines of different processes run on different cores and overlap
    with each other (and with GPU execution), but once the aggregate CPU
    demand exceeds the VM's cores the processes thrash and slow each other
    down super-linearly — the paper's "host resource contention" that makes
    the concurrent and MPS DCGAN curves *decrease* as more jobs are added
    (Section 5.1, third observation).
    """
    if workload.host_s_per_iteration <= 0:
        return 0.0
    capacity = max(1.0, device.host_cpus / max(workload.host_cpu_demand, 1e-6))
    parallelism = min(float(num_jobs), capacity)
    oversubscription = max(1.0, num_jobs * workload.host_cpu_demand
                           / device.host_cpus)
    thrash_penalty = oversubscription ** 1.5
    return (num_jobs * workload.host_s_per_iteration / parallelism
            * thrash_penalty)


def _pseudo_noise(*key, spread: float = 0.15) -> float:
    """Deterministic pseudo-random value in ``[-spread, +spread]``."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    u = int.from_bytes(digest[:4], "little") / 2 ** 32
    return (2 * u - 1) * spread


def simulate(workload: WorkloadSpec, device: DeviceSpec, mode: SharingMode,
             num_jobs: int = 1, precision: str = "fp32") -> SharingResult:
    """Simulate ``num_jobs`` identical jobs sharing ``device`` under ``mode``."""
    if mode not in SHARING_MODES:
        raise ValueError(f"unknown sharing mode '{mode}'; choose from "
                         f"{SHARING_MODES}")
    if num_jobs < 1:
        raise ValueError("num_jobs must be >= 1")
    if precision not in ("fp32", "amp"):
        raise ValueError("precision must be 'fp32' or 'amp'")
    if precision == "amp" and not device.supports_amp:
        precision = "fp32"

    fits = _fits(workload, device, mode, num_jobs, precision)
    memory = memory_footprint_gb(workload, device, mode, num_jobs, precision)
    samples = workload.samples_per_iteration * num_jobs

    if mode == "hfta":
        fused = [k.fused(num_jobs) for k in workload.kernels]
        prof = _job_profile(fused, device, precision)
        # One process, one shared input pipeline: host time is paid once and
        # largely overlaps with the (much longer) fused device time.
        host = workload.host_s_per_iteration
        iteration_time = max(prof["total"], host) + 0.1 * min(prof["total"], host)
        sm_active = prof["sm_active"]
        tensor_active = prof["tensor_active"]

    elif mode == "serial":
        # One job owns the device; its own input pipeline cannot overlap with
        # its own GPU work beyond simple prefetching (single process, Python
        # data loader), so a fraction of the host time lands on the critical
        # path.  ``num_jobs > 1`` means running the jobs back-to-back.
        prof = _job_profile(workload.kernels, device, precision)
        host = _host_pipeline_time(workload, device, 1)
        per_job = prof["total"] + 0.8 * host
        iteration_time = per_job * num_jobs
        sm_active = prof["sm_active"]
        tensor_active = prof["tensor_active"]

    elif mode == "concurrent":
        # Kernels from different processes time-multiplex (no overlap), but
        # one process's input pipeline overlaps with other processes' GPU
        # time — until the host CPUs are oversubscribed.
        prof = _job_profile(workload.kernels, device, precision)
        gpu_time = prof["total"] * num_jobs
        host_time = _host_pipeline_time(workload, device, num_jobs)
        iteration_time = max(gpu_time, host_time)
        sm_active = prof["sm_active"] * min(1.0, gpu_time / iteration_time)
        tensor_active = prof["tensor_active"] * min(1.0, gpu_time / iteration_time)

    elif mode == "mps":
        if device.mps_utilization_cap <= 0:
            raise ValueError(f"{device.name} does not support MPS")
        prof = _job_profile(workload.kernels, device, precision)
        u_single = max(prof["sm_active"], 1e-4)
        overlap = min(float(num_jobs),
                      device.mps_utilization_cap / u_single)
        overlap = max(overlap, 1.0) * device.mps_interference
        overlap = max(overlap, 1.0) if num_jobs > 1 else 1.0
        compute_time = num_jobs * prof["busy"] / overlap
        launch_time = (num_jobs * prof["launch"]
                       / min(float(num_jobs), _MPS_LAUNCH_PARALLELISM))
        host_time = _host_pipeline_time(workload, device, num_jobs)
        iteration_time = max(compute_time + launch_time, host_time)
        sm_active = min(device.mps_utilization_cap, u_single * num_jobs)
        tensor_active = min(device.mps_utilization_cap,
                            prof["tensor_active"] * num_jobs)

    else:  # mig
        if device.mig_max_instances == 0:
            raise ValueError(f"{device.name} does not support MIG")
        instances = device.mig_max_instances
        slice_device = device.scaled(1.0 / instances)
        prof = _job_profile(workload.kernels, slice_device, precision)
        used_instances = min(num_jobs, instances)
        jobs_per_instance = int(np.ceil(num_jobs / used_instances))
        gpu_time = prof["total"] * jobs_per_instance
        host_time = _host_pipeline_time(workload, device, num_jobs)
        iteration_time = max(gpu_time, host_time)
        # Device-wide counters: each active slice contributes 1/instances.
        sm_active = prof["sm_active"] * used_instances / instances
        tensor_active = prof["tensor_active"] * used_instances / instances

    throughput = samples / iteration_time if fits else 0.0
    sm_occupancy = sm_active * _OCCUPANCY_RATIO
    # nvidia-smi's "GPU utilization" only reports whether *any* kernel was
    # resident during the sampling window — it saturates quickly and is a
    # weak signal (paper Figure 13); model it as a high, noisy value.
    busy_fraction = min(1.0, 0.70 + 0.3 * sm_active)
    gpu_util = float(np.clip(busy_fraction
                             + _pseudo_noise(workload.name, device.name, mode,
                                             num_jobs, precision), 0.0, 1.0))

    return SharingResult(
        workload=workload.name, device=device.name, mode=mode,
        precision=precision, num_jobs=num_jobs, fits=fits,
        iteration_time_s=iteration_time,
        throughput=throughput, memory_gb=memory,
        sm_active=float(sm_active), sm_occupancy=float(sm_occupancy),
        tensor_active=float(tensor_active), gpu_util_nvidia_smi=gpu_util)


@dataclass(frozen=True)
class ArrayCostEstimate:
    """Projected cost of training one fused-array plan on one device."""

    workload: str
    device: str
    precision: str
    num_models: int
    steps: int
    fits: bool
    iteration_time_s: float
    throughput: float                # samples/s, whole array
    memory_gb: float
    train_seconds: float             # steps * iteration_time_s


#: process-wide memo behind :func:`estimate_array_cost`: (workload identity,
#: :func:`profile_key`, precision, width) -> (workload, HFTA projection).
#: The workload is keyed by ``id`` with a strong reference kept beside the
#: result — never by name, ``dataclasses.replace`` variants share names —
#: and, as :func:`get_workload` already asks, must not be mutated.  Bounded
#: by clear-on-overflow.
_HFTA_PROJECTIONS: Dict[Tuple, Tuple[WorkloadSpec, SharingResult]] = {}


def _hfta_projection(workload: WorkloadSpec, device: DeviceSpec,
                     num_models: int, precision: str) -> SharingResult:
    """Memoized ``simulate(workload, device, "hfta", num_models,
    precision)``; the result's ``device`` names whichever replica of the
    profile asked first."""
    key = (id(workload), profile_key(device), precision, num_models)
    hit = _HFTA_PROJECTIONS.get(key)
    if hit is None or hit[0] is not workload:
        if len(_HFTA_PROJECTIONS) >= 4096:
            _HFTA_PROJECTIONS.clear()
        hit = _HFTA_PROJECTIONS[key] = (
            workload, simulate(workload, device, "hfta", num_models,
                               precision))
    return hit[1]


def estimate_array_cost(plan, device: DeviceSpec, precision: str = "amp",
                        workload: Optional[WorkloadSpec] = None
                        ) -> ArrayCostEstimate:
    """Cost-model projection for placing a fused-array plan on ``device``.

    ``plan`` is duck-typed so this layer stays below the runtime: it needs
    ``num_models`` and optionally ``steps`` (defaults to 1) and ``workload``
    (an hwsim workload name, resolved via :func:`get_workload`).  An explicit
    ``workload`` argument overrides the plan's hint.  The projection is the
    HFTA sharing model (:func:`simulate`): the array runs as one process
    whose kernels are ``num_models`` times larger.

    The fleet placer (:mod:`repro.runtime.placement`) ranks devices by the
    returned ``train_seconds`` / ``throughput``; ``fits`` is ``False`` when
    the array's memory footprint exceeds the device.

    The projection is priced once per process and (workload object, device
    profile, precision, width) — every placer, simulated engine, gateway
    and recovery shares it — and re-stamped with the caller's device name
    and steps.
    """
    if workload is None:
        hint = getattr(plan, "workload", None)
        if hint is None:
            raise ValueError(
                "plan carries no workload hint; pass workload= explicitly "
                "or set TrainingJob.workload to an hwsim workload name")
        workload = hint if isinstance(hint, WorkloadSpec) else \
            get_workload(str(hint))
    num_models = int(plan.num_models)
    steps = int(getattr(plan, "steps", 1))
    result = _hfta_projection(workload, device, num_models, precision)
    return ArrayCostEstimate(
        workload=workload.name, device=device.name, precision=result.precision,
        num_models=num_models, steps=steps, fits=result.fits,
        iteration_time_s=result.iteration_time_s,
        throughput=result.throughput, memory_gb=result.memory_gb,
        train_seconds=steps * result.iteration_time_s)


def throughput_sweep(workload: WorkloadSpec, device: DeviceSpec,
                     mode: SharingMode, precision: str = "fp32",
                     max_jobs: Optional[int] = None) -> List[SharingResult]:
    """Simulate 1..max_jobs jobs under ``mode`` (stopping at the memory limit).

    This regenerates one curve of Figure 4/5/15/16: normalized throughput as
    the number of models sharing the device grows.
    """
    limit = max_models(workload, device, mode, precision)
    if limit == 0:
        return []
    if max_jobs is not None:
        limit = min(limit, max_jobs)
    return [simulate(workload, device, mode, b, precision)
            for b in range(1, limit + 1)]
