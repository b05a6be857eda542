"""Accelerator specifications for the analytical performance model.

The paper evaluates on three generations of NVIDIA data-center GPUs (V100,
RTX6000, A100 — Table 3/4) and on Google TPU v3 (Table 2/4).  The fields
below are the published specifications plus a small number of modelling
constants (saturation work sizes, sharing caps, launch overheads) that encode
*why* repetitive single-accelerator jobs under-utilize these devices:

* ``sat_work_fp32`` / ``sat_work_tc`` — the amount of parallel work (output
  elements of a kernel) needed to reach ~50% of peak FP32 / tensor-core
  throughput.  Newer, wider devices need more parallel work to fill, which is
  exactly the paper's observation that "the largest accelerators suffer from
  under-utilization the most".
* ``framework_overhead_gb_*`` — per-process GPU memory reserved by the DL
  framework stack (the paper measures 1.52 GB for FP32 and 2.12 GB for AMP
  as the intercepts of Figure 6).  HFTA pays this once; MPS/concurrent pay it
  once *per job*.
* ``mps_utilization_cap`` — the maximum aggregate SM utilization reachable by
  overlapping kernels from independent processes via MPS/Hyper-Q; bounded
  well below 1.0 by scheduling granularity and duplicated per-kernel setup
  (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Dict, Tuple

__all__ = ["DeviceSpec", "GPU_SPECS", "TPU_SPECS", "get_device",
           "profile_key", "V100", "RTX6000", "A100", "P100", "T4", "TPU_V3"]


@dataclass(frozen=True)
class DeviceSpec:
    """An accelerator plus the constants of the analytical cost model."""

    name: str
    kind: str                       # "gpu" or "tpu"
    year: int
    num_sms: int                    # SMs (GPU) or MXUs (TPU)
    fp32_tflops: float              # peak FP32 throughput
    tensor_tflops: float            # peak tensor-core / MXU (mixed precision)
    mem_gb: float                   # device memory (HBM) capacity
    mem_bw_gbps: float              # device memory bandwidth
    kernel_launch_us: float = 12.0  # per-kernel launch + setup latency
    sat_work_fp32: float = 4.0e6    # work items for ~50% of FP32 peak
    sat_work_tc: float = 6.0e7      # work items for ~50% of TC peak
    sat_bytes: float = 5.0e7        # bytes in flight for ~50% of memory BW
    framework_overhead_gb_fp32: float = 1.52
    framework_overhead_gb_amp: float = 2.12
    mps_utilization_cap: float = 0.40
    mps_interference: float = 0.75  # per-kernel slowdown when co-running via MPS
    mig_max_instances: int = 0      # 0 = MIG unavailable
    host_cpus: int = 8              # vCPUs of the VM driving the device
    host_cpu_per_job: float = 1.0   # CPU cores a single training process needs
    supports_amp: bool = True
    xla_padding_overhead: float = 0.0   # TPU-only: wasted fraction for small dims

    def framework_overhead_gb(self, precision: str) -> float:
        """Per-process framework memory overhead for ``precision``."""
        if precision == "amp":
            return self.framework_overhead_gb_amp
        return self.framework_overhead_gb_fp32

    def scaled(self, fraction: float) -> "DeviceSpec":
        """Return a proportionally scaled slice of this device (MIG instance)."""
        return replace(
            self,
            name=f"{self.name}-slice",
            num_sms=max(1, int(self.num_sms * fraction)),
            fp32_tflops=self.fp32_tflops * fraction,
            tensor_tflops=self.tensor_tflops * fraction,
            mem_gb=self.mem_gb * fraction,
            mem_bw_gbps=self.mem_bw_gbps * fraction,
            sat_work_fp32=self.sat_work_fp32 * fraction ** 0.5,
            sat_work_tc=self.sat_work_tc * fraction ** 0.5,
            sat_bytes=self.sat_bytes * fraction ** 0.5,
            mig_max_instances=0,
        )


_profile = attrgetter(*(f.name for f in fields(DeviceSpec)
                        if f.name != "name"))


def profile_key(device: DeviceSpec) -> Tuple:
    """A device's cost-model identity, which every cost memo keys it by:
    every field but its name (renamed replicas cost the same)."""
    return _profile(device)


# --------------------------------------------------------------------- #
# NVIDIA data-center GPUs (paper Table 3 / Table 4)
# --------------------------------------------------------------------- #
P100 = DeviceSpec(
    name="P100", kind="gpu", year=2016, num_sms=56,
    fp32_tflops=9.3, tensor_tflops=0.0, mem_gb=16, mem_bw_gbps=732,
    sat_work_fp32=2.0e6, sat_work_tc=3.0e7, sat_bytes=3.0e7,
    supports_amp=False, host_cpus=8)

V100 = DeviceSpec(
    name="V100", kind="gpu", year=2018, num_sms=80,
    fp32_tflops=15.7, tensor_tflops=125.0, mem_gb=16, mem_bw_gbps=900,
    sat_work_fp32=8.0e6, sat_work_tc=6.0e7, sat_bytes=1.5e8,
    host_cpus=8)

T4 = DeviceSpec(
    name="T4", kind="gpu", year=2018, num_sms=40,
    fp32_tflops=8.1, tensor_tflops=65.0, mem_gb=16, mem_bw_gbps=320,
    sat_work_fp32=2.0e6, sat_work_tc=3.0e7, sat_bytes=4.0e7,
    host_cpus=8)

RTX6000 = DeviceSpec(
    name="RTX6000", kind="gpu", year=2018, num_sms=72,
    fp32_tflops=16.3, tensor_tflops=130.0, mem_gb=24, mem_bw_gbps=672,
    sat_work_fp32=7.0e6, sat_work_tc=5.5e7, sat_bytes=1.2e8,
    host_cpus=8)

A100 = DeviceSpec(
    name="A100", kind="gpu", year=2020, num_sms=108,
    fp32_tflops=19.5, tensor_tflops=312.0, mem_gb=40, mem_bw_gbps=1600,
    sat_work_fp32=1.6e7, sat_work_tc=2.5e8, sat_bytes=3.0e8,
    mig_max_instances=7, host_cpus=12)

# --------------------------------------------------------------------- #
# Google Cloud TPU v3 (per-core view, as in the paper's Figure 5)
# --------------------------------------------------------------------- #
TPU_V3 = DeviceSpec(
    name="TPUv3", kind="tpu", year=2018, num_sms=2,
    fp32_tflops=4.0, tensor_tflops=61.0, mem_gb=16, mem_bw_gbps=900,
    kernel_launch_us=4.0,
    sat_work_fp32=8.0e6, sat_work_tc=8.0e7, sat_bytes=1.5e8,
    framework_overhead_gb_fp32=0.8, framework_overhead_gb_amp=0.8,
    mps_utilization_cap=0.0,   # no process-level sharing on TPUs
    host_cpus=8,
    xla_padding_overhead=0.35)

GPU_SPECS: Dict[str, DeviceSpec] = {
    "P100": P100, "V100": V100, "T4": T4, "RTX6000": RTX6000, "A100": A100,
}
TPU_SPECS: Dict[str, DeviceSpec] = {"TPUv3": TPU_V3}


def get_device(name: str) -> DeviceSpec:
    """Look up a device by name (case-insensitive)."""
    table = {**GPU_SPECS, **TPU_SPECS}
    for key, spec in table.items():
        if key.lower() == name.lower():
            return spec
    raise KeyError(f"unknown device '{name}'; available: {sorted(table)}")
