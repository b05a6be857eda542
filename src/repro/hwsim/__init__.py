"""Analytical accelerator performance / memory / utilization simulator.

The paper's evaluation hardware (V100, RTX6000, A100 GPUs and TPU v3) is not
available in this environment, so the evaluation substrate is an analytical
model that encodes the mechanisms the paper identifies:

* small per-job kernels cannot fill a large accelerator (low ``sm_active`` /
  ``tensor_active``), and the newer/wider the device the worse this gets;
* process-based sharing (concurrent, MPS, MIG) duplicates kernel launch and
  GEMM setup overheads and the per-process framework memory overhead, and is
  capped by scheduling granularity;
* HFTA's horizontally fused kernels are ``B`` times larger, so utilization —
  and, under AMP, tensor-core efficiency — climbs with the number of fused
  models while overheads stay constant.

See ``DESIGN.md`` for the substitution argument and ``EXPERIMENTS.md`` for
paper-vs-simulated numbers.
"""

from .devices import (DeviceSpec, GPU_SPECS, TPU_SPECS, get_device,
                      profile_key, V100, RTX6000, A100, P100, T4, TPU_V3)
from .kernels import (KernelSpec, KernelCost, kernel_cost, gemm_kernel,
                      conv2d_kernels, conv1d_kernels, linear_kernels,
                      elementwise_kernel, norm_kernels, optimizer_kernels)
from .workloads import (WorkloadSpec, get_workload, WORKLOADS,
                        MAJOR_WORKLOADS, SECONDARY_WORKLOADS, pointnet_cls,
                        pointnet_seg, dcgan, resnet18, mobilenet_v3_large,
                        transformer_lm, bert_medium)
from .sharing import (SharingResult, SHARING_MODES, simulate, max_models,
                      throughput_sweep, memory_footprint_gb,
                      ArrayCostEstimate, estimate_array_cost)
from .analysis import (normalized_curve, serial_reference, peak_throughput,
                       peak_speedups, equal_models_speedups,
                       amp_over_fp32_speedups, baseline_modes,
                       partial_fusion_iteration_time,
                       RESNET18_BLOCK_PREFIXES)

__all__ = [
    "DeviceSpec", "GPU_SPECS", "TPU_SPECS", "get_device", "profile_key",
    "V100", "RTX6000", "A100", "P100", "T4", "TPU_V3",
    "KernelSpec", "KernelCost", "kernel_cost", "gemm_kernel",
    "conv2d_kernels", "conv1d_kernels", "linear_kernels",
    "elementwise_kernel", "norm_kernels", "optimizer_kernels",
    "WorkloadSpec", "get_workload", "WORKLOADS", "MAJOR_WORKLOADS",
    "SECONDARY_WORKLOADS", "pointnet_cls", "pointnet_seg", "dcgan",
    "resnet18", "mobilenet_v3_large", "transformer_lm", "bert_medium",
    "SharingResult", "SHARING_MODES", "simulate", "max_models",
    "throughput_sweep", "memory_footprint_gb",
    "ArrayCostEstimate", "estimate_array_cost",
    "normalized_curve", "serial_reference", "peak_throughput",
    "peak_speedups", "equal_models_speedups", "amp_over_fp32_speedups",
    "baseline_modes", "partial_fusion_iteration_time",
    "RESNET18_BLOCK_PREFIXES",
]
