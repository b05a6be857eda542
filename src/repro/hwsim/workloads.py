"""Per-iteration kernel workloads of the paper's benchmark models.

For every benchmark (Section 4 / Appendix H.1) this module builds the list of
device kernels one *unfused* training iteration issues — forward GEMMs,
backward GEMMs, normalization/activation kernels, and the optimizer update —
at the paper's batch sizes, plus the per-model device-memory footprint.  The
sharing simulator (:mod:`repro.hwsim.sharing`) then evaluates the same
iteration under serial / concurrent / MPS / MIG / HFTA execution: HFTA
*fuses* the kernels (``KernelSpec.fused(B)``), the process-based schemes
*replicate* them.

The layer dimensions are taken directly from the model definitions in
:mod:`repro.models`; the memory constants are calibrated so that the maximum
number of co-resident models per GPU matches the paper's reported counts
(e.g. ~9 AMP PointNet-classification models on a 16 GB V100 under HFTA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .kernels import (KernelSpec, conv1d_kernels, conv2d_kernels,
                      elementwise_kernel, linear_kernels, norm_kernels,
                      optimizer_kernels)

__all__ = ["WorkloadSpec", "pointnet_cls", "pointnet_seg", "dcgan",
           "resnet18", "mobilenet_v3_large", "transformer_lm", "bert_medium",
           "get_workload", "WORKLOADS", "MAJOR_WORKLOADS",
           "SECONDARY_WORKLOADS"]


@dataclass
class WorkloadSpec:
    """One benchmark's per-iteration kernel list and memory footprint."""

    name: str
    batch_size: int
    kernels: List[KernelSpec]
    parameters_m: float          # trainable parameters, millions (per model)
    model_memory_gb: float       # per-model device memory (weights + optimizer
                                 # states + activations + data buffers)
    host_cpu_demand: float       # host CPU cores needed by one job's input pipeline
    iterations_per_epoch: int    # used by HFHT to convert epochs to time
    host_s_per_iteration: float = 0.0   # CPU-side time (data loading /
                                 # preprocessing) per iteration of one job
    description: str = ""

    @property
    def samples_per_iteration(self) -> int:
        return self.batch_size


# --------------------------------------------------------------------- #
# Builders for common sub-structures
# --------------------------------------------------------------------- #
def _pointwise_conv1d_stack(prefix: str, batch: int, points: int,
                            channels: Sequence[int]) -> List[KernelSpec]:
    """A PointNet-style stack of 1x1 Conv1d + BN + ReLU layers."""
    kernels: List[KernelSpec] = []
    for i, (c_in, c_out) in enumerate(zip(channels[:-1], channels[1:])):
        kernels += conv1d_kernels(f"{prefix}.conv{i}", batch, c_in, c_out,
                                  points, 1)
        kernels += norm_kernels(f"{prefix}.bn{i}", batch * c_out * points)
        kernels.append(elementwise_kernel(f"{prefix}.relu{i}",
                                          batch * c_out * points))
    return kernels


def _mlp_stack(prefix: str, batch: int, features: Sequence[int],
               with_bn: bool = True) -> List[KernelSpec]:
    kernels: List[KernelSpec] = []
    for i, (f_in, f_out) in enumerate(zip(features[:-1], features[1:])):
        kernels += linear_kernels(f"{prefix}.fc{i}", batch, f_in, f_out)
        if with_bn and i < len(features) - 2:
            kernels += norm_kernels(f"{prefix}.bn{i}", batch * f_out)
            kernels.append(elementwise_kernel(f"{prefix}.relu{i}",
                                              batch * f_out))
    return kernels


def _tnet_kernels(prefix: str, batch: int, points: int, k: int) -> List[KernelSpec]:
    """PointNet T-Net: conv stack + max pool + FC regressor to a k x k matrix."""
    kernels = _pointwise_conv1d_stack(prefix, batch, points, [k, 64, 128, 1024])
    kernels.append(elementwise_kernel(f"{prefix}.maxpool", batch * 1024 * points,
                                      1.0, 4.0))
    kernels += _mlp_stack(prefix + ".head", batch, [1024, 512, 256, k * k])
    # applying the k x k transform to the points/features
    kernels.append(KernelSpec(f"{prefix}.apply", 2.0 * batch * points * k * k,
                              4.0 * batch * points * k * 2,
                              parallelism=batch * points * k, is_gemm=True))
    return kernels


# --------------------------------------------------------------------- #
# Major benchmarks
# --------------------------------------------------------------------- #
def pointnet_cls(batch_size: int = 32, points: int = 2500,
                 num_classes: int = 16) -> WorkloadSpec:
    """PointNet classification on ShapeNet part (memory-bound major benchmark)."""
    k: List[KernelSpec] = []
    k += _tnet_kernels("stn3", batch_size, points, 3)
    k += _pointwise_conv1d_stack("feat", batch_size, points, [3, 64, 128, 1024])
    k.append(elementwise_kernel("feat.maxpool", batch_size * 1024 * points,
                                1.0, 4.0))
    k += _mlp_stack("cls", batch_size, [1024, 512, 256, num_classes])
    k.append(elementwise_kernel("cls.log_softmax", batch_size * num_classes,
                                4.0, 8.0))
    params_m = 3.5
    k += optimizer_kernels("adam", params_m * 1e6)
    return WorkloadSpec(
        name="pointnet_cls", batch_size=batch_size, kernels=k,
        parameters_m=params_m, model_memory_gb=1.80, host_cpu_demand=0.6,
        iterations_per_epoch=400, host_s_per_iteration=0.004,
        description="PointNet object classification, ShapeNet part, batch 32")


def pointnet_seg(batch_size: int = 32, points: int = 2500,
                 num_parts: int = 50) -> WorkloadSpec:
    """PointNet part segmentation (denser per-point head; more memory bound)."""
    k: List[KernelSpec] = []
    k += _tnet_kernels("stn3", batch_size, points, 3)
    k += _pointwise_conv1d_stack("feat", batch_size, points, [3, 64, 128, 1024])
    k.append(elementwise_kernel("feat.maxpool", batch_size * 1024 * points,
                                1.0, 4.0))
    # per-point decoder on concat(point features 64, global 1024)
    k += _pointwise_conv1d_stack("seg", batch_size, points,
                                 [1088, 512, 256, 128])
    k += conv1d_kernels("seg.out", batch_size, 128, num_parts, points, 1)
    k.append(elementwise_kernel("seg.log_softmax",
                                batch_size * num_parts * points, 4.0, 8.0))
    params_m = 4.0
    k += optimizer_kernels("adam", params_m * 1e6)
    return WorkloadSpec(
        name="pointnet_seg", batch_size=batch_size, kernels=k,
        parameters_m=params_m, model_memory_gb=2.05, host_cpu_demand=0.6,
        iterations_per_epoch=400, host_s_per_iteration=0.004,
        description="PointNet part segmentation, ShapeNet part, batch 32")


def dcgan(batch_size: int = 128, image_size: int = 64, nz: int = 100,
          ngf: int = 64, ndf: int = 64) -> WorkloadSpec:
    """DCGAN on LSUN (compute-bound major benchmark).

    One iteration = discriminator step on real + fake batches plus a
    generator step (the standard alternating schedule of the PyTorch
    example).
    """
    def generator_pass(prefix: str, backward: bool) -> List[KernelSpec]:
        ks: List[KernelSpec] = []
        widths = [ngf * 8, ngf * 4, ngf * 2, ngf]
        sizes = [4, 8, 16, 32]
        ks += conv2d_kernels(f"{prefix}.deconv0", batch_size, nz, widths[0],
                             4, 4, 4, 4, backward=backward, tc_gain=0.12)
        for i in range(3):
            ks += conv2d_kernels(f"{prefix}.deconv{i+1}", batch_size,
                                 widths[i], widths[i + 1],
                                 sizes[i + 1], sizes[i + 1], 4, 4,
                                 backward=backward, tc_gain=0.12)
            ks += norm_kernels(f"{prefix}.bn{i+1}",
                               batch_size * widths[i + 1] * sizes[i + 1] ** 2,
                               backward=backward)
            ks.append(elementwise_kernel(
                f"{prefix}.relu{i+1}",
                batch_size * widths[i + 1] * sizes[i + 1] ** 2))
        ks += conv2d_kernels(f"{prefix}.deconv_out", batch_size, ngf, 3,
                             image_size, image_size, 4, 4, backward=backward,
                             tc_gain=0.12)
        ks.append(elementwise_kernel(f"{prefix}.tanh",
                                     batch_size * 3 * image_size ** 2))
        return ks

    def discriminator_pass(prefix: str, backward: bool) -> List[KernelSpec]:
        ks: List[KernelSpec] = []
        widths = [ndf, ndf * 2, ndf * 4, ndf * 8]
        sizes = [32, 16, 8, 4]
        c_in = 3
        for i in range(4):
            ks += conv2d_kernels(f"{prefix}.conv{i}", batch_size, c_in,
                                 widths[i], sizes[i], sizes[i], 4, 4,
                                 backward=backward, tc_gain=0.12)
            if i > 0:
                ks += norm_kernels(f"{prefix}.bn{i}",
                                   batch_size * widths[i] * sizes[i] ** 2,
                                   backward=backward)
            ks.append(elementwise_kernel(
                f"{prefix}.lrelu{i}", batch_size * widths[i] * sizes[i] ** 2))
            c_in = widths[i]
        ks += conv2d_kernels(f"{prefix}.conv_out", batch_size, ndf * 8, 1,
                             1, 1, 4, 4, backward=backward, tc_gain=0.12)
        return ks

    k: List[KernelSpec] = []
    k += generator_pass("g_sample", backward=False)       # fake images for D
    k += discriminator_pass("d_real", backward=True)
    k += discriminator_pass("d_fake", backward=True)
    k += generator_pass("g_train", backward=True)          # generator step
    k += discriminator_pass("d_for_g", backward=True)      # grads through D
    params_m = 10.0
    k += optimizer_kernels("adam_g", 3.5e6)
    k += optimizer_kernels("adam_d", 2.7e6)
    return WorkloadSpec(
        name="dcgan", batch_size=batch_size, kernels=k,
        parameters_m=params_m, model_memory_gb=0.36, host_cpu_demand=2.0,
        iterations_per_epoch=1000, host_s_per_iteration=0.045,
        description="DCGAN on LSUN 64x64, batch 128")


# --------------------------------------------------------------------- #
# Secondary benchmarks
# --------------------------------------------------------------------- #
def resnet18(batch_size: int = 128, image_size: int = 32,
             num_classes: int = 10) -> WorkloadSpec:
    """ResNet-18 on CIFAR-10 (Adadelta, batch 128)."""
    k: List[KernelSpec] = []
    stages = [(64, image_size, 2), (128, image_size // 2, 2),
              (256, image_size // 4, 2), (512, image_size // 8, 2)]
    c_in = 3
    k += conv2d_kernels("stem", batch_size, 3, 64, image_size, image_size, 3, 3)
    k += norm_kernels("stem.bn", batch_size * 64 * image_size ** 2)
    c_in = 64
    for s, (planes, size, blocks) in enumerate(stages):
        for b in range(blocks):
            for c in range(2):
                k += conv2d_kernels(f"layer{s}.{b}.conv{c}", batch_size,
                                    c_in if c == 0 else planes, planes,
                                    size, size, 3, 3)
                k += norm_kernels(f"layer{s}.{b}.bn{c}",
                                  batch_size * planes * size * size)
                k.append(elementwise_kernel(f"layer{s}.{b}.relu{c}",
                                            batch_size * planes * size * size))
            c_in = planes
    k += linear_kernels("fc", batch_size, 512, num_classes)
    params_m = 11.2
    k += optimizer_kernels("adadelta", params_m * 1e6)
    return WorkloadSpec(
        name="resnet18", batch_size=batch_size, kernels=k,
        parameters_m=params_m, model_memory_gb=0.95, host_cpu_demand=0.8,
        iterations_per_epoch=390, host_s_per_iteration=0.020,
        description="ResNet-18 on CIFAR-10, Adadelta, batch 128")


def mobilenet_v3_large(batch_size: int = 1024, image_size: int = 32,
                       num_classes: int = 10) -> WorkloadSpec:
    """MobileNetV3-Large on CIFAR-10 (Adam, batch 1024)."""
    from ..models.mobilenet import MOBILENET_V3_LARGE_CONFIG, _scale_channels
    k: List[KernelSpec] = []
    k += conv2d_kernels("stem", batch_size, 3, 16, image_size, image_size, 3, 3)
    k += norm_kernels("stem.bn", batch_size * 16 * image_size ** 2)
    c_in = 16
    size = image_size
    for i, cfg in enumerate(MOBILENET_V3_LARGE_CONFIG):
        exp, out = cfg.expanded, cfg.out
        if cfg.stride == 2:
            size = max(1, size // 2)
        if exp != c_in:
            k += conv2d_kernels(f"block{i}.expand", batch_size, c_in, exp,
                                size, size, 1, 1)
            k += norm_kernels(f"block{i}.bn_e", batch_size * exp * size * size)
        k += conv2d_kernels(f"block{i}.dw", batch_size, exp, exp, size, size,
                            cfg.kernel, cfg.kernel, groups=exp)
        k += norm_kernels(f"block{i}.bn_dw", batch_size * exp * size * size)
        if cfg.use_se:
            k += conv2d_kernels(f"block{i}.se_reduce", batch_size, exp,
                                max(8, exp // 4), 1, 1, 1, 1)
            k += conv2d_kernels(f"block{i}.se_expand", batch_size,
                                max(8, exp // 4), exp, 1, 1, 1, 1)
        k += conv2d_kernels(f"block{i}.project", batch_size, exp, out,
                            size, size, 1, 1)
        k += norm_kernels(f"block{i}.bn_p", batch_size * out * size * size)
        c_in = out
    k += conv2d_kernels("head.conv", batch_size, c_in, 960, size, size, 1, 1)
    k += linear_kernels("head.fc1", batch_size, 960, 1280)
    k += linear_kernels("head.fc2", batch_size, 1280, num_classes)
    params_m = 5.4
    k += optimizer_kernels("adam", params_m * 1e6)
    return WorkloadSpec(
        name="mobilenet_v3_large", batch_size=batch_size, kernels=k,
        parameters_m=params_m, model_memory_gb=1.7, host_cpu_demand=1.2,
        iterations_per_epoch=48, host_s_per_iteration=0.060,
        description="MobileNetV3-Large on CIFAR-10, Adam, batch 1024")


def _transformer_layer_kernels(prefix: str, tokens: int, d_model: int,
                               nhead: int, d_ff: int,
                               seq_len: int) -> List[KernelSpec]:
    k: List[KernelSpec] = []
    for proj in ("q", "k", "v", "o"):
        k += linear_kernels(f"{prefix}.{proj}_proj", tokens, d_model, d_model)
    batch_rows = tokens  # attention scores: per token vs all keys
    k += linear_kernels(f"{prefix}.attn_scores", batch_rows, d_model, seq_len,
                        backward=True)
    k.append(elementwise_kernel(f"{prefix}.softmax", tokens * seq_len * nhead,
                                4.0, 8.0))
    k += linear_kernels(f"{prefix}.ffn1", tokens, d_model, d_ff)
    k.append(elementwise_kernel(f"{prefix}.act", tokens * d_ff))
    k += linear_kernels(f"{prefix}.ffn2", tokens, d_ff, d_model)
    k += norm_kernels(f"{prefix}.ln1", tokens * d_model)
    k += norm_kernels(f"{prefix}.ln2", tokens * d_model)
    return k


def transformer_lm(batch_size: int = 32, seq_len: int = 32,
                   vocab_size: int = 33278, d_model: int = 128,
                   nhead: int = 2, num_layers: int = 2,
                   d_ff: int = 512) -> WorkloadSpec:
    """The paper's small Transformer LM (BERT-Tiny-sized) on WikiText-2."""
    tokens = batch_size * seq_len
    k: List[KernelSpec] = []
    k.append(elementwise_kernel("embedding", tokens * d_model, 1.0, 12.0))
    for layer in range(num_layers):
        k += _transformer_layer_kernels(f"enc{layer}", tokens, d_model, nhead,
                                        d_ff, seq_len)
    k += linear_kernels("lm_head", tokens, d_model, vocab_size)
    params_m = 4.7
    k += optimizer_kernels("adadelta", params_m * 1e6)
    return WorkloadSpec(
        name="transformer_lm", batch_size=batch_size, kernels=k,
        parameters_m=params_m, model_memory_gb=0.55, host_cpu_demand=0.3,
        iterations_per_epoch=2000, host_s_per_iteration=0.002,
        description="2-layer Transformer LM on WikiText-2, batch/seq 32")


def bert_medium(batch_size: int = 32, seq_len: int = 32,
                vocab_size: int = 30522, d_model: int = 512, nhead: int = 8,
                num_layers: int = 8, d_ff: int = 2048) -> WorkloadSpec:
    """BERT-Medium masked LM on WikiText-2 (Adadelta, batch/seq 32)."""
    tokens = batch_size * seq_len
    k: List[KernelSpec] = []
    k.append(elementwise_kernel("embedding", tokens * d_model, 1.0, 12.0))
    for layer in range(num_layers):
        k += _transformer_layer_kernels(f"enc{layer}", tokens, d_model, nhead,
                                        d_ff, seq_len)
    k += linear_kernels("mlm_transform", tokens, d_model, d_model)
    k += linear_kernels("mlm_head", tokens, d_model, vocab_size)
    params_m = 41.0
    k += optimizer_kernels("adadelta", params_m * 1e6)
    return WorkloadSpec(
        name="bert_medium", batch_size=batch_size, kernels=k,
        parameters_m=params_m, model_memory_gb=1.9, host_cpu_demand=0.3,
        iterations_per_epoch=2000, host_s_per_iteration=0.003,
        description="BERT-Medium masked LM on WikiText-2, batch/seq 32")


# --------------------------------------------------------------------- #
WORKLOADS: Dict[str, callable] = {
    "pointnet_cls": pointnet_cls,
    "pointnet_seg": pointnet_seg,
    "dcgan": dcgan,
    "resnet18": resnet18,
    "mobilenet_v3_large": mobilenet_v3_large,
    "transformer_lm": transformer_lm,
    "bert_medium": bert_medium,
}

MAJOR_WORKLOADS = ("pointnet_cls", "pointnet_seg", "dcgan")
SECONDARY_WORKLOADS = ("resnet18", "mobilenet_v3_large", "transformer_lm",
                       "bert_medium")


#: default-parameter specs by name — building a spec walks the whole
#: kernel recipe, and schedulers ask for the same handful of defaults
#: millions of times at trace-replay scale.  Specs are treated as
#: immutable everywhere, so sharing one instance is safe.
_DEFAULT_SPECS: Dict[str, WorkloadSpec] = {}


def get_workload(name: str, **kwargs) -> WorkloadSpec:
    """Build a workload by name with optional parameter overrides.

    The no-override case returns a cached shared instance; callers must
    not mutate it (use ``dataclasses.replace`` to derive variants).
    """
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload '{name}'; available: "
                       f"{sorted(WORKLOADS)}")
    if not kwargs:
        spec = _DEFAULT_SPECS.get(name)
        if spec is None:
            spec = WORKLOADS[name]()
            _DEFAULT_SPECS[name] = spec
        return spec
    return WORKLOADS[name](**kwargs)
