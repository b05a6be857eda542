"""Operator factory: write a model once, run it unfused or fused.

The HFTA paper stresses that enabling fusion should require changing only a
few lines of a PyTorch-native training script (Figure 2: the AlexNet model
definition stays the same, only the operator classes are swapped).  The
:class:`OpsLibrary` below reproduces that workflow: a model definition asks
the library for ``Conv2d`` / ``Linear`` / ... constructors, and the library
hands back either the plain serial classes from :mod:`repro.nn` (when
``num_models`` is ``None``) or the horizontally fused classes from
:mod:`repro.hfta.ops` with the array size bound (when ``num_models`` is an
integer).  Only the layers with parameters have a fused class: a
parameter-free layer (activation, pooling, dropout) is the serial class
either way, because the serial layer applied to the fused layout is the
fused operator (Table 6).

The criteria come from the library too (``CrossEntropyLoss``, ``BCELoss``),
so a model's loss never says how the ``B`` models' losses combine.

It also provides the small set of layout helpers a model needs when it mixes
convolutional stages (channel-folded fused layout ``[N, B*C, ...]``) with
fully connected stages (batched fused layout ``[B, N, F]``).
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence

import numpy as np

from ... import nn
from ...nn.tensor import Tensor
from ..losses import FusedBCELoss, FusedCrossEntropyLoss
from . import attention, conv, embedding, linear, norm
from .utils import channel_to_batch, fuse_batch, fuse_channel

__all__ = ["OpsLibrary"]

_SERIAL_CLASSES = {
    "Conv1d": nn.Conv1d, "Conv2d": nn.Conv2d,
    "ConvTranspose1d": nn.ConvTranspose1d, "ConvTranspose2d": nn.ConvTranspose2d,
    "Linear": nn.Linear,
    "BatchNorm1d": nn.BatchNorm1d, "BatchNorm2d": nn.BatchNorm2d,
    "LayerNorm": nn.LayerNorm, "Embedding": nn.Embedding,
    "MaxPool2d": nn.MaxPool2d, "MaxPool1d": nn.MaxPool1d,
    "AvgPool2d": nn.AvgPool2d, "AdaptiveAvgPool2d": nn.AdaptiveAvgPool2d,
    "Dropout": nn.Dropout, "Dropout2d": nn.Dropout2d,
    "ReLU": nn.ReLU, "ReLU6": nn.ReLU6, "LeakyReLU": nn.LeakyReLU,
    "Tanh": nn.Tanh, "Sigmoid": nn.Sigmoid, "GELU": nn.GELU,
    "Hardswish": nn.Hardswish, "Hardsigmoid": nn.Hardsigmoid,
    "Softmax": nn.Softmax, "LogSoftmax": nn.LogSoftmax,
    "MultiheadAttention": nn.MultiheadAttention,
    "TransformerEncoderLayer": nn.TransformerEncoderLayer,
    "CrossEntropyLoss": nn.CrossEntropyLoss, "BCELoss": nn.BCELoss,
}

_FUSED_CLASSES = {
    "Conv1d": conv.Conv1d, "Conv2d": conv.Conv2d,
    "ConvTranspose1d": conv.ConvTranspose1d,
    "ConvTranspose2d": conv.ConvTranspose2d,
    "Linear": linear.Linear,
    "BatchNorm1d": norm.BatchNorm1d, "BatchNorm2d": norm.BatchNorm2d,
    "LayerNorm": norm.LayerNorm, "Embedding": embedding.Embedding,
    "MultiheadAttention": attention.MultiheadAttention,
    "TransformerEncoderLayer": attention.TransformerEncoderLayer,
    "CrossEntropyLoss": FusedCrossEntropyLoss, "BCELoss": FusedBCELoss,
}


class OpsLibrary:
    """Hands out serial or fused operator constructors.

    Parameters
    ----------
    num_models:
        ``None`` (or 0) for an unfused, per-job model; an integer ``B >= 1``
        for a horizontally fused array of ``B`` models.
    """

    def __init__(self, num_models: Optional[int] = None):
        if num_models is not None and num_models < 1:
            num_models = None
        self.num_models = num_models

    # ------------------------------------------------------------------ #
    @property
    def fused(self) -> bool:
        return self.num_models is not None

    @property
    def B(self) -> int:
        """Array size (1 when unfused, so arithmetic stays uniform)."""
        return self.num_models if self.fused else 1

    def __getattr__(self, name: str):
        if name not in _SERIAL_CLASSES:
            raise AttributeError(f"OpsLibrary has no operator '{name}'")
        if self.fused and name in _FUSED_CLASSES:
            return functools.partial(_FUSED_CLASSES[name], self.num_models)
        return _SERIAL_CLASSES[name]

    def conv_bn(self, conv, bn, x: Tensor, relu: bool = True,
                global_max: bool = False) -> Tensor:
        """``relu(bn(conv(x)))`` (``relu=False``: ``bn(conv(x))``) for a
        pointwise ``Conv1d`` and the ``BatchNorm1d`` over its output, both
        from this library, as one :func:`repro.nn.functional.conv1d_bn`
        node: bitwise the modules' three nodes, with two fewer activations
        kept for backward.  ``global_max=True`` ends the node with the max
        over the points, ``.max(axis=2)``'s ``[N, (B*)C]``, and it keeps no
        ``[N, (B*)C, L]`` output at all."""
        if (conv.kernel_size, conv.stride, conv.padding) != ((1,), (1,),
                                                             (0,)):
            raise ValueError("conv_bn takes a pointwise Conv1d (kernel 1, "
                             "stride 1, no padding)")
        if bn.num_features != conv.out_channels:
            raise ValueError(f"BatchNorm1d over {bn.num_features} channels "
                             f"after a Conv1d of {conv.out_channels}")
        if x.ndim != 3 or x.shape[1] != self.B * conv.in_channels:
            raise ValueError(f"conv_bn expects [N, {self.B * conv.in_channels}"
                             f", L] input, got {x.shape}")
        return nn.functional.conv1d_bn(
            x, conv.weight, conv.bias, bn.weight, bn.bias, bn.running_mean,
            bn.running_var, bn.training, bn.momentum, bn.eps,
            groups=self.B * conv.groups, relu=relu, global_max=global_max)

    # ------------------------------------------------------------------ #
    # Layout helpers
    # ------------------------------------------------------------------ #
    def fuse_conv_inputs(self, inputs: Sequence[Tensor]) -> Tensor:
        """Fuse per-model conv inputs: channel-folded when fused, identity
        (single input expected) when unfused."""
        inputs = list(inputs)
        if not self.fused:
            if len(inputs) != 1:
                raise ValueError("unfused model takes exactly one input")
            return inputs[0]
        return fuse_channel(inputs)

    def fuse_dense_inputs(self, inputs: Sequence[Tensor]) -> Tensor:
        """Fuse per-model dense/sequence inputs: stacked ``[B, ...]`` when
        fused, identity when unfused."""
        inputs = list(inputs)
        if not self.fused:
            if len(inputs) != 1:
                raise ValueError("unfused model takes exactly one input")
            return inputs[0]
        return fuse_batch(inputs)

    def conv_to_dense(self, x: Tensor) -> Tensor:
        """Convert conv activations to the layout the ``Linear`` family expects.

        Serial: ``[N, C, ...] -> [N, C * prod(...)]``.
        Fused:  ``[N, B*C, ...] -> [B, N, C * prod(...)]``.
        """
        if not self.fused:
            return x.reshape(x.shape[0], -1)
        per_model = channel_to_batch(x, self.num_models)  # [B, N, C, ...]
        b, n = per_model.shape[:2]
        return per_model.reshape(b, n, -1)

    def split_outputs(self, x: Tensor) -> List[Tensor]:
        """Split a fused dense output ``[B, ...]`` into per-model outputs
        (identity singleton list when unfused)."""
        if not self.fused:
            return [x]
        return [x[b] for b in range(self.num_models)]

    def generators(self, seeds: Optional[Sequence[int]] = None):
        """Per-model RNGs (length ``B``; a single RNG when unfused)."""
        if seeds is None:
            seeds = list(range(self.B))
        gens = [np.random.default_rng(int(s)) for s in seeds]
        if not self.fused:
            return gens[0]
        if len(gens) != self.num_models:
            raise ValueError("need one seed per fused model")
        return gens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = f"fused(B={self.num_models})" if self.fused else "serial"
        return f"OpsLibrary({mode})"
