"""Helpers for moving data in and out of the fused (array-of-models) layout.

HFTA trains ``B`` models simultaneously on one accelerator by fusing their
operators.  Two fused data layouts are used, following the paper's Table 6:

* **channel-folded** (convolution family, batch norm, pooling, 2-D dropout):
  the per-model channel dimension is folded into one axis, i.e. the fused
  input is ``[N, B * C, ...]`` where model ``b`` owns channels
  ``[b*C, (b+1)*C)``.
* **batched** (linear family, layer norm, embeddings, attention, generic
  elementwise ops): the model index is a leading axis, i.e. ``[B, N, ...]``.

The helpers below convert a list of ``B`` per-model tensors to/from either
layout, and convert between the two layouts (needed when a model mixes
convolutional and fully-connected stages, e.g. PointNet or ResNet).
:func:`init_per_model` initializes a fused layer's ``B`` slots with its
serial layer's initializer.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Sequence

import numpy as np

from ...nn import init
from ...nn.tensor import Tensor, cat, stack

__all__ = [
    "fuse_channel", "unfuse_channel", "fuse_batch", "unfuse_batch",
    "channel_to_batch", "batch_to_channel", "init_per_model",
]


def init_per_model(layer, reset, generator) -> None:
    """Initialize each of fused ``layer``'s ``B`` slots as the serial
    layer's ``reset_parameters`` (``reset``) initializes one.

    ``reset`` runs once per slot ``b``, with generator ``b``, on a
    stand-in holding ``layer``'s attributes with ``weight`` and ``bias``
    bound to slot ``b``'s views.  ``generator`` is ``None`` (a fresh
    generator per model), one ``Generator`` (shared, drawn in slot order)
    or ``B`` of them, so slot ``b`` holds the bytes of a serial layer
    built with generator ``b``.  Draws nothing inside
    :func:`repro.nn.init.disabled`.
    """
    if not init.enabled():
        return
    width = layer.num_models
    if generator is None:
        gens = [np.random.default_rng() for _ in range(width)]
    elif isinstance(generator, np.random.Generator):
        gens = [generator] * width
    else:
        gens = list(generator)
        if len(gens) != width:
            raise ValueError("need one generator per fused model")
    attrs = {k: v for k, v in vars(layer).items() if not k.startswith("_")}
    bias = getattr(layer, "bias", None)
    for b, gen in enumerate(gens):
        attrs["weight"] = Tensor(layer.weight.data[b])
        attrs["bias"] = None if bias is None else Tensor(bias.data[b])
        reset(SimpleNamespace(**attrs), gen)


def fuse_channel(inputs: Sequence[Tensor]) -> Tensor:
    """Concatenate ``B`` per-model ``[N, C, ...]`` tensors into ``[N, B*C, ...]``."""
    inputs = list(inputs)
    if len(inputs) == 0:
        raise ValueError("need at least one input to fuse")
    return cat(inputs, axis=1)


def unfuse_channel(fused: Tensor, num_models: int) -> List[Tensor]:
    """Split a channel-folded ``[N, B*C, ...]`` tensor back into ``B`` tensors."""
    total = fused.shape[1]
    if total % num_models != 0:
        raise ValueError(f"channel dim {total} not divisible by B={num_models}")
    c = total // num_models
    return [fused[:, b * c:(b + 1) * c] for b in range(num_models)]


def fuse_batch(inputs: Sequence[Tensor]) -> Tensor:
    """Stack ``B`` per-model tensors of identical shape into ``[B, ...]``."""
    inputs = list(inputs)
    if len(inputs) == 0:
        raise ValueError("need at least one input to fuse")
    return stack(inputs, axis=0)


def unfuse_batch(fused: Tensor) -> List[Tensor]:
    """Split a ``[B, ...]`` tensor into a list of ``B`` tensors."""
    return [fused[b] for b in range(fused.shape[0])]


def channel_to_batch(fused: Tensor, num_models: int) -> Tensor:
    """Convert ``[N, B*C, ...]`` (channel-folded) to ``[B, N, C, ...]``."""
    n = fused.shape[0]
    total = fused.shape[1]
    if total % num_models != 0:
        raise ValueError(f"channel dim {total} not divisible by B={num_models}")
    c = total // num_models
    rest = fused.shape[2:]
    x = fused.reshape(n, num_models, c, *rest)
    perm = (1, 0, 2) + tuple(range(3, 3 + len(rest)))
    return x.permute(*perm)


def batch_to_channel(fused: Tensor) -> Tensor:
    """Convert ``[B, N, C, ...]`` (batched) to ``[N, B*C, ...]`` (channel-folded)."""
    b, n, c = fused.shape[:3]
    rest = fused.shape[3:]
    perm = (1, 0, 2) + tuple(range(3, 3 + len(rest)))
    x = fused.permute(*perm)
    return x.reshape(n, b * c, *rest)
