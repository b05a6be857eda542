"""Model-array fusion helpers.

This module provides the glue between *unfused* models (one
:class:`repro.nn.Module` per training job) and their *fused* counterparts
(one module whose parameters carry a leading array dimension ``B``):

* :func:`load_from_unfused` copies the weights of ``B`` independently
  constructed models into the corresponding slots of a fused model, so that
  fused training starts from exactly the same initial state as the ``B``
  serial jobs (required for the convergence-equivalence experiments,
  paper Appendix D / Figure 11).
* :func:`export_to_unfused` extracts one model's weights back out of the
  fused array (e.g. to hand the winning hyper-parameter configuration's
  checkpoint back to the user after an HFHT sweep).
* :func:`validate_fusibility` checks the structural precondition that the
  paper's key observation relies on: the models must have the same operator
  types with the same shapes.

The *elastic* array lifecycle (``runtime.engine.ArrayExecutor``) adds two
re-fusion primitives operating on whole fused arrays mid-training:

* :func:`split_fused` slices a fused array down to a subset of its slots
  (live eviction of early-stopped jobs frees their fused width);
* :func:`merge_fused` concatenates two structurally identical fused arrays
  into one (admission of freshly fused jobs into freed width).

Both rest on one layout rule: every per-model array carries the array
dimension first.  Fused parameters are ``[B, *s]``, fused buffers are
block-folded ``[B * c, ...]`` and read as ``[B, c, ...]`` (see
:func:`load_from_unfused`); the per-slot *optimizer* state ``[B, *s]`` and
hyper-parameter vectors ``[B]`` move through the matching primitives in
:mod:`repro.hfta.optim.elastic`.  A split takes slots of every such array
with :func:`take`, a merge joins two with :func:`join`, and an array that
does not follow the rule (a buffer that is not per-model) raises.

Ownership / copy-on-write contract
----------------------------------
One rule: a split whose kept slots form one ascending contiguous run
returns **views** of the input's arrays (a slice along axis 0 of a
C-contiguous array never copies); any other keep set returns gathered
copies.  A merge always returns fresh memory.

* :func:`split_fused` never mutates its input, but its result may *alias*
  it: training the result in place writes into the shared base.  The two
  safe call patterns, both used by the executor, are (a) *narrowing*: the
  input array is discarded right after the split, and (b)
  *partitioning*: the array is split into **disjoint** slot ranges
  (eviction + survivors, preemption parent + child) — in-place updates land
  in disjoint slices of the shared base, so neither side can corrupt the
  other.
* :func:`merge_fused` allocates every destination (optionally through a
  :class:`~repro.runtime.bufferpool.BufferPool` allocator) and copies both
  inputs in; the output never aliases either input, and the inputs are
  never mutated.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.modules.module import Module

__all__ = ["load_from_unfused", "export_to_unfused", "validate_fusibility",
           "fusibility_error", "structural_signature", "fused_array_width",
           "split_fused", "merge_fused", "contiguous_run"]


def _fused_param_map(fused: Module) -> Dict[str, np.ndarray]:
    return {name: p.data for name, p in fused.named_parameters()}


def _fused_buffer_map(fused: Module) -> Dict[str, np.ndarray]:
    return {name: b for name, b in fused.named_buffers()}


def load_from_unfused(fused: Module, unfused_models: Sequence[Module]) -> Module:
    """Copy ``B`` unfused models' weights into the slots of a fused model.

    The fused and unfused models must use the same module/parameter names
    (the fused model classes in :mod:`repro.models` are written this way).
    A fused parameter of shape ``[B, *s]`` receives model ``b``'s parameter
    of shape ``s`` in slot ``b``; a fused buffer of shape ``[B * c, ...]``
    (e.g. batch-norm running stats) receives model ``b``'s buffer in the
    ``b``-th block of ``c`` entries.

    Raises ``KeyError`` when a fused parameter or buffer is left with a
    slot no model filled: the runtime builds fused arrays with
    :func:`repro.nn.init.disabled`, so such a slot would hold uninitialised
    memory.
    """
    num_models = len(unfused_models)
    fused_params = _fused_param_map(fused)
    fused_buffers = _fused_buffer_map(fused)
    slots_filled: Dict[str, int] = {}

    for b, model in enumerate(unfused_models):
        for name, p in model.named_parameters():
            if name not in fused_params:
                raise KeyError(f"fused model has no parameter named '{name}'")
            target = fused_params[name]
            if target.shape != (num_models,) + p.shape:
                raise ValueError(
                    f"parameter '{name}': fused shape {target.shape} is not "
                    f"[B={num_models}] + unfused shape {p.shape}")
            target[b] = p.data
            slots_filled[name] = slots_filled.get(name, 0) + 1
        for name, buf in model.named_buffers():
            target = fused_buffers.get(name)
            if target is None:
                continue
            block = buf.shape[0]
            expected = (num_models * block,) + buf.shape[1:]
            if target.shape != expected:
                raise ValueError(
                    f"buffer '{name}': fused shape {target.shape} != {expected}")
            target[b * block:(b + 1) * block] = buf
            slots_filled[name] = slots_filled.get(name, 0) + 1
    unfilled = [name for name in (*fused_params, *fused_buffers)
                if slots_filled.get(name, 0) < num_models]
    if unfilled:
        raise KeyError(f"no unfused model filled a slot of the fused "
                       f"model's {', '.join(unfilled)}")
    return fused


def export_to_unfused(fused: Module, index: int, template: Module) -> Module:
    """Extract fused model slot ``index`` into an unfused ``template`` model.

    Copies *parameters and buffers*: an exported checkpoint must be usable
    as-is (e.g. BatchNorm running stats for inference), and the elastic
    runtime evicts jobs mid-training, so a buffer left behind would silently
    diverge from what serial training of the same job would have produced.
    Buffers follow the block-folded ``[B * c, ...]`` convention of
    :func:`load_from_unfused`; a fused buffer in any other layout raises
    instead of being skipped.
    """
    num_models = fused_array_width(fused)
    fused_params = _fused_param_map(fused)
    fused_buffers = _fused_buffer_map(fused)
    for name, p in template.named_parameters():
        target = fused_params.get(name)
        if target is None:
            raise KeyError(f"fused model has no parameter named '{name}'")
        p.data[...] = target[index]
    for name, buf in template.named_buffers():
        source = fused_buffers.get(name)
        if source is None:
            continue
        block = buf.shape[0] if buf.ndim else 0
        if not block or source.shape != (num_models * block,) + buf.shape[1:]:
            raise ValueError(
                f"buffer '{name}': fused shape {source.shape} is not "
                f"{buf.shape} block-folded over B={num_models}; cannot "
                f"export slot {index}")
        buf[...] = source[index * block:(index + 1) * block]
    return template


def fused_array_width(fused: Module) -> int:
    """The array width ``B`` of a fused model: the ``num_models`` of its
    first submodule exposing one (every class in :mod:`repro.hfta.ops`
    does; a parameter-free layer is its serial class and has none)."""
    for module in fused.modules():
        width = getattr(module, "num_models", None)
        if isinstance(width, int) and width >= 1:
            return width
    raise ValueError("cannot infer array width: no submodule has a "
                     "'num_models' attribute; is this a fused model?")


def structural_signature(model: Module) -> Tuple[Tuple, Tuple]:
    """A hashable fingerprint of a model's operator structure and shapes.

    Two models are horizontally fusible exactly when their signatures are
    equal (paper Section 3, first key observation).  The runtime batcher
    uses the signature as a grouping key so that it does not have to compare
    every pending job pairwise.
    """
    modules = tuple((name, type(m).__name__) for name, m in
                    model.named_modules())
    params = tuple((name, p.shape) for name, p in model.named_parameters())
    return modules, params


def fusibility_error(models: Sequence[Module]) -> Optional[str]:
    """Describe the first structural mismatch, or ``None`` if fusible."""
    if len(models) < 2:
        return None
    ref_modules, ref_params = structural_signature(models[0])
    for i, other in enumerate(models[1:], start=1):
        modules, params = structural_signature(other)
        if modules != ref_modules:
            return (f"model {i} has a different module structure than model 0 "
                    f"(these jobs cannot be horizontally fused; HFHT would "
                    f"place them in different partitions)")
        if params != ref_params:
            # zip() stops at the shorter list, so a strict-prefix mismatch
            # (e.g. a missing bias) has no differing pair — report the count.
            mismatch = next(((a, b) for a, b in zip(ref_params, params)
                             if a != b), None)
            if mismatch is None:
                return (f"model {i} has {len(params)} parameters but model 0 "
                        f"has {len(ref_params)} (e.g. a bias present in only "
                        f"one of them)")
            return (f"model {i} has a parameter shape mismatch vs model 0: "
                    f"{mismatch[0]} vs {mismatch[1]}")
    return None


def validate_fusibility(models: Sequence[Module]) -> bool:
    """Check that ``B`` models have identical operator types and shapes.

    This is the structural precondition of inter-model horizontal fusion
    (paper Section 3, first key observation).  Raises ``ValueError`` with a
    description of the first mismatch; returns ``True`` if the models are
    fusible.
    """
    error = fusibility_error(models)
    if error is not None:
        raise ValueError(error)
    return True


# --------------------------------------------------------------------- #
# elastic re-fusion primitives
# --------------------------------------------------------------------- #
def contiguous_run(indices: Sequence[int]):
    """``(start, stop)`` when ``indices`` is an ascending contiguous run.

    A contiguous run along the leading (array) dimension is exactly the
    case where slicing a fused array produces a *view*; anything else
    (gaps, reordering) needs a gather copy.  Returns ``None`` otherwise.
    """
    if not indices:
        return None
    if any(b - a != 1 for a, b in zip(indices, indices[1:])):
        return None
    return int(indices[0]), int(indices[-1]) + 1


def take(array: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Slots ``keep`` of a per-model array, along its array dimension.

    A view when ``keep`` is one ascending contiguous run, a gathered copy
    otherwise (see the module docstring's ownership contract).
    """
    run = contiguous_run(keep)
    return array[keep] if run is None else array[run[0]:run[1]]


def join(a: np.ndarray, b: np.ndarray, allocator=None) -> np.ndarray:
    """``a``'s slots then ``b``'s, along the array dimension, in fresh
    memory — from ``allocator(shape, dtype)`` when given and the dtypes
    agree (its result is fully overwritten)."""
    if allocator is None or a.dtype != b.dtype:
        return np.concatenate([a, b])
    return np.concatenate(
        [a, b], out=allocator((len(a) + len(b),) + a.shape[1:], a.dtype))


def _structural_clone(fused: Module) -> Module:
    """Clone the module *tree* while sharing every parameter/buffer array.

    ``copy.deepcopy`` with the memo pre-seeded so that each ``ndarray``
    hanging off a parameter (``data``/``grad``) or buffer maps to itself:
    the clone gets fresh ``Module``/``Parameter`` objects (safe to rebind
    and retag) but zero array bytes are copied.  Callers rebind every
    parameter's ``data`` and every buffer to a split or joined array.
    """
    memo: Dict[int, object] = {}
    for _, p in fused.named_parameters():
        if p.data is not None:
            memo[id(p.data)] = p.data
        if p.grad is not None:
            memo[id(p.grad)] = p.grad
    for _, buf in fused.named_buffers():
        memo[id(buf)] = buf
    return copy.deepcopy(fused, memo)


def _rewrite_num_models(model: Module, old_width: int, new_width: int) -> None:
    """Rewrite every ``num_models`` attribute from ``old_width`` to
    ``new_width`` — on fused modules themselves and on any
    :class:`~repro.hfta.ops.factory.OpsLibrary` they hold (models built
    through the factory route their layout helpers through it)."""
    from .ops.factory import OpsLibrary  # deferred: ops imports follow fusion
    for module in model.modules():
        if getattr(module, "num_models", None) == old_width:
            module.num_models = new_width
        for value in module.__dict__.values():
            if isinstance(value, OpsLibrary) and value.num_models == old_width:
                value.num_models = new_width


def _slot_arrays(model: Module, width: int, op: str
                 ) -> Iterator[Tuple[str, np.ndarray, Callable]]:
    """``(label, [B, ...] array, put)`` for every per-model array of ``model``.

    Parameters are ``[B, *s]``; buffers are block-folded ``[B * c, ...]``
    and read as ``[B, c, ...]``.  ``put(array)`` installs a re-fused array
    of any width in the same place (a buffer folded back, a parameter with
    its gradient dropped).  An array that does not carry the array width
    ``B`` first raises ``ValueError`` naming it.
    """
    for prefix, module in model.named_modules():
        prefix = prefix + "." if prefix else ""
        for name, p in module._parameters.items():
            if p is None:
                continue
            if p.shape[0] != width:
                raise ValueError(
                    f"cannot {op}: parameter '{prefix}{name}' has leading "
                    f"dim {p.shape[0]}, expected array width {width}; is "
                    f"this a fused model?")

            def put(data, p=p):
                p.data, p.grad = data, None
            yield f"parameter '{prefix}{name}'", p.data, put
        for name, buf in module._buffers.items():
            if buf is None:
                continue
            if buf.ndim == 0 or buf.shape[0] % width:
                raise ValueError(
                    f"cannot {op}: buffer '{prefix}{name}' of shape "
                    f"{buf.shape} is not per-model (block-folded [B*c, ...] "
                    f"over array width {width})")

            def fold(slots, module=module, name=name):
                module.register_buffer(
                    name, slots.reshape((-1,) + slots.shape[2:]))
            yield f"buffer '{prefix}{name}'", buf.reshape(
                (width, buf.shape[0] // width) + buf.shape[1:]), fold


def split_fused(fused: Module, keep_indices: Sequence[int]) -> Module:
    """A new fused array holding only slots ``keep_indices`` of ``fused``.

    Every parameter ``[B, *s]`` and buffer (read as ``[B, c, ...]``) goes
    through :func:`take`: views into the input's memory for a contiguous
    ``keep_indices`` run, gathered copies otherwise, so the caller must
    either discard the input (narrowing) or only ever train disjoint slot
    ranges of it (partitioning); see the module docstring.  The split
    itself leaves the input untouched (slot eviction exports the evicted
    checkpoints first, then replaces the live array with the split).
    Per-slot optimizer state moves through
    :func:`repro.hfta.optim.elastic.split_optimizer`.
    """
    width = fused_array_width(fused)
    keep: List[int] = [int(i) for i in keep_indices]
    if not keep:
        raise ValueError("split_fused needs at least one slot to keep")
    if any(not 0 <= i < width for i in keep):
        raise ValueError(f"keep_indices {keep} out of range for array "
                         f"width {width}")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep_indices {keep} contains duplicates")

    out = _structural_clone(fused)
    for _, slots, put in list(_slot_arrays(out, width, "split")):
        put(take(slots, keep))
    _rewrite_num_models(out, width, len(keep))
    return out


def merge_fused(a: Module, b: Module, allocator=None) -> Module:
    """Concatenate two structurally identical fused arrays into one.

    Slot order is ``a``'s slots followed by ``b``'s: every parameter and
    buffer goes through :func:`join`, so the output never aliases the
    inputs, which are left untouched.  Raises ``ValueError`` when the
    arrays are not re-fusible (mismatched parameter or buffer names or
    per-slot shapes — the same condition :func:`validate_fusibility`
    enforces for unfused models).  Per-slot optimizer state moves through
    :func:`repro.hfta.optim.elastic.merge_optimizers`.

    ``allocator(shape, dtype) -> ndarray`` supplies the destination arrays
    when given (the executor passes its
    :class:`~repro.runtime.bufferpool.BufferPool`'s ``take``, so churn
    reuses dead allocations).
    """
    width_a, width_b = fused_array_width(a), fused_array_width(b)
    others = {label: slots for label, slots, _
              in _slot_arrays(b, width_b, "merge")}
    out = _structural_clone(a)
    for label, slots, put in list(_slot_arrays(out, width_a, "merge")):
        other = others.pop(label, None)
        if other is None:
            raise ValueError(f"cannot merge: second array has no {label}")
        if slots.shape[1:] != other.shape[1:]:
            raise ValueError(
                f"cannot merge: {label} has per-slot shape "
                f"{slots.shape[1:]} vs {other.shape[1:]}")
        put(join(slots, other, allocator))
    if others:
        raise ValueError(f"cannot merge: first array has no "
                         f"{', '.join(others)}")
    _rewrite_num_models(out, width_a, width_a + width_b)
    return out
