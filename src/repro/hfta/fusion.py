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

Both follow the repo-wide layout conventions: fused parameters carry a
leading array dimension ``[B, *s]``, fused buffers are block-folded
``[B * c, ...]`` (see :func:`load_from_unfused`).  The per-slot *optimizer*
state moves through the matching primitives in
:mod:`repro.hfta.optim.elastic`.

Ownership / copy-on-write contract
----------------------------------
The re-fusion primitives are *zero-copy by default*: a split whose kept
slots form one contiguous leading-dim run returns **views** into the input
array's memory (a contiguous slice along axis 0 of a C-contiguous array is
a strided view, never a copy), and only falls back to copies for
non-contiguous keep sets.  The exact contract per primitive:

* :func:`split_fused` — the split itself never mutates the input.  With
  ``copy=False`` (default) the result's parameters/buffers may *alias* the
  input's memory; training the result in place then writes into the shared
  base.  The two safe call patterns, both used by the executor, are
  (a) *narrowing*: the input array is discarded right after the split, and
  (b) *partitioning*: the array is split into **disjoint** slot ranges
  (eviction + survivors, preemption parent + child) — in-place optimizer
  updates land in disjoint slices of the shared base, so neither side can
  corrupt the other.  Pass ``copy=True`` for fully owned results.
* :func:`merge_fused` — always allocates a fresh destination (optionally
  through a :class:`~repro.runtime.bufferpool.BufferPool` allocator) and
  copies both inputs in; the output never aliases either input, and the
  inputs are never mutated.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

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
            if name not in fused_buffers or buf is None:
                continue
            target = fused_buffers[name]
            if target is None:
                continue
            block = buf.shape[0]
            expected = (num_models * block,) + buf.shape[1:]
            if target.shape != expected:
                raise ValueError(
                    f"buffer '{name}': fused shape {target.shape} != {expected}")
            target[b * block:(b + 1) * block] = buf
            slots_filled[name] = slots_filled.get(name, 0) + 1
    unfilled = [name for name in (*fused_params, *(
        name for name, buf in fused_buffers.items() if buf is not None))
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
    Buffers are matched by the block-folded ``[B * c, ...]`` convention of
    :func:`load_from_unfused`, with a fallback for leading-dim ``[B, ...]``
    layouts and scalar per-model buffers; a fused buffer that cannot be
    sliced per slot raises instead of being skipped.
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
        if buf is None:
            continue
        source = fused_buffers.get(name)
        if source is None:
            continue
        if source.shape == (num_models,) + buf.shape:
            # leading-dim layout [B, *s] (scalar per-model buffers included)
            buf[...] = source[index]
        elif buf.ndim >= 1 and source.shape == \
                (num_models * buf.shape[0],) + buf.shape[1:]:
            block = buf.shape[0]
            buf[...] = source[index * block:(index + 1) * block]
        else:
            raise ValueError(
                f"buffer '{name}': fused shape {source.shape} is neither "
                f"[B={num_models}] + {buf.shape} nor "
                f"[B*{buf.shape[0] if buf.ndim else '?'}] block-folded; "
                f"cannot export slot {index}")
    return template


def fused_array_width(fused: Module) -> int:
    """The array width ``B`` of a fused model.

    Taken from the first submodule exposing ``num_models`` (every class in
    :mod:`repro.hfta.ops` does), falling back to the leading dimension of
    the first parameter.
    """
    for module in fused.modules():
        width = getattr(module, "num_models", None)
        if isinstance(width, int) and width >= 1:
            return width
    for _, p in fused.named_parameters():
        return p.shape[0]
    raise ValueError("cannot infer array width: model has neither a "
                     "'num_models' attribute nor parameters")


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


def _structural_clone(fused: Module) -> Module:
    """Clone the module *tree* while sharing every parameter/buffer array.

    ``copy.deepcopy`` with the memo pre-seeded so that each ``ndarray``
    hanging off a parameter (``data``/``grad``) or buffer maps to itself:
    the clone gets fresh ``Module``/``Parameter`` objects (safe to rebind
    and retag) but zero array bytes are copied.  Callers rebind each
    parameter's ``data`` to a slice/concatenation and re-register the
    per-model buffers; :func:`_copy_leftover_shared_buffers` then breaks
    the sharing of whatever slot-independent buffers remain.
    """
    memo: Dict[int, object] = {}
    for _, p in fused.named_parameters():
        if p.data is not None:
            memo[id(p.data)] = p.data
        if p.grad is not None:
            memo[id(p.grad)] = p.grad
    for _, buf in fused.named_buffers():
        if buf is not None:
            memo[id(buf)] = buf
    return copy.deepcopy(fused, memo)


def _copy_leftover_shared_buffers(out: Module, source: Module) -> None:
    """Break any remaining buffer sharing between a clone and its source.

    After :func:`_structural_clone` + per-model buffer surgery, buffers
    that were *not* re-registered (slot-independent ones whose leading dim
    is no multiple of the array width) are still the source's own arrays;
    give the clone private copies so in-place buffer updates on either
    side can never leak into the other (the semantics the old
    deepcopy-everything implementation provided).
    """
    source_ids = {id(buf) for _, buf in source.named_buffers()
                  if buf is not None}
    for module in out.modules():
        for name, buf in list(module._buffers.items()):
            if buf is not None and id(buf) in source_ids:
                module.register_buffer(name, buf.copy())


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


def _resize_buffers(model: Module, take) -> None:
    """Replace every per-model buffer with ``take(buffer, block_size)``.

    Buffers follow the block-folded ``[B * c, ...]`` convention; buffers
    whose leading dimension is not a multiple of the array width are treated
    as slot-independent and left untouched.
    """
    for module in model.modules():
        width = getattr(module, "num_models", None)
        for name, buf in list(module._buffers.items()):
            if buf is None or not isinstance(width, int) or width < 1:
                continue
            if buf.ndim >= 1 and buf.shape[0] % width == 0:
                module.register_buffer(
                    name, take(buf, buf.shape[0] // width, width))


def split_fused(fused: Module, keep_indices: Sequence[int],
                copy: bool = False) -> Module:
    """A new fused array holding only slots ``keep_indices`` of ``fused``.

    Parameters ``[B, *s]`` are sliced along the array dimension, buffers
    ``[B * c, ...]`` blockwise; the input array is left untouched by the
    split itself (slot eviction exports the evicted checkpoints first,
    then replaces the live array with the split).  Per-slot optimizer
    state moves through :func:`repro.hfta.optim.elastic.split_optimizer`.

    Zero-copy contract: with ``copy=False`` (default) and a *contiguous*
    ``keep_indices`` run, parameters and per-model buffers come back as
    views into the input's memory — O(kept slots) of metadata instead of
    O(array) of bytes.  Training the result in place then writes through
    to the shared base, so the caller must either discard the input
    (narrowing) or only ever train disjoint slot ranges of it
    (partitioning); see the module docstring for the full ownership
    contract.  Non-contiguous keeps, and ``copy=True``, return owned
    copies exactly like the historical implementation.
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

    run = None if copy else contiguous_run(keep)
    out = _structural_clone(fused)
    for name, p in out.named_parameters():
        if p.shape[0] != width:
            raise ValueError(
                f"parameter '{name}' has leading dim {p.shape[0]}, expected "
                f"array width {width}; is this a fused model?")
        if run is not None:
            p.data = p.data[run[0]:run[1]]           # view, zero bytes moved
        else:
            p.data = np.ascontiguousarray(p.data[keep])
        p.grad = None

    def take(buf, block, _width):
        if run is not None:
            return buf[run[0] * block:run[1] * block]  # blockwise view
        return np.concatenate(
            [buf[i * block:(i + 1) * block] for i in keep])

    _resize_buffers(out, take)
    _copy_leftover_shared_buffers(out, fused)
    _rewrite_num_models(out, width, len(keep))
    return out


def merge_fused(a: Module, b: Module, allocator=None) -> Module:
    """Concatenate two structurally identical fused arrays into one.

    Slot order is ``a``'s slots followed by ``b``'s.  The inputs are left
    untouched and the output never aliases them (every merged parameter is
    a freshly filled destination array).  Raises ``ValueError`` when the
    arrays are not re-fusible (mismatched parameter names or per-slot
    shapes — the same condition :func:`validate_fusibility` enforces for
    unfused models).  Per-slot optimizer state moves through
    :func:`repro.hfta.optim.elastic.merge_optimizers`.

    ``allocator(shape, dtype) -> ndarray`` supplies the destination arrays
    when given (the executor passes its
    :class:`~repro.runtime.bufferpool.BufferPool`'s ``take``, so churn
    reuses dead allocations); the allocator's result is fully overwritten.
    """
    width_a, width_b = fused_array_width(a), fused_array_width(b)
    params_a = list(a.named_parameters())
    params_b = dict(b.named_parameters())
    if len(params_a) != len(params_b):
        raise ValueError(
            f"cannot merge: arrays have {len(params_a)} vs {len(params_b)} "
            f"parameters")

    def joined(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        if allocator is not None and left.dtype == right.dtype:
            dest = allocator((left.shape[0] + right.shape[0],)
                             + left.shape[1:], left.dtype)
            return np.concatenate([left, right], out=dest)
        return np.concatenate([left, right])

    out = _structural_clone(a)
    out_params = dict(out.named_parameters())
    for name, p_a in params_a:
        p_b = params_b.get(name)
        if p_b is None:
            raise ValueError(f"cannot merge: second array has no parameter "
                             f"named '{name}'")
        if p_a.shape[1:] != p_b.shape[1:]:
            raise ValueError(
                f"cannot merge: parameter '{name}' has per-slot shape "
                f"{p_a.shape[1:]} vs {p_b.shape[1:]}")
        target = out_params[name]
        target.data = joined(p_a.data, p_b.data)
        target.grad = None

    buffers_b = dict(b.named_buffers())

    # named buffer lookup needs the prefix; walk modules of `out` in lockstep
    # with their qualified names so register_buffer hits the right module
    for (mod_name, module) in out.named_modules():
        width = getattr(module, "num_models", None)
        if not isinstance(width, int) or width < 1:
            continue
        prefix = mod_name + "." if mod_name else ""
        for name, buf in list(module._buffers.items()):
            if buf is None:
                continue
            other = buffers_b.get(prefix + name)
            if buf.ndim < 1 or buf.shape[0] % width_a != 0:
                continue
            block = buf.shape[0] // width_a
            if other is None or other.shape != \
                    (width_b * block,) + buf.shape[1:]:
                raise ValueError(
                    f"cannot merge: buffer '{prefix + name}' has shape "
                    f"{None if other is None else other.shape} in the second "
                    f"array, expected {(width_b * block,) + buf.shape[1:]}")
            module.register_buffer(name, np.concatenate([buf, other]))

    _copy_leftover_shared_buffers(out, a)
    _rewrite_num_models(out, width_a, width_a + width_b)
    return out

