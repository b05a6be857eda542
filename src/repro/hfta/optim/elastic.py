"""Elastic re-fusion of fused-optimizer state: split, merge, per-slot export.

The counterparts of :func:`repro.hfta.fusion.split_fused` /
:func:`~repro.hfta.fusion.merge_fused` for the *optimizer* half of an
array's training state.  A fused optimizer keeps, per parameter, state
arrays shaped like the parameter (leading array dimension ``B`` — Adam's
moments, SGD's momentum buffer, Adadelta's accumulators) plus per-model
step counters and per-model hyper-parameter vectors in its groups.  All of
them are sliced / concatenated along the array dimension here, so an
evicted slot takes exactly its own optimizer state with it and a merged
slot keeps training as if nothing happened.

Mapping convention: ``new_params`` must be the new fused model's parameters
in the same flat order as the old optimizer's parameters across its groups
(both sides are produced by ``Module.parameters()`` of structurally
identical fused models, so the order matches by construction).

Partial fusion (``model_index`` groups, paper Appendix H.4) is out of scope
for elastic ops: those parameters belong to a single slot by definition, so
splitting/merging them along ``B`` is meaningless — the primitives raise.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Sequence

import numpy as np

from ...nn.tensor import Tensor
from ..fusion import join, take
from .optimizer import FusedOptimizer

__all__ = ["split_optimizer", "merge_optimizers", "export_slot_state",
           "load_slot_state"]


def _check_fully_fused(optimizer: FusedOptimizer, op: str) -> None:
    if any(g.get("model_index") is not None for g in optimizer.param_groups):
        raise ValueError(
            f"{op} supports fully fused optimizers only; this one has "
            f"unfused (partial-fusion) parameter groups")


def _flat_params(optimizer: FusedOptimizer) -> List[Tensor]:
    return [p for g in optimizer.param_groups for p in g["params"]]


def _is_per_model(value, num_models: int) -> bool:
    return (isinstance(value, np.ndarray) and value.ndim >= 1
            and value.shape[0] == num_models)


def _empty_like(like: FusedOptimizer, num_models: int, defaults: Dict,
                params: Sequence[Tensor]):
    """An optimizer of ``like``'s class without groups yet, and an iterator
    over ``params`` — which must be as many as ``like`` manages."""
    params, managed = list(params), len(_flat_params(like))
    if len(params) != managed:
        raise ValueError(f"parameter count mismatch: optimizer manages "
                         f"{managed}, re-fused model has {len(params)}")
    new = object.__new__(type(like))
    new.num_models, new.defaults = num_models, defaults
    new.param_groups, new.state, new._buffers = [], {}, {}
    new._column_memo = {}
    return new, iter(params)


def _taken(values: Dict, keep: List[int], width: int) -> Dict:
    """``values`` (a group, ``defaults`` or one parameter's state) with
    every per-model array narrowed to slots ``keep`` by :func:`take`."""
    return {k: (take(v, keep) if _is_per_model(v, width) else v)
            for k, v in values.items() if k != "params"}


def _joined(values_a: Dict, values_b: Dict, width_a: int, width_b: int,
            allocator) -> Dict:
    """Per-model arrays of two value dicts joined by :func:`join`; a value
    per-model on one side only, or a shared value that differs, raises."""
    out = {}
    for key, va in values_a.items():
        if key == "params":
            continue
        if key not in values_b:
            raise ValueError(f"cannot merge: '{key}' missing from "
                             f"second optimizer")
        vb = values_b[key]
        per_a, per_b = _is_per_model(va, width_a), _is_per_model(vb, width_b)
        if per_a and per_b:
            out[key] = join(va, vb, allocator)
        elif per_a or per_b:
            raise ValueError(f"cannot merge '{key}': per-model on one side "
                             f"only ({np.shape(va)} vs {np.shape(vb)})")
        elif not np.array_equal(va, vb):
            raise ValueError(f"cannot merge '{key}': shared value differs "
                             f"between the two arrays ({va!r} vs {vb!r})")
        else:
            out[key] = copy.deepcopy(va)
    return out


def _lazy_zeros(optimizer: FusedOptimizer, key: str, present: np.ndarray,
                present_width: int, param: Tensor, width: int) -> np.ndarray:
    """State ``key`` of ``width`` never-stepped slots, shaped like a slot of
    ``present`` (``present_width`` slots): zeros, the lazy initialization
    every fused optimizer uses, in the parameter's dtype (a step counter
    keeps its own).  Scalar state cannot be synthesized per slot: raises."""
    if not _is_per_model(present, present_width):
        raise ValueError(
            "cannot merge: one array has scalar optimizer state the other "
            "lacks; scalar state cannot be synthesized per slot")
    dtype = present.dtype if key in optimizer._counters else param.data.dtype
    return np.zeros((width,) + present.shape[1:], dtype)


def split_optimizer(optimizer: FusedOptimizer, new_params: Sequence[Tensor],
                    keep_indices: Sequence[int]) -> FusedOptimizer:
    """A new optimizer of the same class managing only ``keep_indices``.

    ``new_params`` are the parameters of the already-split fused model
    (:func:`repro.hfta.fusion.split_fused`), in the old flat order.  Every
    per-model state array and hyper-parameter vector goes through
    :func:`~repro.hfta.fusion.take`: views of the input optimizer's arrays
    for a contiguous keep run, gathered copies otherwise — the ownership
    contract of :func:`~repro.hfta.fusion.split_fused`, so stepping the
    result in place writes through to the shared base and the caller must
    discard the input or only ever step disjoint slot ranges of it.  The
    split itself leaves the input optimizer untouched.
    """
    _check_fully_fused(optimizer, "split_optimizer")
    keep = [int(i) for i in keep_indices]
    width = optimizer.num_models
    if any(not 0 <= i < width for i in keep):
        raise ValueError(f"keep_indices {keep} out of range for "
                         f"num_models={width}")

    new_opt, taken = _empty_like(optimizer, len(keep),
                                 _taken(optimizer.defaults, keep, width),
                                 new_params)
    for group in optimizer.param_groups:
        new_group = _taken(group, keep, width)
        new_group["params"] = [next(taken) for _ in group["params"]]
        for p_old, p_new in zip(group["params"], new_group["params"]):
            if p_new.shape != (len(keep),) + p_old.shape[1:]:
                raise ValueError(
                    f"split parameter shape {p_new.shape} does not match "
                    f"[{len(keep)}] + {p_old.shape[1:]}")
            st = optimizer.state.get(id(p_old))
            if st:
                new_opt.state[id(p_new)] = _taken(st, keep, width)
        new_opt.param_groups.append(new_group)
    return new_opt


def merge_optimizers(a: FusedOptimizer, b: FusedOptimizer,
                     merged_params: Sequence[Tensor],
                     allocator=None) -> FusedOptimizer:
    """One optimizer over a merged array: ``a``'s slots then ``b``'s.

    ``merged_params`` are the parameters of the merged fused model
    (:func:`repro.hfta.fusion.merge_fused`), flat order again.  Vector
    hyper-parameters and per-model state arrays go through
    :func:`~repro.hfta.fusion.join`.  A state entry present on only one
    side is materialized as zeros for the other — zeros are exactly the
    lazy initialization every fused optimizer uses, so a freshly admitted
    slot trains identically to a slot whose state was never touched.
    Shared (non-vector) hyper-parameters must agree on both sides.

    The merged state never aliases either input.  ``allocator(shape,
    dtype) -> ndarray`` supplies the destinations when given (the executor
    passes its buffer pool's ``take``).
    """
    if type(a) is not type(b):
        raise ValueError(f"cannot merge optimizers of different classes: "
                         f"{type(a).__name__} vs {type(b).__name__}")
    _check_fully_fused(a, "merge_optimizers")
    _check_fully_fused(b, "merge_optimizers")
    if len(a.param_groups) != len(b.param_groups):
        raise ValueError("cannot merge: different parameter group counts")
    widths = a.num_models, b.num_models

    merged, taken = _empty_like(
        a, sum(widths), _joined(a.defaults, b.defaults, *widths, allocator),
        merged_params)
    for group_a, group_b in zip(a.param_groups, b.param_groups):
        if len(group_a["params"]) != len(group_b["params"]):
            raise ValueError("cannot merge: parameter groups differ in size")
        new_group = _joined(group_a, group_b, *widths, allocator)
        new_group["params"] = [next(taken) for _ in group_a["params"]]
        merged.param_groups.append(new_group)

        for p_a, p_b, p_m in zip(group_a["params"], group_b["params"],
                                 new_group["params"]):
            if p_m.shape != (merged.num_models,) + p_a.shape[1:]:
                raise ValueError(
                    f"merged parameter shape {p_m.shape} does not match "
                    f"[{merged.num_models}] + {p_a.shape[1:]}")
            st_a = dict(a.state.get(id(p_a)) or {})
            st_b = dict(b.state.get(id(p_b)) or {})
            for key in dict(st_a, **st_b):
                if key not in st_a:
                    st_a[key] = _lazy_zeros(a, key, st_b[key], widths[1],
                                            p_m, widths[0])
                if key not in st_b:
                    st_b[key] = _lazy_zeros(a, key, st_a[key], widths[0],
                                            p_m, widths[1])
            if st_a:
                merged.state[id(p_m)] = _joined(st_a, st_b, *widths,
                                                allocator)
    return merged


def export_slot_state(optimizer: FusedOptimizer, index: int
                      ) -> Dict[int, Dict[str, np.ndarray]]:
    """One slot's optimizer state, sliced out of a fused optimizer.

    Returns ``{parameter position: {state key: per-slot array}}`` in the
    optimizer's flat parameter order — the payload the durable checkpoint
    layer (:mod:`repro.runtime.checkpoint`) persists per job.  Every array
    is a *copy* of the slot's slice (Adam's moments shaped like the
    parameter without the leading array dimension; the per-model step
    counter as a 0-d array), so the export stays valid after the live
    optimizer keeps stepping.  Parameters that have not accumulated state
    yet (the optimizer initializes lazily on first step) are absent from
    the result — loading an absent entry is a no-op, matching lazy
    initialization exactly.
    """
    _check_fully_fused(optimizer, "export_slot_state")
    if not 0 <= index < optimizer.num_models:
        raise ValueError(f"slot index {index} out of range for "
                         f"num_models={optimizer.num_models}")
    out: Dict[int, Dict[str, np.ndarray]] = {}
    for pos, param in enumerate(_flat_params(optimizer)):
        st = optimizer.state.get(id(param))
        if not st:
            continue
        slot: Dict[str, np.ndarray] = {}
        for key, value in st.items():
            if not _is_per_model(value, optimizer.num_models):
                raise ValueError(
                    f"cannot export slot state '{key}': not a per-model "
                    f"array (shape {np.shape(value)}); scalar state cannot "
                    f"be attributed to one slot")
            slot[key] = np.copy(value[index])
        out[pos] = slot
    return out


def load_slot_state(optimizer: FusedOptimizer, index: int,
                    state: Dict[int, Dict[str, np.ndarray]]) -> None:
    """Write an :func:`export_slot_state` capture into slot ``index``.

    The inverse operation, used when a checkpointed job *resumes* inside a
    freshly built fused array: the new optimizer starts with lazy (empty)
    state, and the resumed slot's moments/step counter are injected at its
    new position.  State entries are materialized as zeros for the whole
    array first — zeros are exactly the lazy initialization every fused
    optimizer uses (see :func:`merge_optimizers`), so cohort-mates that
    never stepped remain bit-identical to an optimizer that was never
    touched, while the resumed slot continues bit-exactly where its
    checkpoint left it.
    """
    _check_fully_fused(optimizer, "load_slot_state")
    if not 0 <= index < optimizer.num_models:
        raise ValueError(f"slot index {index} out of range for "
                         f"num_models={optimizer.num_models}")
    params = _flat_params(optimizer)
    for pos, slot in state.items():
        pos = int(pos)
        if not 0 <= pos < len(params):
            raise ValueError(f"parameter position {pos} out of range for "
                             f"{len(params)} parameters")
        param = params[pos]
        st = optimizer.state.setdefault(id(param), {})
        for key, value in slot.items():
            value = np.asarray(value)
            if key in optimizer._counters:
                # the checkpoint codec stores a 0-d step counter as ``(1,)``
                value = value.reshape(())
            else:
                # an export from when moments were float64 still resumes
                value = value.astype(param.data.dtype, copy=False)
            if key not in st:      # value[None]: the slot as a 1-slot array
                st[key] = _lazy_zeros(optimizer, key, value[None], 1, param,
                                      optimizer.num_models)
            target = st[key]
            if not _is_per_model(target, optimizer.num_models) or \
                    target.shape[1:] != value.shape:
                raise ValueError(
                    f"slot state '{key}' has shape {value.shape}, optimizer "
                    f"state has {np.shape(target)} (expected "
                    f"[{optimizer.num_models}] + {value.shape})")
            target[index] = value
