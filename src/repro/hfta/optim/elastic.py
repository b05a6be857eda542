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
from ..fusion import contiguous_run
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


def split_optimizer(optimizer: FusedOptimizer, new_params: Sequence[Tensor],
                    keep_indices: Sequence[int],
                    copy_state: bool = False) -> FusedOptimizer:
    """A new optimizer of the same class managing only ``keep_indices``.

    ``new_params`` are the parameters of the already-split fused model
    (:func:`repro.hfta.fusion.split_fused`), in the old flat order.  Every
    per-model state array and hyper-parameter vector is sliced to the kept
    slots; the split itself leaves the input optimizer untouched.

    Zero-copy contract (mirrors :func:`~repro.hfta.fusion.split_fused`):
    with ``copy_state=False`` (default) and a contiguous keep run, the big
    per-*parameter* state arrays (Adam's moments, momentum buffers) come
    back as views into the input optimizer's state — stepping the result
    in place writes through to the shared base, so the caller must discard
    the input or only ever step disjoint slot ranges of it.  Group
    hyper-parameter vectors and ``defaults`` are always copied: they are
    tiny and callers legitimately retune them (e.g. LR schedules) without
    meaning to retune the sibling.  ``copy_state=True`` restores fully
    owned state everywhere.
    """
    _check_fully_fused(optimizer, "split_optimizer")
    keep = [int(i) for i in keep_indices]
    run = None if copy_state else contiguous_run(keep)

    def take_state(value: np.ndarray) -> np.ndarray:
        if run is not None:
            return value[run[0]:run[1]]          # view, zero bytes moved
        return value[keep].copy()

    old_width = optimizer.num_models
    if any(not 0 <= i < old_width for i in keep):
        raise ValueError(f"keep_indices {keep} out of range for "
                         f"num_models={old_width}")

    def take_hypers(values: Dict) -> Dict:
        return {k: (v[keep].copy() if _is_per_model(v, old_width) else v)
                for k, v in values.items() if k != "params"}

    new_opt, taken = _empty_like(optimizer, len(keep),
                                 take_hypers(optimizer.defaults), new_params)
    for group in optimizer.param_groups:
        new_group = take_hypers(group)
        new_group["params"] = [next(taken) for _ in group["params"]]
        for p_old, p_new in zip(group["params"], new_group["params"]):
            if p_new.shape != (len(keep),) + p_old.shape[1:]:
                raise ValueError(
                    f"split parameter shape {p_new.shape} does not match "
                    f"[{len(keep)}] + {p_old.shape[1:]}")
            st = optimizer.state.get(id(p_old))
            if st:
                new_opt.state[id(p_new)] = {
                    k: (take_state(v) if _is_per_model(v, old_width)
                        else copy.deepcopy(v))
                    for k, v in st.items()}
        new_opt.param_groups.append(new_group)
    return new_opt


def merge_optimizers(a: FusedOptimizer, b: FusedOptimizer,
                     merged_params: Sequence[Tensor],
                     allocator=None) -> FusedOptimizer:
    """One optimizer over a merged array: ``a``'s slots then ``b``'s.

    ``merged_params`` are the parameters of the merged fused model
    (:func:`repro.hfta.fusion.merge_fused`), flat order again.  Vector
    hyper-parameters and per-model state arrays are concatenated.  A state
    entry present on only one side is materialized as zeros for the other —
    zeros are exactly the lazy initialization every fused optimizer uses,
    so a freshly admitted slot trains identically to a slot whose state was
    never touched.  Scalar state must agree on both sides (per-model step
    counters make the one historic scalar, Adam's ``step``, a vector).

    The merged state never aliases either input.  ``allocator(shape,
    dtype) -> ndarray`` supplies the concatenation destinations when given
    (the executor passes its buffer pool's ``take``); results are fully
    overwritten.
    """
    if type(a) is not type(b):
        raise ValueError(f"cannot merge optimizers of different classes: "
                         f"{type(a).__name__} vs {type(b).__name__}")
    _check_fully_fused(a, "merge_optimizers")
    _check_fully_fused(b, "merge_optimizers")
    if len(a.param_groups) != len(b.param_groups):
        raise ValueError("cannot merge: different parameter group counts")
    width_a, width_b = a.num_models, b.num_models

    def join(name, va, vb):
        per_a, per_b = _is_per_model(va, width_a), _is_per_model(vb, width_b)
        if per_a and per_b:
            if allocator is not None and va.dtype == vb.dtype:
                dest = allocator((va.shape[0] + vb.shape[0],) + va.shape[1:],
                                 va.dtype)
                return np.concatenate([va, vb], out=dest)
            return np.concatenate([va, vb])
        if per_a or per_b:
            raise ValueError(f"cannot merge '{name}': per-model on one side "
                             f"only ({np.shape(va)} vs {np.shape(vb)})")
        if not np.array_equal(va, vb):
            raise ValueError(f"cannot merge '{name}': shared value differs "
                             f"between the two arrays ({va!r} vs {vb!r})")
        return copy.deepcopy(va)

    def join_hypers(values_a: Dict, values_b: Dict) -> Dict:
        joined = {}
        for key, va in values_a.items():
            if key == "params":
                continue
            if key not in values_b:
                raise ValueError(f"cannot merge: '{key}' missing from "
                                 f"second optimizer")
            joined[key] = join(key, va, values_b[key])
        return joined

    merged, taken = _empty_like(a, width_a + width_b,
                                join_hypers(a.defaults, b.defaults),
                                merged_params)
    for group_a, group_b in zip(a.param_groups, b.param_groups):
        if len(group_a["params"]) != len(group_b["params"]):
            raise ValueError("cannot merge: parameter groups differ in size")
        new_group = join_hypers(group_a, group_b)
        new_group["params"] = [next(taken) for _ in group_a["params"]]
        merged.param_groups.append(new_group)

        for p_a, p_b, p_m in zip(group_a["params"], group_b["params"],
                                 new_group["params"]):
            if p_m.shape != (merged.num_models,) + p_a.shape[1:]:
                raise ValueError(
                    f"merged parameter shape {p_m.shape} does not match "
                    f"[{merged.num_models}] + {p_a.shape[1:]}")
            st_a = a.state.get(id(p_a)) or {}
            st_b = b.state.get(id(p_b)) or {}
            new_st = {}
            for key in dict(st_a, **st_b):
                va, vb = st_a.get(key), st_b.get(key)
                dtype = None if key in a._counters else p_m.data.dtype
                if va is None:
                    va = _zeros_like_state(vb, width_b, width_a, dtype)
                if vb is None:
                    vb = _zeros_like_state(va, width_a, width_b, dtype)
                new_st[key] = join(key, va, vb)
            if new_st:
                merged.state[id(p_m)] = new_st
    return merged


def _zeros_like_state(present, present_width: int, missing_width: int,
                      dtype=None):
    """Zero-state for the side that never stepped (== lazy initialization),
    in ``dtype`` (the live parameter's) or, for a counter, its own."""
    if _is_per_model(present, present_width):
        return np.zeros((missing_width,) + present.shape[1:],
                        dtype=dtype or present.dtype)
    raise ValueError(
        "cannot merge: one array has scalar optimizer state the other "
        "lacks; scalar state cannot be synthesized per slot")


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
            if key not in st:
                st[key] = np.zeros(
                    (optimizer.num_models,) + value.shape, dtype=value.dtype)
            target = st[key]
            if not _is_per_model(target, optimizer.num_models) or \
                    target.shape[1:] != value.shape:
                raise ValueError(
                    f"slot state '{key}' has shape {value.shape}, optimizer "
                    f"state has {np.shape(target)} (expected "
                    f"[{optimizer.num_models}] + {value.shape})")
            target[index] = value
