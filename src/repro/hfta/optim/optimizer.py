"""Base class for horizontally fused optimizers.

A fused optimizer manages parameters whose *leading dimension is the array
dimension* ``B`` (one slice per fused model) and hyper-parameters that are
per-model vectors of length ``B``.  The update rule of the underlying
optimizer is executed once on the whole ``[B, ...]`` array with the
hyper-parameter vectors broadcast along the array dimension: operation for
operation, in the parameter's dtype, what ``B`` independent :mod:`repro.optim`
optimizers compute (every slot bitwise the model trained alone) — but in a
handful of large vectorized operations instead of ``B`` small ones.

Partial fusion (paper Appendix H.4) is supported through *unfused parameter
groups*: parameters that belong to a single model ``b`` (because their block
was not fused) can be registered with ``model_index=b`` and are updated with
that model's scalar hyper-parameters.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ...nn.tensor import Tensor
from .utils import coerce_hyperparam

__all__ = ["FusedOptimizer"]


class FusedOptimizer:
    """Base class holding fused parameter groups and per-model state."""

    #: names of hyper-parameters that are per-model vectors
    _vector_hyperparams: Sequence[str] = ("lr",)
    #: AdamW-style decay: applied to the update, not added to the gradient
    decoupled_weight_decay = False
    #: state keys holding per-model float64 counters, not parameter-like arrays
    _counters: Sequence[str] = ("step",)

    def __init__(self, params: Iterable[Tensor], num_models: int,
                 defaults: Dict):
        params = list(params)
        if len(params) == 0:
            raise ValueError("optimizer got an empty parameter list")
        if num_models < 1:
            raise ValueError(f"num_models must be >= 1, got {num_models}")
        self.num_models = num_models
        # length-B vectors here as in the groups: re-fusion slices both alike
        self.defaults = {
            k: (coerce_hyperparam(v, num_models, k)
                if k in self._vector_hyperparams else v)
            for k, v in defaults.items()}
        self.param_groups: List[Dict] = []
        self.state: Dict[int, Dict] = {}
        self._buffers: Dict[np.dtype, np.ndarray] = {}   # work arrays
        self._column_memo: Dict[int, Tuple] = {}   # id(group) -> (key, cast)
        for group in (params if isinstance(params[0], dict)
                      else [dict(params=params)]):
            self.add_param_group(group)

    # ------------------------------------------------------------------ #
    def add_param_group(self, group: Dict) -> None:
        """Register a group of fused parameters (leading dim must be ``B``)."""
        group = dict(self.defaults, **group)
        group.setdefault("model_index", None)
        for name in self._vector_hyperparams:
            group[name] = coerce_hyperparam(group[name], self.num_models, name)
        for p in group["params"]:
            if group["model_index"] is None and p.shape[0] != self.num_models:
                raise ValueError(
                    f"fused parameter must have leading dim B={self.num_models}; "
                    f"got shape {p.shape}.  For unfused (partial-fusion) "
                    f"parameters pass model_index explicitly.")
        self.param_groups.append(group)

    def add_unfused_param_group(self, params: Iterable[Tensor],
                                model_index: int, **overrides) -> None:
        """Register parameters that belong to a single (unfused) model.

        Used for partial fusion: blocks that were left unfused keep one
        parameter set per model, updated with that model's scalar
        hyper-parameters (entry ``model_index`` of each vector).
        """
        if not 0 <= model_index < self.num_models:
            raise ValueError(f"model_index must be in [0, {self.num_models})")
        self.add_param_group(dict(overrides, params=list(params),
                                  model_index=model_index))

    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        for group in self.param_groups:
            for p in group["params"]:
                p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _any(self, group: Dict, name: str) -> bool:
        """Whether ``name`` is non-zero for a model this group updates."""
        index = group["model_index"]
        return bool(group[name].any() if index is None
                    else group[name][index])

    def _columns(self, group: Dict, *rows) -> Callable[..., Tuple]:
        """Per-model scalars of one step as same-dtype operands of a parameter.

        ``rows`` are float64 ``[B]`` vectors: what the serial optimizer holds
        as Python floats (``lr``, ``1 - beta1``, ...), computed as it computes
        them.  ``cast(dtype, ndim)`` rounds them once to a parameter's dtype,
        as numpy does when a Python float meets a float32 array: one 0-d
        scalar per row, or a ``[B, 1, ...]`` column where the models differ.
        """
        table, done = np.array(rows), {}
        index = group["model_index"]
        if index is not None:
            table = table[:, index]

        def cast(dtype: np.dtype, ndim: int) -> Tuple:
            if (dtype, ndim) not in done:
                columns = table.astype(dtype)
                if index is None:
                    # a shared value stays one scalar: numpy's fast path
                    shared = (columns == columns[:, :1]).all(axis=1).tolist()
                    shape = (-1,) + (1,) * (ndim - 1)
                    columns = [row[0] if same else row.reshape(shape)
                               for row, same in zip(columns, shared)]
                done[dtype, ndim] = tuple(columns)
            return done[dtype, ndim]
        return cast

    def _hyper_columns(self, group: Dict, rows: Callable[[], Tuple]
                       ) -> Callable[..., Tuple]:
        """:meth:`_columns` of ``weight_decay`` and ``rows()``, kept from
        step to step.

        The memo is keyed by the bytes of the group's hyper-parameter
        vectors, so an in-place ``group["lr"] *= 10``, a scheduler's new
        vector or a re-fusion is seen at the next step; ``rows()`` — a
        function of those vectors only — runs when the key changed.
        """
        key = (group["model_index"],) + tuple(
            group[name].tobytes() for name in self._vector_hyperparams)
        memo = self._column_memo.get(id(group))
        if memo is None or memo[0] != key:
            memo = self._column_memo[id(group)] = (key, self._columns(
                group, group["weight_decay"], *rows()))
        return memo[1]

    def _updates(self, group: Dict, work_arrays: int,
                 rows: Callable[[], Tuple]):
        """Yield ``(param, grad, columns, work)`` per parameter with a gradient.

        ``columns`` are ``rows()`` through :meth:`_hyper_columns`; ``work``
        stacks ``work_arrays`` arrays like the parameter, carved from one
        buffer per dtype that every update reuses (a warm step allocates
        none); ``grad`` gains ``weight_decay * p``, in one more work array,
        when a model of the group decays and the decay is not decoupled.
        """
        decays = (not self.decoupled_weight_decay
                  and self._any(group, "weight_decay"))
        cast = self._hyper_columns(group, rows)
        for p in group["params"]:
            if p.grad is None:
                continue
            data, grad = p.data, p.grad
            wd, *columns = cast(data.dtype, data.ndim)
            size = (work_arrays + decays) * data.size
            buffer = self._buffers.get(data.dtype)
            if buffer is None or buffer.size < size:
                buffer = self._buffers[data.dtype] = np.empty(size, data.dtype)
            work = buffer[:size].reshape((-1,) + data.shape)
            if decays:
                grad = np.multiply(data, wd, out=work[-1])
                grad += p.grad
            yield p, grad, columns, work

    @property
    def lr(self) -> np.ndarray:
        """Per-model learning-rate vector of the first parameter group."""
        return self.param_groups[0]["lr"]

    def state_dict(self) -> Dict:
        return {
            "num_models": self.num_models,
            "param_groups": [
                {k: (v.copy() if isinstance(v, np.ndarray) else v)
                 for k, v in g.items() if k != "params"}
                for g in self.param_groups
            ],
        }
