"""Horizontally fused Adam optimizer.

Equivalent to ``B`` independent :class:`repro.optim.Adam` instances, one per
fused model, each possibly with its own learning rate, betas and weight
decay — but executed as a handful of broadcasted array operations over the
``[B, ...]``-shaped fused parameters.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ...nn.tensor import Tensor
from .optimizer import FusedOptimizer
from .utils import HyperParam

__all__ = ["Adam", "AdamW"]

#: ``float ** float`` per element (an array of Python floats) — the serial
#: optimizer's own call; ``np.power`` rounds ~4 % of inputs differently
_pow = np.frompyfunc(pow, 2, 1)


class Adam(FusedOptimizer):
    """Fused Adam with per-model ``lr`` / ``betas`` / ``eps`` / ``weight_decay``.

    ``betas`` may be a pair of scalars or a pair of length-``B`` vectors
    (``beta1`` and ``beta2`` are tracked separately so that each can be tuned
    per model, as in the paper's HFHT workloads — Table 12 tunes ``Adam's
    beta1`` and ``beta2`` independently).
    """

    _vector_hyperparams = ("lr", "beta1", "beta2", "eps", "weight_decay")

    def __init__(self, params: Iterable[Tensor], num_models: int,
                 lr: HyperParam = 1e-3,
                 betas: Tuple[HyperParam, HyperParam] = (0.9, 0.999),
                 eps: HyperParam = 1e-8, weight_decay: HyperParam = 0.0):
        defaults = dict(lr=lr, beta1=betas[0], beta2=betas[1], eps=eps,
                        weight_decay=weight_decay)
        super().__init__(params, num_models, defaults)

    def step(self) -> None:
        # Element for element :meth:`repro.optim.Adam.step`, in place: same
        # operations, same operand dtypes (test_optimizer_serial_bitwise.py).
        for group in self.param_groups:
            lr, beta1, beta2 = group["lr"], group["beta1"], group["beta2"]
            decays = (self.decoupled_weight_decay
                      and self._any(group, "weight_decay"))
            bias_step = bias_cast = None
            for p, grad, columns, (s1, s2, *_) in self._updates(
                    group, 2, lambda: (
                        beta1, 1 - beta1, beta2, 1 - beta2, group["eps"],
                        lr, lr * group["weight_decay"])):
                b1, rest1, b2, rest2, eps, rate, rate_wd = columns
                st = self.state.setdefault(id(p), {})
                if not st:
                    # The step counter is per model: re-fusion merges arrays
                    # whose slots sit at different progress, and each slot's
                    # bias correction must keep using its own step count.
                    st["step"] = (np.zeros(self.num_models)
                                  if group["model_index"] is None else 0)
                    st["exp_avg"] = np.zeros_like(p.data)
                    st["exp_avg_sq"] = np.zeros_like(p.data)
                step = st["step"] = st["step"] + 1
                if not np.array_equal(step, bias_step):    # else: shared
                    bias_step, bias_cast = step, self._columns(
                        group, 1 - _pow(beta1, step), 1 - _pow(beta2, step))
                bias1, bias2 = bias_cast(p.data.dtype, p.data.ndim)
                ea, easq = st["exp_avg"], st["exp_avg_sq"]
                # ea = beta1 * ea + (1 - beta1) * grad
                np.multiply(grad, rest1, out=s1)
                ea *= b1
                ea += s1
                # easq = beta2 * easq + (1 - beta2) * grad * grad
                np.multiply(grad, rest2, out=s1)
                s1 *= grad
                easq *= b2
                easq += s1
                # s1 = denom = sqrt(easq / bias2) + eps
                np.divide(easq, bias2, out=s1)
                np.sqrt(s1, out=s1)
                s1 += eps
                # s2 = update = lr * (ea / bias1) / denom
                np.divide(ea, bias1, out=s2)
                s2 *= rate
                s2 /= s1
                if decays:
                    # update = update + lr * wd * p
                    np.multiply(p.data, rate_wd, out=s1)
                    s2 += s1
                p.data -= s2


class AdamW(Adam):
    """Fused Adam with decoupled weight decay."""

    decoupled_weight_decay = True

    def __init__(self, params: Iterable[Tensor], num_models: int,
                 lr: HyperParam = 1e-3,
                 betas: Tuple[HyperParam, HyperParam] = (0.9, 0.999),
                 eps: HyperParam = 1e-8, weight_decay: HyperParam = 0.01):
        super().__init__(params, num_models, lr=lr, betas=betas, eps=eps,
                         weight_decay=weight_decay)
