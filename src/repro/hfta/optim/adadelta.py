"""Horizontally fused Adadelta optimizer (paper Section 3 names Adadelta as a
supported fused optimizer)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ...nn.tensor import Tensor
from .optimizer import FusedOptimizer
from .utils import HyperParam

__all__ = ["Adadelta"]


class Adadelta(FusedOptimizer):
    """Fused Adadelta with per-model ``lr`` / ``rho`` / ``eps`` / ``weight_decay``."""

    _vector_hyperparams = ("lr", "rho", "eps", "weight_decay")

    def __init__(self, params: Iterable[Tensor], num_models: int,
                 lr: HyperParam = 1.0, rho: HyperParam = 0.9,
                 eps: HyperParam = 1e-6, weight_decay: HyperParam = 0.0):
        defaults = dict(lr=lr, rho=rho, eps=eps, weight_decay=weight_decay)
        super().__init__(params, num_models, defaults)

    def step(self) -> None:
        # Element for element :meth:`repro.optim.Adadelta.step`, in place.
        for group in self.param_groups:
            rho = group["rho"]
            for p, grad, columns, (s1, delta, *_) in self._updates(
                    group, 2, lambda: (group["lr"], rho, 1 - rho,
                                       group["eps"])):
                lr, keep, rest, eps = columns
                st = self.state.setdefault(id(p), {})
                if not st:
                    st["square_avg"] = np.zeros_like(p.data)
                    st["acc_delta"] = np.zeros_like(p.data)
                square_avg, acc_delta = st["square_avg"], st["acc_delta"]
                # square_avg = rho * square_avg + (1 - rho) * grad * grad
                np.multiply(grad, rest, out=s1)
                s1 *= grad
                square_avg *= keep
                square_avg += s1
                # s1 = std = sqrt(square_avg + eps)
                np.add(square_avg, eps, out=s1)
                np.sqrt(s1, out=s1)
                # delta = sqrt(acc_delta + eps) / std * grad
                np.add(acc_delta, eps, out=delta)
                np.sqrt(delta, out=delta)
                delta /= s1
                delta *= grad
                # acc_delta = rho * acc_delta + (1 - rho) * delta * delta
                np.multiply(delta, rest, out=s1)
                s1 *= delta
                acc_delta *= keep
                acc_delta += s1
                np.multiply(delta, lr, out=s1)
                p.data -= s1
