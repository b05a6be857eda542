"""Horizontally fused SGD optimizer (with per-model momentum / weight decay)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ...nn.tensor import Tensor
from .optimizer import FusedOptimizer
from .utils import HyperParam

__all__ = ["SGD"]


class SGD(FusedOptimizer):
    """Fused SGD with per-model ``lr`` / ``momentum`` / ``weight_decay``."""

    _vector_hyperparams = ("lr", "momentum", "weight_decay")

    def __init__(self, params: Iterable[Tensor], num_models: int,
                 lr: HyperParam = 0.01, momentum: HyperParam = 0.0,
                 weight_decay: HyperParam = 0.0, nesterov: bool = False):
        defaults = dict(lr=lr, momentum=momentum, weight_decay=weight_decay,
                        nesterov=nesterov)
        super().__init__(params, num_models, defaults)

    def step(self) -> None:
        # Element for element :meth:`repro.optim.SGD.step`, in place.
        for group in self.param_groups:
            use_momentum = self._any(group, "momentum")
            for p, grad, (lr, mu), work in self._updates(
                    group, 1, lambda: (group["lr"], group["momentum"])):
                if use_momentum:
                    st = self.state.setdefault(id(p), {})
                    buf = st.get("momentum_buffer")
                    if buf is None:
                        buf = st["momentum_buffer"] = grad.copy()
                    else:
                        # buf = momentum * buf + grad
                        buf *= mu
                        buf += grad
                    if group["nesterov"]:
                        # grad = grad + momentum * buf
                        ahead = np.multiply(buf, mu, out=work[0])
                        ahead += grad
                        grad = ahead
                    else:
                        grad = buf
                update = np.multiply(grad, lr, out=work[0])
                p.data -= update
