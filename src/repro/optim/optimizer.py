"""Optimizer base class."""

from __future__ import annotations

from typing import Dict, Iterable


from ..nn.tensor import Tensor

__all__ = ["Optimizer"]


class Optimizer:
    """Base class holding parameters, per-parameter state, and defaults.

    ``param_groups`` follows the PyTorch convention: a list of dictionaries,
    each with a ``"params"`` list plus the group's hyper-parameters, which
    a caller may retune between steps (e.g. ``group["lr"] *= 0.1``).
    """

    def __init__(self, params: Iterable[Tensor], defaults: Dict):
        params = list(params)
        if len(params) == 0:
            raise ValueError("optimizer got an empty parameter list")
        if isinstance(params[0], dict):
            self.param_groups = [dict(defaults, **g) for g in params]
        else:
            self.param_groups = [dict(defaults, params=params)]
        self.defaults = dict(defaults)
        self.state: Dict[int, Dict] = {}

    def zero_grad(self) -> None:
        """Clear the ``.grad`` of every managed parameter."""
        for group in self.param_groups:
            for p in group["params"]:
                p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _get_state(self, param: Tensor) -> Dict:
        st = self.state.get(id(param))
        if st is None:
            st = {}
            self.state[id(param)] = st
        return st

    def state_dict(self) -> Dict:
        return {
            "param_groups": [
                {k: v for k, v in g.items() if k != "params"}
                for g in self.param_groups
            ],
        }

    @property
    def lr(self) -> float:
        """Convenience accessor for the first param group's learning rate."""
        return self.param_groups[0]["lr"]
