"""Horizontally fused learning-rate schedulers.

The paper fuses LR schedulers (StepLR is named explicitly) because LR
schedules are themselves hyper-parameters under tuning: each fused model may
have its own decay period and factor.  A fused scheduler therefore keeps
*vectors* of schedule parameters and updates the optimizer's per-model LR
vector in one broadcasted operation per epoch.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .optimizer import FusedOptimizer
from .utils import HyperParam, coerce_hyperparam

__all__ = ["FusedLRScheduler", "StepLR", "ExponentialLR", "CosineAnnealingLR"]


class FusedLRScheduler:
    """Base class: snapshots each group's per-model base LR vector."""

    def __init__(self, optimizer: FusedOptimizer, last_epoch: int = -1):
        self.optimizer = optimizer
        self.num_models = optimizer.num_models
        self.base_lrs: List[np.ndarray] = [np.array(g["lr"], dtype=np.float64)
                                           for g in optimizer.param_groups]
        self.last_epoch = last_epoch
        self.step()

    def get_lr(self) -> List[np.ndarray]:  # pragma: no cover - abstract
        raise NotImplementedError

    def get_last_lr(self) -> List[np.ndarray]:
        return [np.array(g["lr"]) for g in self.optimizer.param_groups]

    def step(self) -> None:
        self.last_epoch += 1
        for group, lr in zip(self.optimizer.param_groups, self.get_lr()):
            group["lr"] = np.asarray(lr, dtype=np.float64)


class StepLR(FusedLRScheduler):
    """Per-model step decay: model ``b``'s LR decays by ``gamma[b]`` every
    ``step_size[b]`` epochs."""

    def __init__(self, optimizer: FusedOptimizer, step_size: HyperParam,
                 gamma: HyperParam = 0.1, last_epoch: int = -1):
        self.step_size = coerce_hyperparam(step_size, optimizer.num_models,
                                           "step_size")
        self.gamma = coerce_hyperparam(gamma, optimizer.num_models, "gamma")
        super().__init__(optimizer, last_epoch)

    def get_lr(self) -> List[np.ndarray]:
        exponent = np.floor_divide(self.last_epoch, self.step_size)
        factor = self.gamma ** exponent
        return [base * factor for base in self.base_lrs]


class ExponentialLR(FusedLRScheduler):
    """Per-model exponential decay by ``gamma[b]`` every epoch."""

    def __init__(self, optimizer: FusedOptimizer, gamma: HyperParam,
                 last_epoch: int = -1):
        self.gamma = coerce_hyperparam(gamma, optimizer.num_models, "gamma")
        super().__init__(optimizer, last_epoch)

    def get_lr(self) -> List[np.ndarray]:
        factor = self.gamma ** self.last_epoch
        return [base * factor for base in self.base_lrs]


class CosineAnnealingLR(FusedLRScheduler):
    """Per-model cosine annealing with per-model ``T_max`` and ``eta_min``."""

    def __init__(self, optimizer: FusedOptimizer, T_max: HyperParam,
                 eta_min: HyperParam = 0.0, last_epoch: int = -1):
        self.T_max = coerce_hyperparam(T_max, optimizer.num_models, "T_max")
        self.eta_min = coerce_hyperparam(eta_min, optimizer.num_models,
                                         "eta_min")
        super().__init__(optimizer, last_epoch)

    def get_lr(self) -> List[np.ndarray]:
        t = np.minimum(self.last_epoch, self.T_max)
        factor = (1 + np.cos(np.pi * t / self.T_max)) / 2
        return [self.eta_min + (base - self.eta_min) * factor
                for base in self.base_lrs]
