"""Hyper-parameter search spaces for HFHT.

Each hyper-parameter is declared *fusible* or *infusible* (paper Appendix E):
fusible hyper-parameters (learning rate, betas, weight decay, LR-schedule
settings) can take different values inside one horizontally fused job;
infusible ones (batch size, model-architecture switches like PointNet's
feature-transform flag or the MobileNet version) change operator shapes and
therefore force separate fused partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = ["HyperParameter", "SearchSpace", "pointnet_search_space",
           "mobilenet_search_space"]

Value = Union[float, int, str, bool]


@dataclass(frozen=True)
class HyperParameter:
    """One tunable hyper-parameter.

    Either a continuous closed interval ``[low, high]`` (optionally sampled
    log-uniformly) or a discrete set of ``choices``.
    """

    name: str
    fusible: bool
    low: Optional[float] = None
    high: Optional[float] = None
    log_scale: bool = False
    choices: Optional[Tuple[Value, ...]] = None

    def __post_init__(self):
        continuous = self.low is not None and self.high is not None
        discrete = self.choices is not None and len(self.choices) > 0
        if continuous == discrete:
            raise ValueError(
                f"hyper-parameter '{self.name}' must define either a "
                f"continuous range or a discrete choice set (not both/neither)")

    @property
    def is_continuous(self) -> bool:
        return self.choices is None

    def sample(self, rng: np.random.Generator) -> Value:
        if self.is_continuous:
            if self.log_scale:
                return float(np.exp(rng.uniform(np.log(self.low),
                                                np.log(self.high))))
            return float(rng.uniform(self.low, self.high))
        return self.choices[int(rng.integers(len(self.choices)))]


@dataclass
class SearchSpace:
    """An ordered collection of hyper-parameters."""

    parameters: List[HyperParameter]

    def __post_init__(self):
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate hyper-parameter names")

    def __len__(self) -> int:
        return len(self.parameters)

    def names(self) -> List[str]:
        return [p.name for p in self.parameters]

    def infusible_names(self) -> List[str]:
        return [p.name for p in self.parameters if not p.fusible]

    def sample(self, rng: np.random.Generator) -> Dict[str, Value]:
        """Sample one full hyper-parameter configuration."""
        return {p.name: p.sample(rng) for p in self.parameters}

    def sample_batch(self, count: int,
                     rng: np.random.Generator) -> List[Dict[str, Value]]:
        return [self.sample(rng) for _ in range(count)]


def pointnet_search_space() -> SearchSpace:
    """The eight PointNet-classification hyper-parameters of Table 12."""
    return SearchSpace([
        HyperParameter("lr", True, 1e-4, 1e-2, log_scale=True),
        HyperParameter("adam_beta1", True, 0.001, 0.999),
        HyperParameter("adam_beta2", True, 0.001, 0.999),
        HyperParameter("weight_decay", True, 0.0, 0.5),
        HyperParameter("lr_decay_factor", True, 0.1, 0.9),
        HyperParameter("lr_decay_period", True, choices=(5, 10, 20, 40)),
        HyperParameter("batch_size", False, choices=(8, 16, 32)),
        HyperParameter("feature_transform", False, choices=(True, False)),
    ])


def mobilenet_search_space() -> SearchSpace:
    """The eight MobileNet-classification hyper-parameters of Table 12."""
    return SearchSpace([
        HyperParameter("lr", True, 1e-4, 1e-2, log_scale=True),
        HyperParameter("adam_beta1", True, 0.001, 0.999),
        HyperParameter("adam_beta2", True, 0.001, 0.999),
        HyperParameter("weight_decay", True, 0.0, 0.5),
        HyperParameter("lr_decay_factor", True, 0.1, 0.9),
        HyperParameter("lr_decay_period", True, choices=(5, 10, 20, 40)),
        HyperParameter("batch_size", False, choices=(1024, 2048)),
        HyperParameter("version", False, choices=("V2", "V3-Large")),
    ])
