"""Horizontally Fused Hyper-parameter Tuning (HFHT) — paper Section 3 & Appendix E.

HFHT integrates HFTA with existing tuning algorithms: when the algorithm
proposes a batch of hyper-parameter sets, the ``hfta`` scheduler submits
them to the training-array runtime (:mod:`repro.runtime`), which fuses the
sets sharing their *infusible* hyper-parameters into horizontally fused
arrays, drastically reducing the total GPU hours of a sweep (Figure 8: up
to 5.1x cheaper than the serial scheduler).
"""

from .space import (HyperParameter, SearchSpace, pointnet_search_space,
                    mobilenet_search_space)
from .algorithms import (Trial, TuningAlgorithm, RandomSearch, Hyperband,
                         MedianStopper, SuccessiveHalvingStopper)
from .surrogate import surrogate_accuracy
from .scheduler import JobScheduler, SchedulerResult, SCHEDULER_MODES
from .tuner import HFHT, TuningOutcome

__all__ = [
    "HyperParameter", "SearchSpace", "pointnet_search_space",
    "mobilenet_search_space", "Trial", "TuningAlgorithm", "RandomSearch",
    "Hyperband", "MedianStopper", "SuccessiveHalvingStopper",
    "surrogate_accuracy", "JobScheduler", "SchedulerResult",
    "SCHEDULER_MODES", "HFHT", "TuningOutcome",
]
