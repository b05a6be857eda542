"""Horizontally fused optimizers.

Fused optimizers update ``[B, ...]``-shaped fused parameters with per-model
hyper-parameter *vectors*, replacing ``B`` scalar-vector operations by one
broadcasted vector-vector operation (paper Section 3, "HFTA Optimizers and
Learning Rate Schedulers").
"""

from .optimizer import FusedOptimizer
from .adam import Adam, AdamW
from .adadelta import Adadelta
from .sgd import SGD
from .utils import coerce_hyperparam
from .elastic import (split_optimizer, merge_optimizers, export_slot_state,
                      load_slot_state)

__all__ = ["FusedOptimizer", "Adam", "AdamW", "Adadelta", "SGD",
           "coerce_hyperparam",
           "split_optimizer", "merge_optimizers", "export_slot_state",
           "load_slot_state"]
