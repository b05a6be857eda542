"""Unfused optimizers.

These mirror ``torch.optim`` and serve as the *serial* baselines of the
reproduction: one optimizer instance per training job, scalar
hyper-parameters.  The HFTA fused optimizers
(:mod:`repro.hfta.optim`) generalize them to per-model hyper-parameter
vectors broadcast against ``[B, ...]``-shaped fused parameters.
"""

from .optimizer import Optimizer
from .sgd import SGD
from .adam import Adam, AdamW
from .adadelta import Adadelta

__all__ = ["Optimizer", "SGD", "Adam", "AdamW", "Adadelta"]
