"""Horizontally Fused Training Array (HFTA) — the paper's core contribution.

``repro.hfta`` fuses the models of ``B`` repetitive training jobs (same
operator types, same shapes — e.g. the jobs of a hyper-parameter sweep)
into a single *array-of-models* that trains on one shared accelerator:

* :mod:`repro.hfta.ops` — fused operators (Table 6 rules): grouped
  convolutions, batched linear (one ``F.linear`` node over ``[B, out, in]``
  weights), folded batch norm, offset
  embeddings, fused attention, ...
* :mod:`repro.hfta.optim` — fused optimizers (Adam, Adadelta, SGD)
  operating on per-model hyper-parameter vectors.
* :mod:`repro.hfta.losses` — fused criteria: Appendix C's fused loss is
  the sum of each model's own loss, which gives each model exactly its
  independent gradients.
* :mod:`repro.hfta.fusion` — the one path a slot's weights take between
  unfused models and fused arrays (:func:`load_from_unfused`,
  :func:`export_to_unfused`), and fusibility validation.

Because every transformation is mathematically equivalent, HFTA has no
effect on any individual model's convergence; the speedup comes purely from
launching fewer, larger, better-utilizing kernels.
"""

from . import ops
from . import optim
from .losses import (FusedCrossEntropyLoss, FusedNLLLoss, FusedMSELoss,
                     FusedBCELoss)
from .fusion import (load_from_unfused, export_to_unfused,
                     validate_fusibility, fusibility_error,
                     structural_signature, fused_array_width, split_fused,
                     merge_fused)

__all__ = [
    "ops", "optim", "FusedCrossEntropyLoss", "FusedNLLLoss", "FusedMSELoss",
    "FusedBCELoss", "load_from_unfused", "export_to_unfused",
    "validate_fusibility", "fusibility_error", "structural_signature",
    "fused_array_width", "split_fused", "merge_fused",
]
