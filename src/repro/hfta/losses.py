"""Fused losses (paper Section 3 "Loss Scaling" and Appendix C).

When ``B`` models are horizontally fused, one backward pass from one scalar
trains all ``B`` of them.  Appendix C's rule for that scalar reconstructs
exactly the gradients each model would have received if trained alone:
with ``l_b`` model ``b``'s own loss, the fused loss is ``L = sum_b l_b``
(the paper's ``B * mean_b l_b``), so ``grad_{theta_b} L = grad_{theta_b}
l_b``.  The derivation makes no assumption on the form of ``l_b``, so the
rule applies to any criterion, including ones with regularization terms.

Each criterion computes ``l_b`` with the serial functional's operations on
model ``b``'s rows, so the per-model values and the gradients are bitwise
those of ``B`` serial criterion calls, at any ``B`` and batch size.
"""

from __future__ import annotations

from ..nn import functional as F
from ..nn.modules.module import Module
from ..nn.tensor import Tensor

__all__ = ["FusedCrossEntropyLoss", "FusedNLLLoss", "FusedMSELoss",
           "FusedBCELoss"]


class _FusedLoss(Module):
    """Base class for fused criteria over the batched layout ``[B, ...]``.

    A criterion supplies ``_per_sample(prediction, target)``: the ``B``
    models' unreduced losses, ``[B, ...]``, in the operation order of the
    serial functional.  Everything else — the per-model means and their
    sum — lives here, once.  Cross entropy and NLL instead override
    ``_means`` with one node that also takes the means.  Either way
    :meth:`per_model` is the one entry point (``bench_e2e`` times it).
    """

    def __init__(self, num_models: int):
        super().__init__()
        self.num_models = num_models

    def _per_sample(self, prediction: Tensor, target) -> Tensor:
        raise NotImplementedError

    def _means(self, prediction: Tensor, target) -> Tensor:
        rows = self._per_sample(prediction, target)
        if rows.ndim != 2:
            rows = rows.reshape(rows.shape[0], -1)
        return rows.mean(axis=-1)

    def per_model(self, prediction: Tensor, target) -> Tensor:
        """Each model's own mean loss, ``[B]`` and connected to the graph.

        The rows are reduced as ``Tensor.mean`` reduces a serial loss
        (``sum * (1 / M)``), so ``per_model(...).backward(ones)`` is one
        fused training step's backward (``d(sum_b l_b) / d l_b = 1``) and
        ``.data`` holds the values to log — no second pass.
        """
        return self._means(prediction, target)

    def forward(self, prediction: Tensor, target) -> Tensor:
        """The fused loss ``sum_b l_b``."""
        return self.per_model(prediction, target).sum()

    def extra_repr(self) -> str:
        return f"B={self.num_models}"


class FusedCrossEntropyLoss(_FusedLoss):
    """Cross entropy over fused logits ``[B, N, C]`` and targets ``[B, N]``:
    one :func:`repro.nn.functional.nll_per_group` node."""

    def _means(self, logits: Tensor, target) -> Tensor:
        return F.nll_per_group(logits, target, from_logits=True)


class FusedNLLLoss(_FusedLoss):
    """NLL over fused log-probabilities ``[B, N, C]`` and targets ``[B, N]``:
    one :func:`repro.nn.functional.nll_per_group` node."""

    def _means(self, log_probs: Tensor, target) -> Tensor:
        return F.nll_per_group(log_probs, target)


class FusedMSELoss(_FusedLoss):
    """Mean-squared error over fused predictions ``[B, ...]``."""

    def _per_sample(self, prediction: Tensor, target) -> Tensor:
        return F.mse_loss(prediction, target, "none")


class FusedBCELoss(_FusedLoss):
    """Binary cross entropy over fused probabilities ``[B, ...]`` (DCGAN)."""

    def _per_sample(self, prob: Tensor, target) -> Tensor:
        return F.binary_cross_entropy(prob, target, "none")
