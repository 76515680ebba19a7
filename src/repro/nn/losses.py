"""Loss functions used by APOTS.

The paper's objectives need exactly two ingredients: per-speed MSE for the
predictor and log-probability (binary cross-entropy style) terms for the
adversarial game, which ``BCEWithLogitsLoss`` computes stably from the
discriminator's raw scores.
"""

from __future__ import annotations

import numpy as np

from .module import Module
from .tensor import Tensor, as_tensor

__all__ = ["MSELoss", "BCEWithLogitsLoss"]


class _Loss(Module):
    """Base class handling the mean/sum/none reduction convention."""

    def __init__(self, reduction: str = "mean"):
        super().__init__()
        if reduction not in ("mean", "sum", "none"):
            raise ValueError(f"unknown reduction {reduction!r}")
        self.reduction = reduction

    def _reduce(self, value: Tensor) -> Tensor:
        if self.reduction == "mean":
            return value.mean()
        if self.reduction == "sum":
            return value.sum()
        return value


class MSELoss(_Loss):
    """Mean squared error: mean((prediction - target)^2)."""

    def forward(self, prediction: Tensor, target) -> Tensor:
        target = as_tensor(target)
        diff = prediction - target.detach()
        return self._reduce(diff * diff)


class BCEWithLogitsLoss(_Loss):
    """Numerically-stable BCE on raw logits.

    Uses the identity
    ``bce(x, y) = max(x, 0) - x*y + log(1 + exp(-|x|))``.
    """

    def forward(self, logits: Tensor, target) -> Tensor:
        from .ops import maximum

        target = as_tensor(target).detach()
        zero = Tensor(np.zeros_like(logits.data))
        loss = maximum(logits, zero) - logits * target + (1.0 + (-logits.abs()).exp()).log()
        return self._reduce(loss)
