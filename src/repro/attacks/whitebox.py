"""White-box gradient attacks: FGSM and projected gradient descent.

Both attacks maximise the squared forecast error by moving the speed
rows of the window image along the sign of ``d loss / d input``
(Goodfellow et al.'s fast gradient sign, and its iterated PGD form from
Madry et al.), then project back onto the :class:`PlausibilityBox` so
every emitted window stays physically plausible.

Steps are taken in *km/h* space.  The MinMax speed scaler is linear
with a positive slope, so the chain rule only rescales the gradient by
a positive constant — the km/h sign direction equals the scaled sign
direction, and budgets stay interpretable in physical units.
"""

from __future__ import annotations

import numpy as np

from .base import Attack, AttackResult, speed_rows_kmh, with_speed_rows
from .constraints import PlausibilityBox
from .gradients import input_gradient

__all__ = ["FGSMAttack", "PGDAttack"]


class FGSMAttack(Attack):
    """Single-step fast gradient sign attack on the speed rows."""

    name = "fgsm"

    def __init__(self, predictor, scalers, constraint: PlausibilityBox):
        super().__init__(scalers, predictor.features.num_roads, constraint)
        self.predictor = predictor

    def perturb(self, images, day_types, targets, recorder=None) -> AttackResult:
        images = np.asarray(images, dtype=np.float64)
        reference = speed_rows_kmh(images, self.scalers, self.num_roads)
        result = input_gradient(self.predictor, images, day_types, targets)
        grad_speeds = result.grad_images[:, :self.num_roads, :]
        attacked = np.sign(grad_speeds)
        attacked *= self.constraint.epsilon_kmh
        attacked += reference
        attacked = self.constraint.project(attacked, reference)
        adv_images = with_speed_rows(images, attacked, self.scalers, self.num_roads)
        self._record(recorder, 0, result.loss)
        return AttackResult(adv_images, attacked, reference, [result.loss])


class PGDAttack(Attack):
    """Iterated FGSM with projection after every step (Madry et al.).

    ``step_kmh`` defaults to ``2.5 * epsilon / steps`` so the iterate can
    traverse the budget and still refine near the boundary.  With
    ``random_start`` the iterate begins at a uniform point inside the
    box instead of the clean window, which avoids starting on the flat
    spot of a saturated activation.
    """

    name = "pgd"

    def __init__(self, predictor, scalers, constraint: PlausibilityBox, steps: int = 10,
                 step_kmh: float | None = None, random_start: bool = True,
                 seed: int = 0):
        super().__init__(scalers, predictor.features.num_roads, constraint)
        if steps < 1:
            raise ValueError("steps must be >= 1")
        self.predictor = predictor
        self.steps = steps
        self.step_kmh = step_kmh if step_kmh is not None else 2.5 * constraint.epsilon_kmh / steps
        self.random_start = random_start
        self.seed = seed

    def perturb(self, images, day_types, targets, recorder=None) -> AttackResult:
        images = np.asarray(images, dtype=np.float64)
        reference = speed_rows_kmh(images, self.scalers, self.num_roads)
        rng = np.random.default_rng(self.seed)
        if self.random_start:
            noise = rng.uniform(-self.constraint.epsilon_kmh,
                                self.constraint.epsilon_kmh, size=reference.shape)
            attacked = self.constraint.project(reference + noise, reference)
        else:
            attacked = reference.copy()
        losses: list[float] = []
        for step in range(self.steps):
            adv_images = with_speed_rows(images, attacked, self.scalers, self.num_roads)
            result = input_gradient(self.predictor, adv_images, day_types, targets)
            grad_speeds = result.grad_images[:, :self.num_roads, :]
            attacked = attacked + self.step_kmh * np.sign(grad_speeds)
            attacked = self.constraint.project(attacked, reference)
            losses.append(result.loss)
            self._record(recorder, step, result.loss)
        adv_images = with_speed_rows(images, attacked, self.scalers, self.num_roads)
        return AttackResult(adv_images, attacked, reference, losses)
