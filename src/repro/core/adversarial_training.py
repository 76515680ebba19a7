"""Input-space adversarial training: on-the-fly FGSM/PGD batch augmentation.

APOTS is adversarial only in *output* space — the discriminator judges
predicted sequences — so the trained predictor is soft against
*input*-space perturbations (the ``repro.attacks`` sweeps quantify it).
Liu & Liu (arXiv:2210.02447) show adversarial training is the standard
remedy for spatiotemporal forecasters: mix attacked windows into every
minibatch so the predictor learns to forecast through them.

:class:`AdversarialAugmenter` implements that loop-closing step for
both trainers.  Per batch it

1. deterministically selects ``robust_fraction`` of the samples (for
   rollout batches: of the *anchors*, so each selected anchor's whole
   alpha-window history is perturbed coherently),
2. attacks the selected windows with FGSM or a short PGD, projected
   onto the same :class:`~repro.attacks.constraints.PlausibilityBox`
   the evaluation sweeps use — perturbed windows stay physically
   plausible km/h traffic, and
3. splices the adversarial windows back into the batch (rebuilding the
   flat feature rows exactly as ``repro.data`` derives them), so the
   optimiser sees a mixed clean+perturbed batch of unchanged size.

Determinism contract: every augmenter decision (sample selection, PGD
random start) is driven by a seed derived via
:func:`repro.parallel.seeding.derive_task_seed` from ``(seed,
global_step)`` only.  Augmentation always runs in the *parent* process
— :class:`repro.core.DataParallelTrainer` shards the already-augmented
batch — so the perturbed inputs are bitwise-identical under any worker
count, preserving the ``(root_seed, task_index)`` seeding contract.

Layering: this is the one ``repro.core`` module allowed to import from
``repro.attacks`` (leaf modules only — see the carve-out in
``tools/check_imports.py``); ``repro.attacks`` in turn never imports
``repro.core``, so the dependency stays acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attacks.base import flatten_windows
from ..attacks.constraints import PlausibilityBox
from ..attacks.whitebox import FGSMAttack, PGDAttack
from ..data.dataset import Batch, RolloutBatch
from ..parallel.seeding import derive_task_seed
from .config import EPSILON_SCHEDULES, TRAIN_ATTACKS

__all__ = ["AugmentInfo", "AdversarialAugmenter"]


@dataclass(frozen=True)
class AugmentInfo:
    """Diagnostics of one mixed-batch augmentation.

    ``clean_loss`` / ``robust_loss`` are the mean squared scaled errors
    of the predictor on the *selected* windows before and after the
    perturbation — the robust-vs-clean divergence signal the
    GAN-health monitor watches.  Both are NaN when nothing was
    perturbed (``num_perturbed == 0``).
    """

    epsilon_kmh: float
    num_perturbed: int
    num_samples: int
    clean_loss: float
    robust_loss: float
    max_abs_delta_kmh: float


class AdversarialAugmenter:
    """Generate on-the-fly adversarial minibatch perturbations.

    Parameters
    ----------
    predictor:
        The model under training (gradients are taken through it; its
        weights are never updated here).
    scalers:
        The dataset's fitted feature scalers — the attack surface is
        km/h, the batch arrays are scaled.
    robust_fraction:
        Fraction of each batch (anchors, for rollout batches) replaced
        by adversarial counterparts; at least one sample is perturbed
        whenever the fraction is positive.
    epsilon_kmh:
        Full L-infinity budget of the training-time attacker.
    total_epochs:
        Length of the training run, anchoring ``epsilon_schedule``.
    epsilon_schedule:
        ``"constant"`` uses ``epsilon_kmh`` from epoch 0; ``"linear"``
        ramps linearly from ``epsilon_kmh / total_epochs`` at epoch 0
        to the full budget at the final epoch (curriculum warm-up).
    attack:
        ``"fgsm"`` (one gradient step per batch, the cheap default) or
        ``"pgd"`` with ``pgd_steps`` iterations.
    max_step_kmh:
        The plausibility box's per-tick rate bound (None disables it).
    seed:
        Root of the per-batch seed derivation.
    """

    def __init__(
        self,
        predictor,
        scalers,
        *,
        robust_fraction: float,
        epsilon_kmh: float,
        total_epochs: int,
        epsilon_schedule: str = "constant",
        attack: str = "fgsm",
        pgd_steps: int = 3,
        max_step_kmh: float | None = 10.0,
        seed: int = 0,
    ):
        if scalers is None:
            raise ValueError(
                "adversarial training needs the dataset's fitted scalers to "
                "map the km/h attack surface onto scaled window images"
            )
        if not 0.0 < robust_fraction <= 1.0:
            raise ValueError(f"robust_fraction must be in (0, 1], got {robust_fraction}")
        if epsilon_kmh <= 0:
            raise ValueError(f"epsilon_kmh must be positive, got {epsilon_kmh}")
        if total_epochs < 1:
            raise ValueError(f"total_epochs must be >= 1, got {total_epochs}")
        if epsilon_schedule not in EPSILON_SCHEDULES:
            raise ValueError(
                f"unknown epsilon_schedule {epsilon_schedule!r}; have {EPSILON_SCHEDULES}"
            )
        if attack not in TRAIN_ATTACKS:
            raise ValueError(f"unknown training attack {attack!r}; have {TRAIN_ATTACKS}")
        if pgd_steps < 1:
            raise ValueError(f"pgd_steps must be >= 1, got {pgd_steps}")
        self.predictor = predictor
        self.scalers = scalers
        self.robust_fraction = float(robust_fraction)
        self.epsilon_kmh = float(epsilon_kmh)
        self.total_epochs = int(total_epochs)
        self.epsilon_schedule = epsilon_schedule
        self.attack = attack
        self.pgd_steps = int(pgd_steps)
        self.max_step_kmh = max_step_kmh
        self.seed = int(seed)

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, predictor, scalers, spec) -> "AdversarialAugmenter":
        """Build from a :class:`repro.core.config.TrainSpec`."""
        return cls(
            predictor,
            scalers,
            robust_fraction=spec.robust_fraction,
            epsilon_kmh=spec.adv_epsilon_kmh,
            total_epochs=spec.epochs,
            epsilon_schedule=spec.epsilon_schedule,
            attack=spec.adv_attack,
            pgd_steps=spec.adv_pgd_steps,
            max_step_kmh=spec.adv_max_step_kmh,
            seed=spec.seed,
        )

    # ------------------------------------------------------------------
    def epsilon_at(self, epoch: int) -> float:
        """The scheduled L-infinity budget for ``epoch`` (0-based)."""
        if self.epsilon_schedule == "constant":
            return self.epsilon_kmh
        return self.epsilon_kmh * min(1.0, (epoch + 1) / self.total_epochs)

    def _selection(self, num_units: int, rng: np.random.Generator) -> np.ndarray:
        """Sorted indices of the units to perturb (>= 1 when any exist)."""
        if num_units == 0:
            return np.array([], dtype=np.int64)
        count = max(1, int(round(self.robust_fraction * num_units)))
        return np.sort(rng.permutation(num_units)[:count])

    def _build_attack(self, constraint: PlausibilityBox, attack_seed: int):
        if self.attack == "fgsm":
            return FGSMAttack(self.predictor, self.scalers, constraint)
        return PGDAttack(
            self.predictor, self.scalers, constraint, steps=self.pgd_steps, seed=attack_seed
        )

    def _mse(self, images: np.ndarray, day_types: np.ndarray, targets: np.ndarray) -> float:
        """Grad-free mean squared scaled error on a sub-batch."""
        flat = flatten_windows(images, day_types)
        prediction = self.predictor.predict(images, day_types, flat)
        return float(np.mean((prediction - targets) ** 2))

    def _perturb_rows(
        self,
        images: np.ndarray,
        day_types: np.ndarray,
        targets: np.ndarray,
        rows: np.ndarray,
        epsilon: float,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, AugmentInfo]:
        """Attack ``rows`` of a row-aligned window batch.

        Returns ``(adv_images, adv_flat, info)``; rows not selected are
        bitwise-untouched copies of the input.
        """
        num_samples = int(images.shape[0])
        if rows.size == 0 or epsilon <= 0:
            return (
                images,
                flatten_windows(images, day_types),
                AugmentInfo(epsilon, 0, num_samples, float("nan"), float("nan"), 0.0),
            )
        sub_images = images[rows]
        sub_day_types = day_types[rows]
        sub_targets = targets[rows]
        constraint = PlausibilityBox(epsilon_kmh=epsilon, max_step_kmh=self.max_step_kmh)
        attack = self._build_attack(constraint, int(rng.integers(0, 2**63 - 1)))
        result = attack.perturb(sub_images, sub_day_types, sub_targets)
        if self.attack == "fgsm":
            # FGSM's recorded loss is the *clean* summed squared error on
            # exactly this sub-batch (one gradient call, taken before the
            # step), so the clean forward need not run twice: np.mean is
            # the same pairwise sum followed by one division by the count.
            clean_loss = result.losses[0] / sub_targets.size
        else:
            # PGD's first loss sits at the random start, not the clean
            # window; keep the explicit clean forward.
            clean_loss = self._mse(sub_images, sub_day_types, sub_targets)
        robust_loss = self._mse(result.images, sub_day_types, sub_targets)
        adv_images = np.array(images, dtype=np.float64, copy=True)
        adv_images[rows] = result.images
        adv_flat = flatten_windows(adv_images, day_types)
        info = AugmentInfo(
            epsilon_kmh=epsilon,
            num_perturbed=int(rows.size),
            num_samples=num_samples,
            clean_loss=clean_loss,
            robust_loss=robust_loss,
            max_abs_delta_kmh=result.max_abs_delta_kmh,
        )
        return adv_images, adv_flat, info

    # ------------------------------------------------------------------
    def augment_batch(self, batch: Batch, *, epoch: int, step: int) -> tuple[Batch, AugmentInfo]:
        """Mixed clean+perturbed version of a supervised minibatch.

        ``step`` is the trainer's global batch counter; together with
        the augmenter's root seed it fully determines the perturbation.
        """
        rng = np.random.default_rng(derive_task_seed(self.seed, step))
        rows = self._selection(len(batch), rng)
        epsilon = self.epsilon_at(epoch)
        images, flat, info = self._perturb_rows(
            batch.images, batch.day_types, batch.targets, rows, epsilon, rng
        )
        if info.num_perturbed == 0:
            return batch, info
        return (
            Batch(
                images=images,
                day_types=batch.day_types,
                flat=flat,
                targets=batch.targets,
                indices=batch.indices,
            ),
            info,
        )

    def augment_rollout(
        self, batch: RolloutBatch, alpha: int, *, epoch: int, step: int
    ) -> tuple[RolloutBatch, AugmentInfo]:
        """Mixed clean+perturbed version of an adversarial rollout batch.

        Selection operates on *anchors*: every window of a selected
        anchor's alpha-long history is perturbed, so the predicted
        sequence the discriminator judges comes from a coherently
        attacked feed rather than a mix of clean and attacked windows.
        """
        rng = np.random.default_rng(derive_task_seed(self.seed, step))
        anchors = self._selection(batch.num_anchors, rng)
        rows = (anchors[:, None] * alpha + np.arange(alpha)[None, :]).reshape(-1)
        epsilon = self.epsilon_at(epoch)
        images, flat, info = self._perturb_rows(
            batch.group_images, batch.group_day_types, batch.group_targets, rows, epsilon, rng
        )
        if info.num_perturbed == 0:
            return batch, info
        return (
            RolloutBatch(
                group_images=images,
                group_day_types=batch.group_day_types,
                group_flat=flat,
                group_targets=batch.group_targets,
                condition=batch.condition,
                anchor_targets=batch.anchor_targets,
                anchors=batch.anchors,
            ),
            info,
        )
