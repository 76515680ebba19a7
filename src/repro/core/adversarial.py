"""Adversarial training of APOTS (Sections III and IV).

Implements the minimax game of Eq 4:

* **Predictor step** — minimise
  ``J_P = w_mse * MSE(rolled predictions, real speeds)
        + w_adv * adversarial(D(predicted sequence | E))``
  where the predicted sequence for anchor window ``t`` is the alpha
  consecutive one-step predictions ending at the anchor's target
  (Section III-A's rollout), and the paper's footnote fixes the loss
  ratio at alpha : 1 (``w_mse`` defaults to alpha).
* **Discriminator step** — maximise
  ``J_D = log D(real | E) + log(1 - D(fake | E))``,
  trained as binary cross-entropy on logits.

The paper's objective uses the saturating generator loss
``log(1 - D(fake))``; by default we train the non-saturating variant
``-log D(fake)`` (Goodfellow et al., 2014 recommend it for gradient
signal) and expose ``saturating_adv_loss`` to flip back.

Observability: ``fit`` accepts an optional
:class:`repro.obs.RunRecorder` (falling back to the ambient recorder
installed by the experiment CLI).  With one attached it emits
``d_step`` / ``p_step`` / ``adv_epoch`` events, times the shared P
rollout and the two update kinds as ``rollout`` / ``d_step`` /
``p_step`` latency sections, and runs a
:class:`repro.obs.GanHealthMonitor` over D probabilities, the
adversarial-loss share and pre-clip gradient norms.  Without one the
instrumentation branches are skipped entirely (zero-cost default).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from .. import nn
from ..data.dataset import RolloutBatch, TrafficDataset, iterate_batches
from ..obs import GanHealthMonitor, RunRecorder, current_recorder
from .config import TrainSpec
from .discriminator import Discriminator
from .predictors import Predictor

__all__ = ["AdversarialHistory", "APOTSTrainer"]


def _mean(values: list[float]) -> float:
    """Mean of a possibly-empty list without numpy's RuntimeWarning.

    ``spec.discriminator_steps == 0`` or ``max_steps_per_epoch == 0``
    legitimately produce empty per-epoch lists; ``np.mean([])`` would
    warn and poison the history with a warning-wrapped NaN.
    """
    return float(np.mean(values)) if values else float("nan")


@dataclass
class AdversarialHistory:
    """Per-epoch adversarial training diagnostics."""

    predictor_loss: list[float] = field(default_factory=list)
    mse_loss: list[float] = field(default_factory=list)
    adversarial_loss: list[float] = field(default_factory=list)
    discriminator_loss: list[float] = field(default_factory=list)
    discriminator_real_prob: list[float] = field(default_factory=list)
    discriminator_fake_prob: list[float] = field(default_factory=list)
    predictor_grad_norm: list[float] = field(default_factory=list)
    discriminator_grad_norm: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.predictor_loss)


class APOTSTrainer:
    """Alternating P / D optimisation over rollout batches."""

    def __init__(
        self,
        predictor: Predictor,
        discriminator: Discriminator,
        spec: TrainSpec | None = None,
    ):
        self.predictor = predictor
        self.discriminator = discriminator
        self.spec = spec if spec is not None else TrainSpec()
        self.p_optimizer = nn.Adam(predictor.parameters(), lr=self.spec.learning_rate)
        self.d_optimizer = nn.Adam(discriminator.parameters(), lr=self.spec.learning_rate)
        self.bce = nn.BCEWithLogitsLoss()
        self.mse = nn.MSELoss()
        # One rollout per (batch, predictor version): the D steps and the
        # P step of a batch all see the same P parameters, so Ŝ is rolled
        # once, with its graph, and shared instead of recomputed per
        # sub-step.  Every P step drops it, so no graph outlives its batch.
        self._roll_cache: tuple | None = None
        self._p_version = 0

    def _batch_rollout(self, batch: RolloutBatch):
        """The batch's rollout over P, computed once per P version.

        The graph-carrying (B * alpha,) prediction Tensor: D steps read
        its values detached, the P step backpropagates through it.
        """
        cached = self._roll_cache
        if cached is not None and cached[0] is batch and cached[1] == self._p_version:
            return cached[2]
        roll = self.predictor.predict_arrays(
            batch.group_images, batch.group_day_types, batch.group_flat
        )
        self._roll_cache = (batch, self._p_version, roll)
        return roll

    def _rolled_sequences(self, batch: RolloutBatch, alpha: int) -> np.ndarray:
        """Values of the shared rollout as (B, alpha) sequences."""
        return self._batch_rollout(batch).data.reshape(batch.num_anchors, alpha)

    def _p_updated(self) -> None:
        """Retire the rollout after a P update: its values are stale now."""
        self._p_version += 1
        self._roll_cache = None

    def _make_augmenter(self, dataset: TrafficDataset):
        """The input-space adversarial augmenter, or None when disabled.

        Imported lazily so the default ``robust_fraction=0.0`` path
        never touches :mod:`repro.attacks` at all.
        """
        if self.spec.robust_fraction <= 0.0:
            return None
        from .adversarial_training import AdversarialAugmenter

        return AdversarialAugmenter.from_spec(
            self.predictor, dataset.features.scalers, self.spec
        )

    # ------------------------------------------------------------------
    def _sequence_view(self, sequences: np.ndarray) -> np.ndarray:
        """Slice sequences to what D inspects (last `sequence_length` steps).

        The paper feeds the full alpha-long sequence; the single-speed
        ablation (Section III-A's cautionary variant) uses length 1.
        """
        return sequences[:, -self.discriminator.sequence_length :]

    def _discriminator_step(
        self, batch: RolloutBatch, alpha: int
    ) -> tuple[float, float, float, float]:
        """One D update; returns (loss, real prob, fake prob, grad norm)."""
        fake = self._sequence_view(self._rolled_sequences(batch, alpha))  # detached
        real = self._sequence_view(batch.real_sequences(alpha))
        condition = nn.Tensor(batch.condition) if self.discriminator.conditional else None
        real_logits = self.discriminator(nn.Tensor(real), condition)
        fake_logits = self.discriminator(nn.Tensor(fake), condition)
        ones = np.ones(batch.num_anchors)
        zeros = np.zeros(batch.num_anchors)
        loss = self.bce(real_logits, ones) + self.bce(fake_logits, zeros)

        self.d_optimizer.zero_grad()
        loss.backward()
        grad_norm = self.d_optimizer.clip_grad_norm(self.spec.grad_clip)
        self.d_optimizer.step()

        with nn.no_grad():
            real_prob = float(real_logits.sigmoid().data.mean())
            fake_prob = float(fake_logits.sigmoid().data.mean())
        return loss.item(), real_prob, fake_prob, grad_norm

    def _predictor_step(
        self, batch: RolloutBatch, alpha: int
    ) -> tuple[float, float, float, float, float]:
        """One P update; returns (total, mse, adv, grad norm, fake std)."""
        predictions = self._batch_rollout(batch)
        sequences = predictions.reshape(batch.num_anchors, alpha)
        mse_loss = self.mse(predictions, batch.group_targets)

        condition = nn.Tensor(batch.condition) if self.discriminator.conditional else None
        length = self.discriminator.sequence_length
        fake_logits = self.discriminator(sequences[:, alpha - length :], condition)
        if self.spec.saturating_adv_loss:
            # log(1 - D(fake)) minimised directly, as written in Eq 1.
            adv_loss = (1.0 - fake_logits.sigmoid().clip(1e-7, 1.0 - 1e-7)).log().mean()
        else:
            # Non-saturating: minimise -log D(fake) == BCE against ones.
            adv_loss = self.bce(fake_logits, np.ones(batch.num_anchors))

        w_mse = self.spec.mse_weight if self.spec.mse_weight is not None else float(alpha)
        total = mse_loss * w_mse + adv_loss * self.spec.adv_weight

        self.p_optimizer.zero_grad()
        # Only P's parameters are updated, but D's grads must not leak
        # into its optimiser state: clear them after backward.
        total.backward()
        grad_norm = self.p_optimizer.clip_grad_norm(self.spec.grad_clip)
        self.p_optimizer.step()
        self.discriminator.zero_grad()
        self._p_updated()
        # Spread of the generated sequences: the mode-collapse signal.
        fake_std = float(sequences.data.std())
        return total.item(), mse_loss.item(), adv_loss.item(), grad_norm, fake_std

    # ------------------------------------------------------------------
    @nn.reuse_arrays()  # the kernels reuse their large arrays across steps
    def fit(
        self,
        dataset: TrafficDataset,
        verbose: bool = False,
        recorder: RunRecorder | None = None,
    ) -> AdversarialHistory:
        """Run the alternating game for ``spec.epochs`` epochs.

        ``recorder`` defaults to the ambient :func:`repro.obs.use_recorder`
        recorder; pass one explicitly to capture a standalone run.
        """
        alpha = dataset.config.alpha
        anchors = dataset.rollout_anchors("train")
        if len(anchors) == 0:
            raise RuntimeError(
                "no adversarial anchors available; the train split has no "
                f"run of {alpha} consecutive windows"
            )
        rec = recorder if recorder is not None else current_recorder()
        monitor = GanHealthMonitor(rec) if rec is not None else None
        if rec is not None:
            rec.annotate(trainer="APOTSTrainer", train_spec=asdict(self.spec), seed=self.spec.seed)
        section = rec.section if rec is not None else (lambda name: nullcontext())
        rng = np.random.default_rng(self.spec.seed)
        history = AdversarialHistory()
        augmenter = self._make_augmenter(dataset)

        global_step = 0
        for epoch in range(self.spec.epochs):
            p_losses, mse_losses, adv_losses, d_losses = [], [], [], []
            real_probs, fake_probs = [], []
            p_norms, d_norms = [], []
            batches = iterate_batches(anchors, self.spec.adversarial_batch_size, rng=rng)
            for step, anchor_indices in enumerate(batches):
                if self.spec.max_steps_per_epoch is not None and step >= self.spec.max_steps_per_epoch:
                    break
                batch = dataset.rollout_batch(anchor_indices)
                if augmenter is not None:
                    # Both D and P then see the same mixed batch: D judges
                    # sequences predicted from attacked inputs as "fake",
                    # exactly the samples P must learn to make realistic.
                    with section("adv_augment"):
                        batch, aug = augmenter.augment_rollout(
                            batch, alpha, epoch=epoch, step=global_step
                        )
                    if aug.num_perturbed > 0:
                        if monitor is not None:
                            monitor.observe_robust(
                                global_step,
                                clean_loss=aug.clean_loss,
                                robust_loss=aug.robust_loss,
                            )
                        if rec is not None:
                            rec.event(
                                "adv_train_step",
                                epoch=epoch,
                                step=step,
                                epsilon=aug.epsilon_kmh,
                                num_perturbed=aug.num_perturbed,
                                num_samples=aug.num_samples,
                                clean_loss=aug.clean_loss,
                                robust_loss=aug.robust_loss,
                                max_abs_delta_kmh=aug.max_abs_delta_kmh,
                            )
                # Roll P once, with its graph: the D steps read its values,
                # the P step backpropagates through it.
                with section("rollout"):
                    self._batch_rollout(batch)
                for _ in range(self.spec.discriminator_steps):
                    with section("d_step"):
                        d_loss, real_prob, fake_prob, d_norm = self._discriminator_step(
                            batch, alpha
                        )
                    d_losses.append(d_loss)
                    real_probs.append(real_prob)
                    fake_probs.append(fake_prob)
                    d_norms.append(d_norm)
                    if monitor is not None:
                        monitor.observe_discriminator(
                            global_step,
                            loss=d_loss,
                            real_prob=real_prob,
                            fake_prob=fake_prob,
                            grad_norm=d_norm,
                        )
                    if rec is not None:
                        rec.event(
                            "d_step",
                            epoch=epoch,
                            step=step,
                            loss=d_loss,
                            real_prob=real_prob,
                            fake_prob=fake_prob,
                            grad_norm=d_norm,
                        )
                with section("p_step"):
                    p_loss, mse_loss, adv_loss, p_norm, fake_std = self._predictor_step(
                        batch, alpha
                    )
                p_losses.append(p_loss)
                mse_losses.append(mse_loss)
                adv_losses.append(adv_loss)
                p_norms.append(p_norm)
                if monitor is not None or rec is not None:
                    adv_share = abs(adv_loss * self.spec.adv_weight) / (abs(p_loss) + 1e-12)
                    if monitor is not None:
                        monitor.observe_predictor(
                            global_step,
                            loss=p_loss,
                            mse=mse_loss,
                            adv=adv_loss,
                            adv_share=adv_share,
                            grad_norm=p_norm,
                            fake_std=fake_std,
                        )
                    if rec is not None:
                        rec.event(
                            "p_step",
                            epoch=epoch,
                            step=step,
                            loss=p_loss,
                            mse_loss=mse_loss,
                            adv_loss=adv_loss,
                            adv_share=adv_share,
                            grad_norm=p_norm,
                            fake_std=fake_std,
                        )
                global_step += 1

            history.predictor_loss.append(_mean(p_losses))
            history.mse_loss.append(_mean(mse_losses))
            history.adversarial_loss.append(_mean(adv_losses))
            history.discriminator_loss.append(_mean(d_losses))
            history.discriminator_real_prob.append(_mean(real_probs))
            history.discriminator_fake_prob.append(_mean(fake_probs))
            history.predictor_grad_norm.append(_mean(p_norms))
            history.discriminator_grad_norm.append(_mean(d_norms))
            if rec is not None:
                rec.event(
                    "adv_epoch",
                    epoch=epoch,
                    predictor_loss=history.predictor_loss[-1],
                    mse_loss=history.mse_loss[-1],
                    adversarial_loss=history.adversarial_loss[-1],
                    discriminator_loss=history.discriminator_loss[-1],
                    discriminator_real_prob=history.discriminator_real_prob[-1],
                    discriminator_fake_prob=history.discriminator_fake_prob[-1],
                    predictor_grad_norm=history.predictor_grad_norm[-1],
                    discriminator_grad_norm=history.discriminator_grad_norm[-1],
                )
            if verbose:
                print(
                    f"epoch {epoch + 1}/{self.spec.epochs}: "
                    f"P {history.predictor_loss[-1]:.4f} "
                    f"(mse {history.mse_loss[-1]:.5f}, adv {history.adversarial_loss[-1]:.4f}) "
                    f"D {history.discriminator_loss[-1]:.4f} "
                    f"real {history.discriminator_real_prob[-1]:.2f} "
                    f"fake {history.discriminator_fake_prob[-1]:.2f}"
                )
        return history
