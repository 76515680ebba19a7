"""Plain supervised training (the paper's "w/o Adv." column).

Minimises the per-speed MSE of Eq 1's first term only.  Tracks train and
validation loss per epoch; the experiment harness uses validation MAPE
for early-stopping-style model selection when requested.

Observability mirrors :class:`repro.core.adversarial.APOTSTrainer`:
``fit`` accepts an optional :class:`repro.obs.RunRecorder` (falling
back to the ambient one), emits ``step`` / ``epoch`` / ``early_stop``
events with losses and pre-clip gradient norms, and runs a
:class:`repro.obs.TrainingMonitor` that flags NaN/Inf losses and
gradient norms.  Without a recorder the extra branches are skipped.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from .. import nn
from ..data.dataset import TrafficDataset, iterate_batches
from ..obs import RunRecorder, TrainingMonitor, current_recorder
from .config import TrainSpec
from .predictors import Predictor

__all__ = ["TrainHistory", "SupervisedTrainer"]


@dataclass
class TrainHistory:
    """Per-epoch losses collected during a fit."""

    train_loss: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


class SupervisedTrainer:
    """Adam + MSE trainer for any :class:`Predictor`.

    With ``spec.robust_fraction > 0`` each minibatch is adversarially
    augmented in place before the optimiser step (see
    :mod:`repro.core.adversarial_training`); the default 0.0 keeps
    training bitwise-identical to the augmenter-free behaviour.
    """

    def __init__(self, predictor: Predictor, spec: TrainSpec | None = None):
        self.predictor = predictor
        self.spec = spec if spec is not None else TrainSpec()
        self.optimizer = nn.Adam(predictor.parameters(), lr=self.spec.learning_rate)
        self.loss_fn = nn.MSELoss()

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

    def _train_step(self, batch) -> tuple[float, float]:
        """One optimiser update over ``batch``; returns (loss, grad norm).

        The single override point for trainers that change *where* the
        gradient is computed (see :class:`repro.core.DataParallelTrainer`)
        without touching the epoch loop, early stopping or telemetry.
        """
        prediction = self.predictor.predict_arrays(batch.images, batch.day_types, batch.flat)
        loss = self.loss_fn(prediction, batch.targets)
        self.optimizer.zero_grad()
        loss.backward()
        grad_norm = self.optimizer.clip_grad_norm(self.spec.grad_clip)
        self.optimizer.step()
        return loss.item(), grad_norm

    def _epoch_batches(self, dataset: TrafficDataset, rng: np.random.Generator):
        batches = iterate_batches(
            dataset.subset("train"), self.spec.batch_size, rng=rng, shuffle=True
        )
        limit = self.spec.max_steps_per_epoch
        for step, indices in enumerate(batches):
            if limit is not None and step >= limit:
                return
            yield dataset.batch(indices)

    @nn.reuse_arrays()  # the kernels reuse their large arrays across steps
    def fit(
        self,
        dataset: TrafficDataset,
        verbose: bool = False,
        recorder: RunRecorder | None = None,
    ) -> TrainHistory:
        """Train for up to ``spec.epochs`` epochs; returns the loss history.

        With ``spec.early_stopping_patience`` set, training stops after
        that many epochs without a validation improvement and the best
        weights (by validation loss) are restored.  ``recorder``
        defaults to the ambient :func:`repro.obs.use_recorder` recorder.
        """
        rng = np.random.default_rng(self.spec.seed)
        history = TrainHistory()
        rec = recorder if recorder is not None else current_recorder()
        monitor = TrainingMonitor(rec) if rec is not None else None
        if rec is not None:
            rec.annotate(
                trainer=type(self).__name__, train_spec=asdict(self.spec), seed=self.spec.seed
            )
        section = rec.section if rec is not None else (lambda name: nullcontext())
        patience = self.spec.early_stopping_patience
        best_val = float("inf")
        best_state = None
        stale_epochs = 0
        augmenter = self._make_augmenter(dataset)
        global_step = 0
        for epoch in range(self.spec.epochs):
            losses = []
            grad_norms = []
            for step, batch in enumerate(self._epoch_batches(dataset, rng)):
                if augmenter is not None:
                    # Augmentation runs here in the parent — before any
                    # sharding a subclass does — so the perturbed batch
                    # is identical under every worker count.
                    with section("adv_augment"):
                        batch, aug = augmenter.augment_batch(
                            batch, epoch=epoch, step=global_step
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
                with section("train_step"):
                    loss_value, grad_norm = self._train_step(batch)
                losses.append(loss_value)
                grad_norms.append(grad_norm)
                if monitor is not None:
                    monitor.check_finite(global_step, train_loss=loss_value, grad_norm=grad_norm)
                if rec is not None:
                    rec.event(
                        "step", epoch=epoch, step=step, loss=loss_value, grad_norm=grad_norm
                    )
                global_step += 1
            history.train_loss.append(float(np.mean(losses)) if losses else float("nan"))
            history.grad_norm.append(float(np.mean(grad_norms)) if grad_norms else float("nan"))
            val_loss = self.validation_loss(dataset)
            history.validation_loss.append(val_loss)
            if rec is not None:
                rec.event(
                    "epoch",
                    epoch=epoch,
                    train_loss=history.train_loss[-1],
                    validation_loss=val_loss,
                    grad_norm=history.grad_norm[-1],
                )
            if verbose:
                print(
                    f"epoch {epoch + 1}/{self.spec.epochs}: "
                    f"train {history.train_loss[-1]:.5f} val {val_loss:.5f}"
                )
            if patience is not None and np.isfinite(val_loss):
                if val_loss < best_val - 1e-12:
                    best_val = val_loss
                    best_state = self.predictor.state_dict()
                    stale_epochs = 0
                else:
                    stale_epochs += 1
                    if stale_epochs >= patience:
                        if verbose:
                            print(f"early stop after epoch {epoch + 1} (patience {patience})")
                        if rec is not None:
                            rec.event("early_stop", epoch=epoch, patience=patience)
                        break
        if best_state is not None:
            self.predictor.load_state_dict(best_state)
        return history

    def validation_loss(self, dataset: TrafficDataset) -> float:
        """Mean squared error on the validation subset."""
        indices = dataset.subset("validation")
        if len(indices) == 0:
            return float("nan")
        batch = dataset.batch(indices)
        prediction = self.predictor.predict(batch.images, batch.day_types, batch.flat)
        return float(np.mean((prediction - batch.targets) ** 2))
