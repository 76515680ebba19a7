"""Shared attack interface and the km/h <-> scaled-window codec.

Attacks perturb the *adjacent-speed rows* of the window image — the
readings a compromised roadside feed actually controls — in km/h, and
leave the non-speed channels (event, weather, hour, day-type) alone.
The codec here maps between that physical attack surface and the
scaled image/flat arrays the predictors consume, using the model's own
train-fitted scalers so the perturbed windows are bit-compatible with
what serving ingestion would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import PlausibilityBox

__all__ = [
    "AttackResult",
    "Attack",
    "speed_rows_kmh",
    "with_speed_rows",
    "flatten_windows",
]


def speed_rows_kmh(images: np.ndarray, scalers, num_roads: int) -> np.ndarray:
    """The (B, 2m+1, alpha) adjacent-speed rows of scaled images, in km/h."""
    return scalers.speed.inverse_transform(images[:, :num_roads, :])


def with_speed_rows(images: np.ndarray, speeds_kmh: np.ndarray, scalers, num_roads: int) -> np.ndarray:
    """Copy of ``images`` with the speed rows replaced by ``speeds_kmh``."""
    out = np.array(images, dtype=np.float64, copy=True)
    out[:, :num_roads, :] = scalers.speed.transform(speeds_kmh)
    return out


def flatten_windows(images: np.ndarray, day_types: np.ndarray) -> np.ndarray:
    """The (B, flat_dim) vector the F predictor reads, from image + bits."""
    return np.concatenate([images.reshape(images.shape[0], -1), day_types], axis=1)


@dataclass
class AttackResult:
    """One attacked batch.

    ``images`` are the adversarial scaled window images (non-speed rows
    untouched), ``speeds_kmh`` the perturbed speed rows in km/h, and
    ``losses`` the attack objective observed at each optimisation step
    (length 1 for single-step attacks).
    """

    images: np.ndarray
    speeds_kmh: np.ndarray
    reference_kmh: np.ndarray
    losses: list[float] = field(default_factory=list)

    @property
    def max_abs_delta_kmh(self) -> float:
        """Largest absolute perturbation actually emitted (stealth check)."""
        return float(np.max(np.abs(self.speeds_kmh - self.reference_kmh)))


class Attack:
    """Common interface: perturb scaled window batches within a box.

    Subclasses set :attr:`name` (the id used by the harness, CLI and
    run-log events) and implement :meth:`perturb`.
    """

    name: str = "?"

    def __init__(self, scalers, num_roads: int, constraint: PlausibilityBox):
        if scalers is None:
            raise ValueError(
                "attack needs the model's fitted feature scalers to map the "
                "km/h attack surface onto scaled inputs; fit() the model or "
                "load a fitted model's checkpoint"
            )
        self.scalers = scalers
        self.num_roads = num_roads
        self.constraint = constraint

    def perturb(self, images: np.ndarray, day_types: np.ndarray,
                targets: np.ndarray, recorder=None) -> AttackResult:
        """Return adversarial windows for a batch of scaled inputs.

        ``targets`` are scaled true speeds (the attack maximises squared
        error against them).  ``recorder`` is an optional
        :class:`repro.obs.RunRecorder`; attacks emit one ``attack_step``
        event per optimisation step when given one.
        """
        raise NotImplementedError

    def _record(self, recorder, step: int, loss: float) -> None:
        if recorder is not None:
            recorder.event(
                "attack_step",
                attack=self.name,
                epsilon=self.constraint.epsilon_kmh,
                step=step,
                loss=loss,
            )
