"""Hyper-parameters of APOTS (paper Table I) and scale presets.

Table I of the paper:

===============  =====================  ==============================
Predictor        Hidden layers          Hidden nodes / filter sizes
===============  =====================  ==============================
F (FC)           4                      512, 128, 256, 64
L (LSTM)         2                      512, 512
C (CNN)          3                      128, 32, 64; filters 3x3, 1x1, 3x3
H (Hybrid: L+C)  CNN (3) + LSTM (2)     CNN (128, 32, 64) + LSTM (512, 512)
===============  =====================  ==============================

Learning rate 0.001 for every model.  The discriminator is five
fully-connected layers (Section V-A).

Training a 20-cell grid of GANs at paper widths is too slow for CI on a
numpy substrate, so :class:`ScalePreset` scales widths / epochs / data
volume; ``paper`` is the faithful setting, ``smoke`` is for tests and
benchmarks, ``medium`` is the compromise used to produce EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "PredictorKind",
    "ModelSpec",
    "TrainSpec",
    "ScalePreset",
    "PRESETS",
    "EPSILON_SCHEDULES",
    "TRAIN_ATTACKS",
    "table1_spec",
]

#: Valid predictor identifiers, named as in the paper.
PredictorKind = str  # "F" | "L" | "C" | "H"

_VALID_KINDS = ("F", "L", "C", "H")


def _scaled(widths: list[int], factor: float, minimum: int = 8) -> list[int]:
    """Scale layer widths down by ``factor`` with a floor."""
    return [max(minimum, int(round(w * factor))) for w in widths]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of one predictor plus the shared discriminator."""

    kind: PredictorKind
    fc_widths: list[int] = field(default_factory=lambda: [512, 128, 256, 64])
    lstm_widths: list[int] = field(default_factory=lambda: [512, 512])
    cnn_channels: list[int] = field(default_factory=lambda: [128, 32, 64])
    cnn_kernels: list[tuple[int, int]] = field(default_factory=lambda: [(3, 3), (1, 1), (3, 3)])
    discriminator_widths: list[int] = field(default_factory=lambda: [256, 128, 64, 32])

    def __post_init__(self):
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown predictor kind {self.kind!r}; expected one of {_VALID_KINDS}")
        if len(self.cnn_channels) != len(self.cnn_kernels):
            raise ValueError("cnn_channels and cnn_kernels must have the same length")

    def scaled(self, width_factor: float) -> "ModelSpec":
        """Return a copy with every width multiplied by ``width_factor``."""
        if width_factor == 1.0:
            return self
        return replace(
            self,
            fc_widths=_scaled(self.fc_widths, width_factor),
            lstm_widths=_scaled(self.lstm_widths, width_factor),
            cnn_channels=_scaled(self.cnn_channels, width_factor, minimum=4),
            discriminator_widths=_scaled(self.discriminator_widths, width_factor),
        )


#: Valid ``TrainSpec.epsilon_schedule`` values for adversarial training.
EPSILON_SCHEDULES = ("constant", "linear")

#: Attacks usable at *training* time (evaluation sweeps support more).
TRAIN_ATTACKS = ("fgsm", "pgd")


@dataclass(frozen=True)
class TrainSpec:
    """Optimisation settings (paper: Adam, lr = 0.001).

    The ``robust_*`` / ``adv_epsilon_*`` fields configure input-space
    adversarial training (see :mod:`repro.core.adversarial_training`);
    the default ``robust_fraction=0.0`` disables it entirely and keeps
    training bitwise-identical to the pre-augmenter behaviour.
    """

    learning_rate: float = 0.001
    epochs: int = 20
    batch_size: int = 128
    adversarial_batch_size: int = 32
    discriminator_steps: int = 1
    mse_weight: float | None = None  # None -> alpha (the paper's alpha:1 rule)
    adv_weight: float = 1.0
    grad_clip: float = 5.0
    saturating_adv_loss: bool = False  # paper writes log(1-D); non-saturating trains better
    max_steps_per_epoch: int | None = None  # subsample batches for speed
    early_stopping_patience: int | None = None  # epochs without val improvement
    robust_fraction: float = 0.0  # fraction of each batch perturbed adversarially
    adv_epsilon_kmh: float = 5.0  # training-time L-inf budget (km/h)
    epsilon_schedule: str = "constant"  # "constant" | "linear" warm-up
    adv_attack: str = "fgsm"  # "fgsm" | "pgd"
    adv_pgd_steps: int = 3
    adv_max_step_kmh: float | None = 10.0  # plausibility per-tick rate bound
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs <= 0 or self.batch_size <= 0 or self.adversarial_batch_size <= 0:
            raise ValueError("epochs and batch sizes must be positive")
        if not 0.0 <= self.robust_fraction <= 1.0:
            raise ValueError(f"robust_fraction must be in [0, 1], got {self.robust_fraction}")
        if self.adv_epsilon_kmh <= 0:
            raise ValueError(f"adv_epsilon_kmh must be positive, got {self.adv_epsilon_kmh}")
        if self.epsilon_schedule not in EPSILON_SCHEDULES:
            raise ValueError(
                f"unknown epsilon_schedule {self.epsilon_schedule!r}; have {EPSILON_SCHEDULES}"
            )
        if self.adv_attack not in TRAIN_ATTACKS:
            raise ValueError(f"unknown adv_attack {self.adv_attack!r}; have {TRAIN_ATTACKS}")
        if self.adv_pgd_steps < 1:
            raise ValueError(f"adv_pgd_steps must be >= 1, got {self.adv_pgd_steps}")
        if self.adv_max_step_kmh is not None and self.adv_max_step_kmh <= 0:
            raise ValueError(
                f"adv_max_step_kmh must be positive or None, got {self.adv_max_step_kmh}"
            )


@dataclass(frozen=True)
class ScalePreset:
    """One experiment scale: data volume, widths and epochs."""

    name: str
    num_days: int
    width_factor: float
    epochs: int
    adversarial_epochs: int
    batch_size: int = 128
    adversarial_batch_size: int = 32
    max_steps_per_epoch: int | None = None

    def train_spec(self, adversarial: bool = False, seed: int = 0) -> TrainSpec:
        """Build the TrainSpec this preset implies."""
        return TrainSpec(
            epochs=self.adversarial_epochs if adversarial else self.epochs,
            batch_size=self.batch_size,
            adversarial_batch_size=self.adversarial_batch_size,
            max_steps_per_epoch=self.max_steps_per_epoch,
            seed=seed,
        )


PRESETS: dict[str, ScalePreset] = {
    "smoke": ScalePreset(
        name="smoke",
        num_days=10,
        width_factor=0.0625,  # 512 -> 32
        epochs=3,
        adversarial_epochs=2,
        batch_size=128,
        adversarial_batch_size=16,
        max_steps_per_epoch=12,
    ),
    "medium": ScalePreset(
        name="medium",
        num_days=60,
        width_factor=0.0625,  # 512 -> 32; single-core numpy is BLAS-bound
        epochs=16,
        adversarial_epochs=10,
        batch_size=256,
        adversarial_batch_size=32,
        max_steps_per_epoch=60,
    ),
    "paper": ScalePreset(
        name="paper",
        num_days=122,
        width_factor=1.0,
        epochs=30,
        adversarial_epochs=20,
        batch_size=128,
        adversarial_batch_size=32,
    ),
}


def table1_spec(kind: PredictorKind, width_factor: float = 1.0) -> ModelSpec:
    """The paper's Table I architecture for ``kind``, optionally scaled."""
    return ModelSpec(kind=kind).scaled(width_factor)
