"""The APOTS facade — the library's main entry point.

Wires together a predictor (F / L / C / H), the optional adversarial
game, and the feature configuration, behind a fit / predict / evaluate
API:

>>> from repro import APOTS
>>> from repro.data import TrafficDataset
>>> from repro.traffic import simulate, SimulationConfig
>>> series = simulate(SimulationConfig(num_days=10))
>>> dataset = TrafficDataset(series)
>>> model = APOTS(predictor="H", preset="smoke", seed=0)
>>> model.fit(dataset)                                    # doctest: +SKIP
>>> report = model.evaluate(dataset, subset="test")       # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.dataset import TrafficDataset
from ..data.features import FeatureConfig, FeatureScalers
from ..data.profile import ReferenceProfile
from ..metrics.errors import all_errors
from ..metrics.regimes import RegimeMasks, classify_regimes
from ..obs import RunRecorder
from .adversarial import AdversarialHistory, APOTSTrainer
from .config import PRESETS, ModelSpec, ScalePreset, TrainSpec, table1_spec
from .discriminator import Discriminator
from .predictors import Predictor, build_predictor
from .trainer import SupervisedTrainer, TrainHistory

__all__ = ["EvaluationReport", "APOTS"]


@dataclass
class EvaluationReport:
    """Errors per regime plus the raw arrays behind them."""

    overall: dict[str, float]
    by_regime: dict[str, dict[str, float]]
    regime_counts: dict[str, int]
    predictions_kmh: np.ndarray
    targets_kmh: np.ndarray

    @property
    def mape(self) -> float:
        return self.overall["mape"]

    @property
    def mae(self) -> float:
        return self.overall["mae"]

    @property
    def rmse(self) -> float:
        return self.overall["rmse"]

    def regime_mape(self, regime: str) -> float:
        """MAPE of one regime ('whole', 'normal', 'abrupt_acc', 'abrupt_dec')."""
        return self.by_regime[regime]["mape"]


class APOTS:
    """Adversarial Prediction Of Traffic Speed.

    Parameters
    ----------
    predictor:
        One of "F", "L", "C", "H" (Table I names).
    features:
        Window geometry; must match the dataset it is fitted on.
    adversarial:
        Whether to run the Eq 4 minimax game (the "w/ Adv." columns).
    conditional:
        Whether D is conditioned on the additional data E (Eq 4 vs the
        unconditional Eq 1/2 game).  Ignored when ``adversarial=False``.
    preset:
        Name of a :data:`repro.core.config.PRESETS` scale, or a
        :class:`ScalePreset`.  Controls widths and training length.
    train_spec:
        Full manual control over optimisation; overrides the preset's
        training settings when given.
    seed:
        Master seed for weight init and batch shuffling.
    """

    def __init__(
        self,
        predictor: str = "H",
        features: FeatureConfig | None = None,
        adversarial: bool = True,
        conditional: bool = True,
        preset: str | ScalePreset = "medium",
        train_spec: TrainSpec | None = None,
        model_spec: ModelSpec | None = None,
        seed: int = 0,
    ):
        self.features = features if features is not None else FeatureConfig()
        self.adversarial = adversarial
        self.seed = seed
        if isinstance(preset, str):
            try:
                preset = PRESETS[preset]
            except KeyError:
                raise ValueError(f"unknown preset {preset!r}; have {sorted(PRESETS)}") from None
        self.preset = preset
        self.train_spec = (
            train_spec
            if train_spec is not None
            else preset.train_spec(adversarial=adversarial, seed=seed)
        )
        spec = model_spec if model_spec is not None else table1_spec(predictor, preset.width_factor)
        self.spec = spec
        rng = np.random.default_rng(seed)
        self.predictor: Predictor = build_predictor(predictor, self.features, spec=spec, rng=rng)
        self.discriminator: Discriminator | None = None
        if adversarial:
            self.discriminator = Discriminator(
                self.features, spec=spec, conditional=conditional, rng=rng
            )
        self.history: TrainHistory | AdversarialHistory | None = None
        #: Train-fitted feature scalers, recorded by :meth:`fit` (and by
        #: checkpoint loading) so that online serving can transform raw
        #: km/h observations exactly as training did.
        self.scalers: FeatureScalers | None = None
        #: Distribution profile of the raw km/h speeds this model was
        #: fitted on (``repro.data.ReferenceProfile``), recorded by
        #: :meth:`fit` and carried in checkpoints so serving can monitor
        #: input drift.  ``None`` on unfitted models.
        self.reference_profile: "ReferenceProfile | None" = None

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.predictor.kind

    @property
    def name(self) -> str:
        """Paper-style display name, e.g. "APOTS_H" or "F"."""
        return f"APOTS_{self.kind}" if self.adversarial else self.kind

    def _check_dataset(self, dataset: TrafficDataset) -> None:
        # Graph-neighbourhood configs carry a row layout; when either side
        # has one, alpha/m agreement is not enough — the whole geometry
        # (including the layout's row map) must match.
        graph_sided = hasattr(dataset.config, "layout") or hasattr(self.features, "layout")
        if graph_sided:
            if dataset.config != self.features:
                raise ValueError(
                    "dataset feature geometry does not match the model "
                    f"(model {type(self.features).__name__} alpha={self.features.alpha} "
                    f"m={self.features.m} rows={self.features.num_roads}, dataset "
                    f"{type(dataset.config).__name__} alpha={dataset.config.alpha} "
                    f"m={dataset.config.m} rows={dataset.config.num_roads}; layouts "
                    f"must be identical)"
                )
            return
        if dataset.config.alpha != self.features.alpha or dataset.config.m != self.features.m:
            raise ValueError(
                "dataset feature geometry does not match the model "
                f"(model alpha={self.features.alpha} m={self.features.m}, "
                f"dataset alpha={dataset.config.alpha} m={dataset.config.m})"
            )

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: TrafficDataset,
        verbose: bool = False,
        recorder: "RunRecorder | None" = None,
    ) -> "APOTS":
        """Train on the dataset's train split; returns self.

        ``recorder`` (a :class:`repro.obs.RunRecorder`) is forwarded to
        the trainer; without one the trainer falls back to the ambient
        recorder, and with neither the run is unobserved (zero cost).
        """
        self._check_dataset(dataset)
        self.scalers = dataset.features.scalers
        self.reference_profile = ReferenceProfile.from_series(dataset.series)
        if self.adversarial:
            assert self.discriminator is not None
            trainer = APOTSTrainer(self.predictor, self.discriminator, self.train_spec)
        else:
            trainer = SupervisedTrainer(self.predictor, self.train_spec)
        self.history = trainer.fit(dataset, verbose=verbose, recorder=recorder)
        return self

    def predict(self, dataset: TrafficDataset, subset: str = "test") -> np.ndarray:
        """Predict km/h speeds for a dataset partition."""
        self._check_dataset(dataset)
        indices = dataset.subset(subset)
        batch = dataset.batch(indices)
        scaled = self.predictor.predict(batch.images, batch.day_types, batch.flat)
        return dataset.kmh(scaled)

    def evaluate(self, dataset: TrafficDataset, subset: str = "test") -> EvaluationReport:
        """Errors overall and per abrupt-change regime (Section V-B)."""
        predictions = self.predict(dataset, subset)
        targets_kmh, last_input_kmh = dataset.evaluation_arrays(subset)
        masks: RegimeMasks = classify_regimes(last_input_kmh, targets_kmh)
        by_regime = {}
        for regime, mask in masks.as_dict().items():
            if mask.sum() == 0:
                by_regime[regime] = {"mae": float("nan"), "rmse": float("nan"), "mape": float("nan")}
            else:
                by_regime[regime] = all_errors(predictions[mask], targets_kmh[mask])
        return EvaluationReport(
            overall=all_errors(predictions, targets_kmh),
            by_regime=by_regime,
            regime_counts=masks.counts(),
            predictions_kmh=predictions,
            targets_kmh=targets_kmh,
        )
