"""Drift monitors over the live serving stream.

Two independent detectors, both hysteresis-gated so one noisy tick can
never trigger a retrain (DESIGN.md §14):

* :class:`ErrorDriftMonitor` — *is the model still accurate?*  Forecasts
  are reconciled against the later-observed truth by
  :class:`TruthReconciler`; the monitor keeps a rolling window of
  absolute errors, freezes its first full window as the **baseline**
  (self-calibrating — no training-time error statistic needs to ride in
  the checkpoint), and breaches when the rolling MAE exceeds
  ``error_ratio x baseline``.  Per-regime errors (the paper's
  abrupt-change regimes) are tracked alongside so the breach report
  names the regime that degraded most.

* :class:`InputDriftMonitor` — *does the input still look like the
  training data?*  Raw km/h speeds are windowed and compared against
  the champion checkpoint's :class:`repro.data.ReferenceProfile` by
  PSI and mean shift.  A checkpoint saved from an unfitted model has no
  profile; the monitor is then disabled rather than guessing.

Every evaluation emits a schema-valid ``drift_error`` / ``drift_input``
event, so the full hysteresis trail — not just the final trigger — is
reconstructable from the run log.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from ..data.profile import ReferenceProfile
from ..metrics.regimes import ABRUPT_THETA
from ..obs import RunRecorder

__all__ = [
    "DriftConfig",
    "DriftDecision",
    "ErrorSample",
    "TruthReconciler",
    "ErrorDriftMonitor",
    "InputDriftMonitor",
]

_REGIMES = ("normal", "abrupt_acc", "abrupt_dec")


@dataclass(frozen=True)
class DriftConfig:
    """Knobs of both monitors (shared so one config rides the controller).

    ``check_every`` paces evaluations in *samples*, keeping the per-tick
    overhead flat; ``hysteresis`` is the number of **consecutive**
    breaching evaluations required to trigger.
    """

    # Forecast-error monitor
    error_window: int = 64  # rolling error window (samples)
    min_samples: int = 32  # don't evaluate before this many samples
    error_ratio: float = 1.5  # breach when rolling MAE > ratio x baseline
    # Input-distribution monitor
    input_window: int = 256  # rolling raw-speed window (samples)
    psi_threshold: float = 0.25  # "significant shift" by PSI convention
    mean_shift_kmh: float = 10.0  # absolute mean-speed shift breach
    # Shared pacing
    check_every: int = 16  # evaluate every N new samples
    hysteresis: int = 3  # consecutive breaches required to trigger

    def __post_init__(self):
        if self.error_window < 2 or self.input_window < 2:
            raise ValueError("windows must hold at least 2 samples")
        if self.min_samples < 1 or self.min_samples > self.error_window:
            raise ValueError("min_samples must be in 1..error_window")
        if self.error_ratio <= 1.0:
            raise ValueError("error_ratio must exceed 1.0")
        if self.check_every < 1 or self.hysteresis < 1:
            raise ValueError("check_every and hysteresis must be positive")


@dataclass(frozen=True)
class DriftDecision:
    """One monitor's trigger: who fired, why, and the stats behind it."""

    monitor: str  # "error" | "input"
    reason: str
    step: int  # stream step at which the trigger fired
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ErrorSample:
    """One reconciled (forecast, truth) pair with its regime label."""

    segment_id: int
    target_step: int
    predicted_kmh: float
    truth_kmh: float
    last_input_kmh: float

    @property
    def abs_error(self) -> float:
        return abs(self.predicted_kmh - self.truth_kmh)

    @property
    def regime(self) -> str:
        """Paper regime of this sample (Eq 7/8, scalar form)."""
        relative = (self.last_input_kmh - self.truth_kmh) / max(self.last_input_kmh, 1e-9)
        if relative >= ABRUPT_THETA:
            return "abrupt_dec"
        if relative <= -ABRUPT_THETA:
            return "abrupt_acc"
        return "normal"


class TruthReconciler:
    """Match forecasts to the later-observed speeds they predicted.

    :meth:`record` files a model forecast under ``(segment,
    target_step)``; :meth:`reconcile` resolves the pairs whose truth
    just arrived on the observation stream.  Pending entries are
    bounded: past ``max_pending`` the oldest are dropped (a forecast
    whose truth never arrives — gap, reset — must not leak).
    """

    def __init__(self, max_pending: int = 4096):
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        self.max_pending = max_pending
        self._pending: OrderedDict[tuple[int, int], tuple[float, float]] = OrderedDict()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._pending)

    def record(self, segment_id: int, target_step: int, predicted_kmh: float, last_input_kmh: float) -> None:
        key = (int(segment_id), int(target_step))
        self._pending[key] = (float(predicted_kmh), float(last_input_kmh))
        self._pending.move_to_end(key)
        while len(self._pending) > self.max_pending:
            self._pending.popitem(last=False)
            self.dropped += 1

    def reconcile(self, observations) -> list[ErrorSample]:
        """Resolve every pending forecast answered by these observations."""
        samples: list[ErrorSample] = []
        for obs in observations:
            entry = self._pending.pop((int(obs.segment_id), int(obs.step)), None)
            if entry is None:
                continue
            predicted, last_input = entry
            samples.append(
                ErrorSample(
                    segment_id=int(obs.segment_id),
                    target_step=int(obs.step),
                    predicted_kmh=predicted,
                    truth_kmh=float(obs.speed_kmh),
                    last_input_kmh=last_input,
                )
            )
        return samples

    def clear(self) -> None:
        """Drop all pending forecasts (called on swap/rollback: pending
        predictions belong to the outgoing model)."""
        self._pending.clear()


class _HysteresisGate:
    """Consecutive-breach counter shared by both monitors."""

    __slots__ = ("required", "breaches")

    def __init__(self, required: int):
        self.required = required
        self.breaches = 0

    def update(self, breached: bool) -> bool:
        self.breaches = self.breaches + 1 if breached else 0
        return self.breaches >= self.required


class ErrorDriftMonitor:
    """Rolling forecast-error drift with a self-calibrated baseline."""

    def __init__(self, config: DriftConfig | None = None, recorder: RunRecorder | None = None):
        self.config = config if config is not None else DriftConfig()
        self.recorder = recorder
        self._errors: deque[float] = deque(maxlen=self.config.error_window)
        self._regime_errors: dict[str, deque[float]] = {
            r: deque(maxlen=self.config.error_window) for r in _REGIMES
        }
        self._gate = _HysteresisGate(self.config.hysteresis)
        self._baseline: float | None = None
        self._since_check = 0
        self._total = 0
        self._latest_step = 0

    # ------------------------------------------------------------------
    @property
    def baseline_mae(self) -> float | None:
        return self._baseline

    def rolling_mae(self) -> float | None:
        if not self._errors:
            return None
        return float(np.mean(self._errors))

    def reset(self) -> None:
        """Forget all rolling state (after a swap the old errors are
        another model's); the baseline re-calibrates from fresh data."""
        self._errors.clear()
        for errs in self._regime_errors.values():
            errs.clear()
        self._gate.breaches = 0
        self._baseline = None
        self._since_check = 0

    def calm(self) -> None:
        """Clear only the hysteresis trail, keeping window and baseline.

        Used when a trigger was handled without a swap (challenger
        rejected, retrain failed): the baseline must survive, otherwise
        it would re-calibrate on the drifted stream and persistent
        drift could never re-trigger.
        """
        self._gate.breaches = 0

    # ------------------------------------------------------------------
    def observe(self, samples: list[ErrorSample]) -> DriftDecision | None:
        """Fold in reconciled samples; returns a decision when triggered."""
        decision = None
        for sample in samples:
            self._errors.append(sample.abs_error)
            self._regime_errors[sample.regime].append(sample.abs_error)
            self._total += 1
            self._since_check += 1
            self._latest_step = max(self._latest_step, sample.target_step)
            if self._baseline is None:
                if self._total >= self.config.error_window:
                    # First full window becomes the frozen baseline.
                    self._baseline = float(np.mean(self._errors))
                continue
            if self._since_check >= self.config.check_every and len(self._errors) >= self.config.min_samples:
                self._since_check = 0
                fired = self._evaluate()
                decision = decision or fired
        return decision

    def _worst_regime(self) -> str:
        """The regime whose rolling MAE is highest (enough samples held)."""
        worst, worst_mae = "whole", -1.0
        for regime, errs in self._regime_errors.items():
            if len(errs) >= 4:
                regime_mae = float(np.mean(errs))
                if regime_mae > worst_mae:
                    worst, worst_mae = regime, regime_mae
        return worst

    def _evaluate(self) -> DriftDecision | None:
        assert self._baseline is not None
        rolling = float(np.mean(self._errors))
        baseline = max(self._baseline, 1e-9)
        ratio = rolling / baseline
        breached = ratio > self.config.error_ratio
        triggered = self._gate.update(breached)
        if self.recorder is not None:
            self.recorder.event(
                "drift_error",
                samples=len(self._errors),
                regime=self._worst_regime(),
                rolling_mae=rolling,
                baseline_mae=self._baseline,
                ratio=ratio,
                threshold=self.config.error_ratio,
                breaches=self._gate.breaches,
                triggered=triggered,
            )
        if not triggered:
            return None
        self._gate.breaches = 0
        return DriftDecision(
            monitor="error",
            reason=(
                f"rolling MAE {rolling:.2f} km/h is {ratio:.2f}x the baseline "
                f"{self._baseline:.2f} (threshold {self.config.error_ratio}x, "
                f"worst regime {self._worst_regime()})"
            ),
            step=self._latest_step,
            stats={"rolling_mae": rolling, "baseline_mae": self._baseline, "ratio": ratio},
        )


class InputDriftMonitor:
    """Input-distribution shift against a training-time reference profile.

    When the profile carries day-type bins (profiles built by
    :meth:`ReferenceProfile.from_series`) and the observation stream
    labels its day types, the PSI and mean-shift statistics are
    **conditioned**: each day type in the window is compared against its
    own training sub-distribution and the worst subgroup gates the
    breach.  That removes the weekly-seasonality false-positive (a
    weekend window legitimately runs faster than the pooled training
    mean), which is what lets the PSI threshold sit at the conventional
    0.25 instead of being inflated to tolerate seasonality.
    """

    #: Minimum samples a day-type subgroup needs in the window before its
    #: conditioned PSI is trusted (smaller subgroups are skipped).
    MIN_SUBGROUP = 24

    def __init__(
        self,
        profile: ReferenceProfile | None,
        config: DriftConfig | None = None,
        recorder: RunRecorder | None = None,
    ):
        self.profile = profile
        self.config = config if config is not None else DriftConfig()
        self.recorder = recorder
        self._speeds: deque[float] = deque(maxlen=self.config.input_window)
        self._labels: deque[str | None] = deque(maxlen=self.config.input_window)
        self._gate = _HysteresisGate(self.config.hysteresis)
        self._since_check = 0
        self._latest_step = 0

    @property
    def enabled(self) -> bool:
        """False when the champion checkpoint carries no reference profile."""
        return self.profile is not None

    def reset(self) -> None:
        self._speeds.clear()
        self._labels.clear()
        self._gate.breaches = 0
        self._since_check = 0

    def calm(self) -> None:
        """Clear only the hysteresis trail (see ErrorDriftMonitor.calm)."""
        self._gate.breaches = 0

    @staticmethod
    def _day_label(observation) -> str | None:
        """Day-type label of one observation, or None when unlabelled."""
        day_type = getattr(observation, "day_type", None)
        if day_type is None:
            return None
        return "weekday" if day_type[0] > 0.5 else "offday"

    # ------------------------------------------------------------------
    def observe(self, observations) -> DriftDecision | None:
        """Fold in raw observations; returns a decision when triggered."""
        if not self.enabled:
            return None
        decision = None
        for obs in observations:
            self._speeds.append(float(obs.speed_kmh))
            self._labels.append(self._day_label(obs))
            self._since_check += 1
            self._latest_step = max(self._latest_step, int(obs.step))
            full = len(self._speeds) == self.config.input_window
            if full and self._since_check >= self.config.check_every:
                self._since_check = 0
                fired = self._evaluate()
                decision = decision or fired
        return decision

    def _statistics(self, window: np.ndarray) -> tuple[float, float, float, bool]:
        """(psi, mean, reference_mean, conditioned) for the current window.

        Conditioned when the profile has day bins and every sample in
        the window carries a day-type label: each sufficiently populated
        subgroup is scored against its own sub-profile and the worst one
        is reported.  Otherwise falls back to the pooled statistic.
        """
        assert self.profile is not None
        labels = list(self._labels)
        if self.profile.day_bins and all(label is not None for label in labels):
            label_array = np.asarray(labels)
            worst: tuple[float, float, float] | None = None
            for label, sub in self.profile.day_bins:
                mask = label_array == label
                if int(mask.sum()) < self.MIN_SUBGROUP:
                    continue
                sub_window = window[mask]
                candidate = (sub.psi(sub_window), float(sub_window.mean()), sub.mean_kmh)
                if worst is None or candidate[0] > worst[0]:
                    worst = candidate
            if worst is not None:
                return worst[0], worst[1], worst[2], True
        return self.profile.psi(window), float(window.mean()), self.profile.mean_kmh, False

    def _evaluate(self) -> DriftDecision | None:
        assert self.profile is not None
        window = np.asarray(self._speeds)
        psi, mean, reference_mean, conditioned = self._statistics(window)
        mean_shift = abs(mean - reference_mean)
        breached = psi > self.config.psi_threshold or mean_shift > self.config.mean_shift_kmh
        triggered = self._gate.update(breached)
        if self.recorder is not None:
            self.recorder.event(
                "drift_input",
                samples=len(window),
                psi=psi,
                psi_threshold=self.config.psi_threshold,
                mean_kmh=mean,
                reference_mean_kmh=reference_mean,
                conditioned=conditioned,
                breaches=self._gate.breaches,
                triggered=triggered,
            )
        if not triggered:
            return None
        self._gate.breaches = 0
        qualifier = "conditioned " if conditioned else ""
        return DriftDecision(
            monitor="input",
            reason=(
                f"{qualifier}input PSI {psi:.3f} (threshold "
                f"{self.config.psi_threshold}), mean {mean:.1f} km/h vs "
                f"training {reference_mean:.1f}"
            ),
            step=self._latest_step,
            stats={
                "psi": psi,
                "mean_kmh": mean,
                "reference_mean_kmh": reference_mean,
                "conditioned": conditioned,
            },
        )
