"""Feature extraction: from a TrafficSeries to model-ready windows.

Implements the paper's input constructions:

* the **adjacent-speed matrix** ``S_adj`` (Eq 5/6): rows are the target
  road plus ``m`` upstream and ``m`` downstream segments, columns the
  ``alpha`` past timesteps;
* the **non-speed data** ``S_bar``: per-step event flag, temperature,
  precipitation and hour channels, plus one 4-bit day-type vector per
  window (the paper uses a single value per window for day type);
* the **additional data** ``E = S_adj (+) S_bar`` (Eq 3) that conditions
  the discriminator.

Which segments feed a window is one decision: the config's
``window_rows`` table, one row per segment with the segment itself at
column ``m``.  A corridor's table is the ``±m`` index range; a road
graph's (:class:`repro.data.graph_features.GraphFeatureConfig`) is its
padded k-hop layout.  :func:`build_features`, the serving store, its
gate and the fleet's routing all read that table and nothing else.

Section V-B (Q2) fixes the input size to the "both" configuration and
zero-fills whatever is ablated; :class:`FactorMask` reproduces exactly
that rule, including the per-factor switches of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from ..traffic.types import TrafficSeries
from .scaling import LogStandardScaler, MinMaxScaler, StandardScaler, scaler_from_state

__all__ = [
    "OFF_END",
    "PADDING",
    "FactorMask",
    "FeatureConfig",
    "FeatureScalers",
    "WindowFeatures",
    "build_features",
    "fit_scalers",
]


#: ``window_rows`` sentinel: a graph neighbourhood is short here.  The row
#: reads zeros after scaling, and the window can still be served.
PADDING = -1
#: ``window_rows`` sentinel: the row lies past a corridor end, so the
#: window is never complete.
OFF_END = -2


@dataclass(frozen=True)
class FactorMask:
    """Which feature blocks are active; inactive blocks are zero-filled.

    ``speed`` (the target road's own history) is always on — it is the
    primary input of every predictor, never ablated.
    """

    adjacent: bool = True
    event: bool = True
    weather: bool = True
    time: bool = True

    # Named configurations used by the paper -----------------------------
    @staticmethod
    def speed_only() -> "FactorMask":
        return FactorMask(adjacent=False, event=False, weather=False, time=False)

    @staticmethod
    def adjacent_only() -> "FactorMask":
        return FactorMask(adjacent=True, event=False, weather=False, time=False)

    @staticmethod
    def non_speed_only() -> "FactorMask":
        return FactorMask(adjacent=False, event=True, weather=True, time=True)

    @staticmethod
    def both() -> "FactorMask":
        return FactorMask()

    @staticmethod
    def table2(code: str) -> "FactorMask":
        """Decode a Table II column name (e.g. ``"SWT"``) to a mask.

        ``S`` always denotes the speed input; the remaining letters turn
        on Event / Weather / Time.  Adjacent-speed data stays on for all
        Table II configurations (the table's best cell, SEWT, equals the
        paper's full APOTS_H which uses both kinds of additional data).
        """
        code = code.upper()
        if not code.startswith("S"):
            raise ValueError(f"Table II code must start with 'S', got {code!r}")
        extras = set(code[1:])
        unknown = extras - set("EWT")
        if unknown:
            raise ValueError(f"unknown factor letters {sorted(unknown)} in {code!r}")
        return FactorMask(adjacent=True, event="E" in extras, weather="W" in extras, time="T" in extras)

    @property
    def uses_additional(self) -> bool:
        return self.adjacent or self.event or self.weather or self.time


@dataclass(frozen=True)
class FeatureConfig:
    """Window geometry and factor switches.

    alpha:
        History length (12 five-minute speeds = 1 hour in the paper).
    beta:
        Prediction offset: the target is ``beta`` steps after the last
        input step (paper's beta = 1 means the next interval).
    m:
        Adjacent roads on each side (Fig 3); the speed matrix has
        ``2m + 1`` rows.
    mask:
        Active feature blocks (inactive blocks become zeros).
    """

    alpha: int = 12
    beta: int = 1
    m: int = 2
    mask: FactorMask = field(default_factory=FactorMask)

    def __post_init__(self):
        if self.alpha < 2:
            raise ValueError("alpha must be at least 2")
        if self.beta < 1:
            raise ValueError("beta must be at least 1")
        if self.m < 0:
            raise ValueError("m must be non-negative")

    @property
    def num_roads(self) -> int:
        return 2 * self.m + 1

    @property
    def image_rows(self) -> int:
        """Rows of the (roads + 4 non-speed channels) input image."""
        return self.num_roads + 4

    @property
    def flat_dim(self) -> int:
        """Dimension of the flattened feature vector (FC predictor input)."""
        return self.image_rows * self.alpha + 4

    @property
    def condition_dim(self) -> int:
        """Dimension of the additional-data condition E for D.

        E excludes the target road's own history (that is the primary
        input, not 'additional' data): (2m) adjacent rows + 4 non-speed
        channels, each alpha long, plus the 4 day-type bits.
        """
        return (self.num_roads - 1 + 4) * self.alpha + 4

    def window_rows(self, num_segments: int) -> np.ndarray:
        """(num_segments, 2m + 1) segment ids of each window's speed rows.

        Row ``s`` is ``s - m .. s + m`` (Eq 5 order), ``OFF_END`` where
        that runs past either corridor end.
        """
        rows = np.arange(num_segments, dtype=np.int64)[:, None] + np.arange(-self.m, self.m + 1)
        rows[(rows < 0) | (rows >= num_segments)] = OFF_END
        return rows

    def with_mask(self, mask: FactorMask) -> "FeatureConfig":
        return replace(self, mask=mask)


@dataclass
class FeatureScalers:
    """Train-fitted scalers shared by transform-time feature building."""

    speed: MinMaxScaler
    temperature: StandardScaler
    precipitation: LogStandardScaler

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of all fitted scaler parameters."""
        return {
            "speed": self.speed.state_dict(),
            "temperature": self.temperature.state_dict(),
            "precipitation": self.precipitation.state_dict(),
        }

    @staticmethod
    def from_state(state: dict) -> "FeatureScalers":
        return FeatureScalers(
            speed=scaler_from_state(state["speed"]),
            temperature=scaler_from_state(state["temperature"]),
            precipitation=scaler_from_state(state["precipitation"]),
        )


@dataclass
class WindowFeatures:
    """All windows of a series, as aligned arrays.

    Windows stack target-major: one block of equal length per target
    segment, in the order the targets were given.

    Attributes
    ----------
    images:
        (N, image_rows, alpha) scaled feature image: first ``num_roads``
        rows are the adjacent-speed matrix (Eq 6, target road at row
        ``m``), then event, temperature, precipitation and hour rows.
    day_types:
        (N, 4) day-type bits of each window's last input step.
    targets:
        (N,) scaled target speed at ``beta`` steps past the window end.
    targets_kmh:
        (N,) unscaled target speeds (for metric computation).
    last_input_kmh:
        (N,) unscaled target-road speed at the last input step (used to
        classify abrupt-change regimes, Eq 7/8).
    target_steps:
        (N,) absolute timestep index of each target.
    config, scalers:
        The geometry and the train-fitted scalers used.
    segment_ids:
        (N,) target segment id per window.
    """

    images: np.ndarray
    day_types: np.ndarray
    targets: np.ndarray
    targets_kmh: np.ndarray
    last_input_kmh: np.ndarray
    target_steps: np.ndarray
    config: FeatureConfig
    scalers: FeatureScalers
    segment_ids: np.ndarray

    @property
    def num_windows(self) -> int:
        return self.images.shape[0]

    @property
    def windows_per_target(self) -> int:
        return self.num_windows // len(np.unique(self.segment_ids))

    def flat(self, indices: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Flattened (N, flat_dim) view: image rows then day-type bits."""
        images = self.images[indices]
        day_types = self.day_types[indices]
        return np.concatenate([images.reshape(images.shape[0], -1), day_types], axis=1)

    def condition(self, indices: np.ndarray | slice = slice(None)) -> np.ndarray:
        """The additional-data condition E (Eq 3) per window.

        Excludes the target road's own row of the speed matrix; respects
        the factor mask through the zero-filling already applied.
        """
        images = self.images[indices]
        m = self.config.m
        rows = np.delete(images, m, axis=1)  # drop the target road row
        return np.concatenate([rows.reshape(rows.shape[0], -1), self.day_types[indices]], axis=1)

    def image_sequences(self, indices: np.ndarray | slice = slice(None)) -> np.ndarray:
        """(N, alpha, image_rows) time-major sequences for the LSTM."""
        return np.transpose(self.images[indices], (0, 2, 1))


def _sliding_windows(values: np.ndarray, alpha: int, num_windows: int) -> np.ndarray:
    """Stride-trick view of shape (num_windows, ..., alpha) over axis -1."""
    view = np.lib.stride_tricks.sliding_window_view(values, alpha, axis=-1)
    # view shape: (..., T - alpha + 1, alpha)
    return view[..., :num_windows, :]


def fit_scalers(series: TrafficSeries, train_steps: np.ndarray | None = None) -> FeatureScalers:
    """Fit the feature scalers; ``train_steps`` restricts to train times."""
    if train_steps is None:
        speed_data = series.speeds
        temp = series.temperature
        precip = series.precipitation
    else:
        speed_data = series.speeds[:, train_steps]
        temp = series.temperature[train_steps]
        precip = series.precipitation[train_steps]
    return FeatureScalers(
        speed=MinMaxScaler().fit(speed_data),
        temperature=StandardScaler().fit(temp),
        precipitation=LogStandardScaler().fit(precip),
    )


def build_features(
    series: TrafficSeries,
    config: FeatureConfig,
    scalers: FeatureScalers | None = None,
    targets: Iterable[int] | None = None,
) -> WindowFeatures:
    """Extract every valid window of each target segment of ``series``.

    Window ``i`` of a target covers input steps ``[i, i + alpha - 1]``
    and predicts that target's speed at step ``i + alpha - 1 + beta``.
    ``targets`` defaults to the corridor's target segment; several
    targets stack target-major, one block of windows each.  Per target
    the speed rows are that target's row of ``config.window_rows``:
    gathered, scaled, then zeroed where the table reads ``PADDING``.
    """
    if targets is None:
        targets = [series.corridor.target_index]
    target_list = [int(t) for t in targets]
    if not target_list:
        raise ValueError("at least one target segment is required")
    if len(set(target_list)) != len(target_list):
        raise ValueError("target segments must be unique")
    n = series.num_segments
    for t in target_list:
        if not 0 <= t < n:
            raise ValueError(f"target {t} outside 0..{n - 1}")
    alpha, beta, m = config.alpha, config.beta, config.m
    total = series.num_steps
    num_windows = total - alpha - beta + 1
    if num_windows <= 0:
        raise ValueError(
            f"series too short: {total} steps cannot fit alpha={alpha}, beta={beta} windows"
        )
    table = config.window_rows(n)
    for t in target_list:
        if (table[t] == OFF_END).any():
            raise ValueError(
                f"corridor has no {m} neighbours on both sides of segment {t} "
                f"(need indices {t - m}..{t + m}, have 0..{n - 1})"
            )
    if scalers is None:
        scalers = fit_scalers(series)

    # Shared non-speed channels, each an (N, alpha) view.
    temp = _sliding_windows(scalers.temperature.transform(series.temperature), alpha, num_windows)
    precip = _sliding_windows(
        scalers.precipitation.transform(series.precipitation), alpha, num_windows
    )
    hour = _sliding_windows(series.hours / 23.0, alpha, num_windows)
    last_step = np.arange(num_windows) + alpha - 1
    day_types = series.day_types[last_step].astype(np.float64)

    # Each target's block of the images, filled in place: the speed
    # matrix rows, then event, temperature, precipitation and hour.
    mask = config.mask
    roads = config.num_roads
    reps = len(target_list)
    images = np.empty((reps * num_windows, config.image_rows, alpha))
    for i, t in enumerate(target_list):
        block = images[i * num_windows : (i + 1) * num_windows]
        rows = table[t]
        adj = scalers.speed.transform(series.speeds[np.maximum(rows, 0)])
        adj[rows == PADDING] = 0.0  # zero after scaling: no speed outside the window leaks in
        block[:, :roads] = np.transpose(_sliding_windows(adj, alpha, num_windows), (1, 0, 2))
        block[:, roads] = _sliding_windows(series.events[t], alpha, num_windows)
        block[:, roads + 1] = temp
        block[:, roads + 2] = precip
        block[:, roads + 3] = hour

    # Apply the Q2 zero-filling rule per factor.
    if not mask.adjacent:
        images[:, :m] = 0.0
        images[:, m + 1 : roads] = 0.0
    if not mask.event:
        images[:, roads] = 0.0
    if not mask.weather:
        images[:, roads + 1 : roads + 3] = 0.0
    if not mask.time:
        images[:, roads + 3] = 0.0
        day_types = np.zeros_like(day_types)

    target_steps = last_step + beta
    target_kmh = series.speeds[target_list][:, target_steps].reshape(-1)
    return WindowFeatures(
        images=images,
        day_types=np.concatenate([day_types] * reps, axis=0),
        targets=scalers.speed.transform(target_kmh),
        targets_kmh=target_kmh,
        last_input_kmh=series.speeds[target_list][:, last_step].reshape(-1),
        target_steps=np.concatenate([target_steps] * reps),
        config=config,
        scalers=scalers,
        segment_ids=np.repeat(np.array(target_list, dtype=np.int64), num_windows),
    )
