"""Training-time input reference profiles for drift detection.

A :class:`ReferenceProfile` captures the distribution of raw km/h
speeds a model was trained on: mean, standard deviation, and a fixed-bin
histogram over the plausible expressway range.  It rides along in
zoo checkpoints (see :mod:`repro.core.zoo`) so that serving
time can ask "does the live input stream still look like the training
data?" without access to the original series.

The shift statistic is the **Population Stability Index** over the
pinned bins:

    PSI = sum_b (p_live[b] - p_ref[b]) * ln(p_live[b] / p_ref[b])

with epsilon-smoothed proportions so empty bins never divide by zero.
Conventional reading (documented in DESIGN.md §14): PSI < 0.1 — stable;
0.1–0.25 — moderate shift; > 0.25 — significant shift.  The bin edges
are fixed (not data-derived) so two profiles are always comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ReferenceProfile", "PSI_EPSILON", "SPEED_BIN_EDGES"]

#: Fixed histogram bins over the plausible expressway speed range, km/h.
#: 13 bins of 10 km/h; the outermost bins absorb anything outside.
SPEED_BIN_EDGES: tuple[float, ...] = tuple(float(x) for x in range(0, 131, 10))

#: Smoothing floor applied to both proportions before the PSI log ratio.
PSI_EPSILON = 1e-4


def _proportions(speeds_kmh: np.ndarray, edges: np.ndarray) -> np.ndarray:
    values = np.clip(np.asarray(speeds_kmh, dtype=np.float64).ravel(), edges[0], edges[-1])
    counts, _ = np.histogram(values, bins=edges)
    total = counts.sum()
    if total == 0:
        raise ValueError("cannot profile an empty speed sample")
    return counts / total


@dataclass(frozen=True)
class ReferenceProfile:
    """Distribution snapshot of the raw km/h speeds a model trained on.

    ``day_bins`` optionally conditions the profile on day type:
    ``("weekday", sub_profile)`` / ``("offday", sub_profile)`` pairs
    built by :meth:`from_series`.  Weekly seasonality (weekend speeds
    run structurally faster) inflates an *unconditioned* PSI on windows
    that mix day types; a conditioned monitor compares each day type
    against its own training distribution instead.  The field defaults
    to empty so profiles serialised before it existed load unchanged.
    """

    mean_kmh: float
    std_kmh: float
    count: int
    bin_edges: tuple[float, ...]
    proportions: tuple[float, ...]
    day_bins: tuple[tuple[str, "ReferenceProfile"], ...] = ()

    def __post_init__(self):
        if len(self.proportions) != len(self.bin_edges) - 1:
            raise ValueError(
                f"{len(self.bin_edges)} bin edges need {len(self.bin_edges) - 1} "
                f"proportions, got {len(self.proportions)}"
            )
        if self.count <= 0:
            raise ValueError("profile count must be positive")

    # ------------------------------------------------------------------
    @staticmethod
    def from_speeds(speeds_kmh: np.ndarray) -> "ReferenceProfile":
        """Profile a raw km/h speed sample (any shape; flattened)."""
        values = np.asarray(speeds_kmh, dtype=np.float64).ravel()
        if values.size == 0:
            raise ValueError("cannot profile an empty speed sample")
        edges = np.asarray(SPEED_BIN_EDGES)
        return ReferenceProfile(
            mean_kmh=float(values.mean()),
            std_kmh=float(values.std()),
            count=int(values.size),
            bin_edges=SPEED_BIN_EDGES,
            proportions=tuple(float(p) for p in _proportions(values, edges)),
        )

    @staticmethod
    def from_series(series) -> "ReferenceProfile":
        """Profile every segment of a :class:`~repro.traffic.types.TrafficSeries`.

        Alongside the overall profile, builds day-type-conditioned
        sub-profiles from the series' calendar channel: ``"weekday"``
        covers timesteps whose day-type vector marks a working day,
        ``"offday"`` the rest (weekends and holidays).  A bin with no
        timesteps is omitted.
        """
        overall = ReferenceProfile.from_speeds(series.speeds)
        weekday_mask = series.day_types[:, 0] > 0.5
        day_bins: list[tuple[str, ReferenceProfile]] = []
        for label, mask in (("weekday", weekday_mask), ("offday", ~weekday_mask)):
            if mask.any():
                day_bins.append((label, ReferenceProfile.from_speeds(series.speeds[:, mask])))
        return ReferenceProfile(
            mean_kmh=overall.mean_kmh,
            std_kmh=overall.std_kmh,
            count=overall.count,
            bin_edges=overall.bin_edges,
            proportions=overall.proportions,
            day_bins=tuple(day_bins),
        )

    def day_profile(self, label: str) -> "ReferenceProfile | None":
        """The conditioned sub-profile for a day-type label, if present."""
        for name, sub in self.day_bins:
            if name == label:
                return sub
        return None

    # ------------------------------------------------------------------
    def psi(self, speeds_kmh: np.ndarray) -> float:
        """Population Stability Index of a live sample against this profile."""
        live = _proportions(speeds_kmh, np.asarray(self.bin_edges))
        ref = np.asarray(self.proportions, dtype=np.float64)
        live = np.maximum(live, PSI_EPSILON)
        ref = np.maximum(ref, PSI_EPSILON)
        return float(np.sum((live - ref) * np.log(live / ref)))

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serialisable snapshot (checkpoint manifests embed it)."""
        state = {
            "mean_kmh": self.mean_kmh,
            "std_kmh": self.std_kmh,
            "count": self.count,
            "bin_edges": list(self.bin_edges),
            "proportions": list(self.proportions),
        }
        if self.day_bins:
            state["day_bins"] = [
                [label, sub.state_dict()] for label, sub in self.day_bins
            ]
        return state

    @staticmethod
    def from_state(state: dict) -> "ReferenceProfile":
        return ReferenceProfile(
            mean_kmh=float(state["mean_kmh"]),
            std_kmh=float(state["std_kmh"]),
            count=int(state["count"]),
            bin_edges=tuple(float(x) for x in state["bin_edges"]),
            proportions=tuple(float(p) for p in state["proportions"]),
            day_bins=tuple(
                (str(label), ReferenceProfile.from_state(sub))
                for label, sub in state.get("day_bins", [])
            ),
        )
