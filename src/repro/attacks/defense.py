"""Serving-side defense: screen ingested observations for implausibility.

The :class:`PerturbationGate` is the one piece of ``repro.attacks`` the
serving layer may import (enforced by ``tools/check_imports.py``).  It
inverts the attacker's own feasibility constraints: readings outside
the physical speed range, or jumping faster than traffic plausibly
moves between consecutive ticks, are flagged and the segment is
quarantined for a few ticks — long enough for the service to route its
forecasts through the naive-persistence degradation path instead of
feeding a possibly poisoned window to the model.

Threshold calibration (DESIGN.md §9): the synthetic corridor's natural
per-tick |speed change| has mean ~2.2 km/h and p99 ~10.8 km/h, while
incident onsets reach ~42 km/h — so a jump detector cannot separate
attacks from incidents perfectly.  The default ``max_jump_kmh`` trades
a small false-positive rate on incident ticks (which degrade to naive
persistence, a cheap and safe fallback) for catching any attack that
moves a reading by more than one epsilon-sized step at once.

The gate deliberately imports nothing from ``repro.serving`` (the
dependency points the other way) and keeps only O(segments) state.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GateConfig", "GateDecision", "PerturbationGate"]


@dataclass(frozen=True)
class GateConfig:
    """Plausibility thresholds for ingested speed readings.

    ``max_jump_kmh`` bounds the per-tick change versus the previous
    reading of the same segment; ``quarantine_ticks`` is how many
    subsequent steps a flagged segment stays suspect (so a single
    poisoned tick keeps the window quarantined while it remains inside
    the model's input horizon tail).
    """

    min_speed_kmh: float = 0.0
    max_speed_kmh: float = 130.0
    max_jump_kmh: float = 15.0
    quarantine_ticks: int = 3

    def __post_init__(self):
        if self.max_speed_kmh <= self.min_speed_kmh:
            raise ValueError("max_speed_kmh must exceed min_speed_kmh")
        if self.max_jump_kmh <= 0:
            raise ValueError("max_jump_kmh must be positive")
        if self.quarantine_ticks < 1:
            raise ValueError("quarantine_ticks must be >= 1")


@dataclass(frozen=True)
class GateDecision:
    """Outcome of screening one observation.

    ``safe_speed_kmh`` is the last reading accepted before the segment
    turned suspect — the value the degradation path should persist —
    and is ``None`` when no trusted reading exists yet.
    """

    segment_id: int | str
    step: int
    speed_kmh: float
    suspect: bool
    reason: str | None = None
    safe_speed_kmh: float | None = None


class PerturbationGate:
    """Stateful per-segment plausibility screen for a forecast service."""

    def __init__(self, config: GateConfig | None = None):
        self.config = config if config is not None else GateConfig()
        self._last_reading: dict[int | str, tuple[int, float]] = {}
        self._last_trusted: dict[int | str, float] = {}
        self._quarantined_until: dict[int | str, int] = {}
        self._checks = 0
        self._hits = 0
        self._hits_by_reason: dict[str, int] = {}

    # ------------------------------------------------------------------
    def screen(self, segment_id: int | str, step: int, speed_kmh: float) -> GateDecision:
        """Judge one reading; updates per-segment state either way."""
        cfg = self.config
        self._checks += 1
        reason = None
        if not (cfg.min_speed_kmh <= speed_kmh <= cfg.max_speed_kmh):
            reason = "out_of_range"
        else:
            previous = self._last_reading.get(segment_id)
            if previous is not None and abs(speed_kmh - previous[1]) > cfg.max_jump_kmh:
                reason = "implausible_jump"
        # The jump check always compares to the previous *reading*, even a
        # suspect one: a real incident then re-admits itself after one
        # quarantine (subsequent ticks move slowly from the new level),
        # while an attacker oscillating past the threshold re-triggers.
        self._last_reading[segment_id] = (step, speed_kmh)
        safe = self._last_trusted.get(segment_id)
        if reason is not None:
            self._hits += 1
            self._hits_by_reason[reason] = self._hits_by_reason.get(reason, 0) + 1
            self._quarantined_until[segment_id] = step + cfg.quarantine_ticks
            return GateDecision(segment_id, step, speed_kmh, True, reason, safe)
        if not self.is_quarantined(segment_id, step):
            self._last_trusted[segment_id] = speed_kmh
        return GateDecision(segment_id, step, speed_kmh, False, None, safe)

    # ------------------------------------------------------------------
    def is_quarantined(self, segment_id: int | str, step: int | None = None) -> bool:
        """Whether a segment is still inside its quarantine window."""
        until = self._quarantined_until.get(segment_id)
        if until is None:
            return False
        if step is None:
            last = self._last_reading.get(segment_id)
            step = last[0] if last is not None else until
        return step < until

    def quarantined_segments(self) -> list[int | str]:
        """Every segment inside its quarantine window, sorted."""
        return sorted(sid for sid in self._quarantined_until if self.is_quarantined(sid))

    def safe_speed(self, segment_id: int | str) -> float | None:
        """Last reading accepted outside quarantine (None if never)."""
        return self._last_trusted.get(segment_id)

    def snapshot(self) -> dict:
        """Counters for telemetry surfaces."""
        return {
            "checks": self._checks,
            "hits": self._hits,
            "hits_by_reason": dict(self._hits_by_reason),
            "quarantined_segments": self.quarantined_segments(),
        }

    def reset(self) -> None:
        """Drop all per-segment state and counters."""
        self._last_reading.clear()
        self._last_trusted.clear()
        self._quarantined_until.clear()
        self._checks = 0
        self._hits = 0
        self._hits_by_reason.clear()
