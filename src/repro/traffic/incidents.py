"""Accident and construction event generation.

Substitutes for the accident/construction logs in the Hyundai dataset.
Accidents arrive as a Poisson process over the corridor, hit a random
segment, and impose a severity multiplier for their duration followed by
a linear recovery ramp.  Construction events are rarer, longer, milder,
and scheduled overnight, mirroring real lane-closure practice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import SimulationConfig

__all__ = ["Incident", "sample_incidents", "incident_masks"]

_INCIDENT_REACH = 2  # hops a shockwave travels upstream


@dataclass(frozen=True)
class Incident:
    """A single capacity-reducing event on one segment.

    ``severity`` is the multiplicative speed factor while active (e.g.
    0.4 means speeds drop to 40 %); recovery ramps the factor linearly
    back to 1 over ``recovery_steps`` after the event clears.
    """

    segment: int
    start_step: int
    duration_steps: int
    recovery_steps: int
    severity: float
    kind: str  # "accident" | "construction"

    def __post_init__(self):
        if not 0.0 < self.severity <= 1.0:
            raise ValueError("severity must be in (0, 1]")
        if self.duration_steps <= 0:
            raise ValueError("duration must be positive")
        if self.kind not in ("accident", "construction"):
            raise ValueError(f"unknown incident kind {self.kind!r}")

    @property
    def end_step(self) -> int:
        """First step after the active phase."""
        return self.start_step + self.duration_steps


def sample_incidents(
    config: SimulationConfig,
    num_segments: int,
    rng: np.random.Generator,
    target_index: int | None = None,
) -> list[Incident]:
    """Draw all accidents and construction events for a simulation.

    A fraction ``accident_target_bias`` of accidents strike at or just
    downstream of the target segment, so its queue spillback reaches the
    studied road — the corridor is monitored precisely because it is the
    busy one.
    """
    incidents: list[Incident] = []
    steps_per_day = config.steps_per_day
    step_minutes = config.interval_minutes
    if target_index is None:
        target_index = num_segments // 2

    def accident_segment() -> int:
        if rng.random() < config.accident_target_bias:
            return int(min(target_index + rng.integers(0, 3), num_segments - 1))
        return int(rng.integers(0, num_segments))

    for day in range(config.num_days):
        day_start = day * steps_per_day

        # Accidents: Poisson count, uniform start time, biased toward peaks.
        for _ in range(rng.poisson(config.accident_rate_per_day)):
            # Accidents cluster in busy hours: mixture of uniform and peak.
            if rng.random() < 0.55:
                peak = rng.choice([config.morning_peak_hour, config.evening_peak_hour])
                hour = float(np.clip(rng.normal(peak, 1.2), 0.0, 23.9))
            else:
                hour = rng.uniform(0.0, 23.9)
            start = day_start + int(hour * 60 / step_minutes)
            duration_minutes = rng.integers(
                config.accident_duration_minutes_low,
                config.accident_duration_minutes_high + 1,
            )
            incidents.append(
                Incident(
                    segment=accident_segment(),
                    start_step=start,
                    duration_steps=max(1, int(duration_minutes // step_minutes)),
                    recovery_steps=max(1, config.accident_recovery_minutes // step_minutes),
                    severity=float(
                        rng.uniform(config.accident_severity_low, config.accident_severity_high)
                    ),
                    kind="accident",
                )
            )

        # Construction: overnight lane closures (22:00 - 05:00).
        for _ in range(rng.poisson(config.construction_rate_per_day)):
            hour = rng.uniform(22.0, 23.5)
            start = day_start + int(hour * 60 / step_minutes)
            duration_minutes = rng.integers(180, 420)
            incidents.append(
                Incident(
                    segment=int(rng.integers(0, num_segments)),
                    start_step=start,
                    duration_steps=int(duration_minutes // step_minutes),
                    recovery_steps=max(1, 20 // step_minutes),
                    severity=config.construction_speed_factor,
                    kind="construction",
                )
            )
    return incidents


def incident_masks(
    road,
    incidents: list[Incident],
    total_steps: int,
    upstream_decay: float,
    delay_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand incidents into per-step arrays over a road's adjacency.

    ``road`` is a :class:`~repro.traffic.types.Corridor` or a
    :class:`~repro.network.graph.RoadGraph`: anything with ``len()`` and
    ``upstream_of(i)``.  The shockwave walks ``upstream_of`` for
    ``_INCIDENT_REACH`` hops, one hop every ``delay_steps``: at each hop
    the damping multiplies by ``upstream_decay`` and divides by the
    number of incoming branches (a merge splits the queue).  On a
    corridor every hop has one upstream segment, so the damping is
    ``decay**hop``.

    Returns
    -------
    factor:
        (num_segments, T) multiplicative speed factor in (0, 1], combining
        the direct hit, the linear recovery ramp, and damped, delayed
        propagation to upstream segments (traffic queues grow backwards).
    flags:
        (num_segments, T) 0/1 event indicator: 1 only on the directly hit
        segment during the active phase (what an ITS event log records).
    """
    num_segments = len(road)
    factor = np.ones((num_segments, total_steps))
    flags = np.zeros((num_segments, total_steps))

    for incident in incidents:
        profile_len = incident.duration_steps + incident.recovery_steps
        profile = np.ones(profile_len)
        profile[: incident.duration_steps] = incident.severity
        profile[incident.duration_steps :] = np.linspace(
            incident.severity, 1.0, incident.recovery_steps + 1
        )[1:]

        wave: dict[int, float] = {incident.segment: 1.0}
        reached = {incident.segment}
        for depth in range(_INCIDENT_REACH + 1):
            start = incident.start_step + depth * delay_steps
            if start < total_steps:
                stop = min(start + profile_len, total_steps)
                window = profile[: stop - start]
                for segment, damping in sorted(wave.items()):
                    hit = 1.0 - damping * (1.0 - window)
                    factor[segment, start:stop] = np.minimum(factor[segment, start:stop], hit)
            if depth == _INCIDENT_REACH:
                break
            frontier: dict[int, float] = {}
            for segment, damping in sorted(wave.items()):
                ups = road.upstream_of(segment)
                if not ups:
                    continue
                share = damping * upstream_decay / len(ups)
                for up in ups:
                    if up in reached:
                        continue
                    frontier[up] = max(frontier.get(up, 0.0), share)
            if not frontier:
                break
            reached |= set(frontier)
            wave = frontier

        active_stop = min(incident.end_step, total_steps)
        if incident.start_step < total_steps:
            flags[incident.segment, incident.start_step : active_stop] = 1.0

    return factor, flags
