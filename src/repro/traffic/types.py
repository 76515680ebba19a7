"""Core datatypes for the synthetic Gyeongbu-expressway corridor.

The paper studies one *target road* section of the Gyeongbu expressway
plus ``m`` upstream and ``m`` downstream sections (Fig 3).  We model the
corridor as a linear chain of :class:`RoadSegment`; the simulator fills
in a speed field over (segments x time).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .calendar import KOREAN_HOLIDAYS_2018, STUDY_START

__all__ = ["RoadSegment", "Corridor", "SimulationConfig", "TrafficSeries"]


@dataclass(frozen=True)
class RoadSegment:
    """One section of the expressway corridor."""

    segment_id: int
    name: str
    length_km: float
    free_flow_kmh: float
    capacity_vph: float

    def __post_init__(self):
        if self.length_km <= 0:
            raise ValueError("segment length must be positive")
        if not 40.0 <= self.free_flow_kmh <= 130.0:
            raise ValueError("free-flow speed out of plausible expressway range")
        if self.capacity_vph <= 0:
            raise ValueError("capacity must be positive")


@dataclass(frozen=True)
class Corridor:
    """A linear chain of segments with a designated target segment.

    Segment 0 is the most upstream; traffic flows from low to high index.
    """

    segments: tuple[RoadSegment, ...]
    target_index: int

    def __post_init__(self):
        if len(self.segments) < 1:
            raise ValueError("corridor needs at least one segment")
        if not 0 <= self.target_index < len(self.segments):
            raise ValueError("target_index out of range")

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def target(self) -> RoadSegment:
        return self.segments[self.target_index]

    def upstream_of(self, segment_id: int) -> tuple[int, ...]:
        """Segments feeding ``segment_id``: the one before it on the path."""
        return (segment_id - 1,) if segment_id > 0 else ()

    def neighbours(self, segment_id: int) -> tuple[int, ...]:
        """Segments either side of ``segment_id``, clipped at the ends."""
        return tuple(s for s in (segment_id - 1, segment_id + 1) if 0 <= s < len(self.segments))

    @staticmethod
    def gyeongbu(num_segments: int = 9, rng: np.random.Generator | None = None) -> "Corridor":
        """Build a Gyeongbu-style corridor with mild heterogeneity.

        Free-flow speeds around 100 km/h with per-segment variation, the
        target in the middle.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        segments = []
        for i in range(num_segments):
            segments.append(
                RoadSegment(
                    segment_id=i,
                    name=f"gyeongbu-{i:02d}",
                    length_km=float(rng.uniform(1.5, 4.0)),
                    free_flow_kmh=float(rng.uniform(95.0, 105.0)),
                    capacity_vph=float(rng.uniform(3600.0, 4400.0)),
                )
            )
        return Corridor(segments=tuple(segments), target_index=num_segments // 2)


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of the synthetic traffic generator.

    Defaults are calibrated so that (a) rush hours, rain and accidents
    produce visible abrupt speed changes, and (b) 5-minute relative
    speed changes stay within roughly +-30 % — the paper reports that as
    the maximum observed change and sets the abrupt threshold there.
    """

    start_date: dt.date = STUDY_START
    num_days: int = 122
    interval_minutes: int = 5
    seed: int = 2018

    # Demand model ------------------------------------------------------
    base_demand: float = 0.30  # off-peak demand as a fraction of capacity
    morning_peak_hour: float = 7.8
    evening_peak_hour: float = 18.3
    peak_demand: float = 0.95  # rush-hour demand fraction at the peak
    peak_width_hours: float = 1.4
    weekend_demand_scale: float = 0.72
    holiday_demand_scale: float = 0.62
    demand_noise_std: float = 0.035  # AR(1) innovation on demand
    demand_noise_rho: float = 0.92

    # Congestion law ----------------------------------------------------
    congestion_gamma: float = 4.0  # sharpness of the speed/demand law
    congestion_knee: float = 0.78  # demand fraction where speed collapses

    # Weather coupling --------------------------------------------------
    rain_speed_factor: float = 0.78  # multiplicative speed under heavy rain
    rain_demand_boost: float = 0.06

    # Incident coupling -------------------------------------------------
    accident_rate_per_day: float = 0.5  # corridor-wide Poisson rate
    accident_target_bias: float = 0.4  # fraction striking at/just downstream of the target
    accident_severity_low: float = 0.35  # speed multiplier range
    accident_severity_high: float = 0.60
    accident_duration_minutes_low: int = 20
    accident_duration_minutes_high: int = 70
    accident_recovery_minutes: int = 45
    construction_rate_per_day: float = 0.08
    construction_speed_factor: float = 0.75
    upstream_propagation_decay: float = 0.55  # shockwave damping per segment
    propagation_delay_steps: int = 1

    # Flash congestion: brief sudden slowdowns with instant release.  These
    # are what produce the paper's abrupt +-30 % single-step changes.
    flash_rate_per_day: float = 5.0
    flash_severity_low: float = 0.42
    flash_severity_high: float = 0.68
    flash_duration_steps_low: int = 2
    flash_duration_steps_high: int = 7
    flash_demand_threshold: float = 0.45  # only strikes when traffic is dense
    flash_target_bias: float = 0.5  # fraction of flashes hitting the target road

    # Noise and limits ---------------------------------------------------
    speed_noise_std: float = 1.3  # km/h AR(1) innovation
    speed_noise_rho: float = 0.85
    min_speed_kmh: float = 4.0
    max_speed_kmh: float = 112.0

    holidays: frozenset[dt.date] = KOREAN_HOLIDAYS_2018

    def __post_init__(self):
        if self.num_days <= 0:
            raise ValueError("num_days must be positive")
        if (24 * 60) % self.interval_minutes != 0:
            raise ValueError("interval_minutes must divide a day evenly")
        if not 0 < self.base_demand < 1:
            raise ValueError("base_demand must be a fraction of capacity in (0, 1)")
        if self.min_speed_kmh <= 0 or self.max_speed_kmh <= self.min_speed_kmh:
            raise ValueError("speed limits must satisfy 0 < min < max")

    @property
    def steps_per_day(self) -> int:
        return (24 * 60) // self.interval_minutes

    @property
    def total_steps(self) -> int:
        return self.num_days * self.steps_per_day


@dataclass
class TrafficSeries:
    """The simulator's output: aligned per-timestep arrays.

    Attributes
    ----------
    speeds:
        (num_segments, T) speed field in km/h.
    temperature, precipitation:
        (T,) weather channels (deg C, mm per interval).
    events:
        (num_segments, T) 0/1 accident-or-construction flags.
    hours:
        (T,) hour of day (0..23) per timestep.
    day_types:
        (T, 4) per-timestep [weekday, holiday, before, after] bits.
    timestamps:
        list of datetimes, length T.
    """

    corridor: Corridor
    speeds: np.ndarray
    temperature: np.ndarray
    precipitation: np.ndarray
    events: np.ndarray
    hours: np.ndarray
    day_types: np.ndarray
    timestamps: list[dt.datetime] = field(repr=False, default_factory=list)
    interval_minutes: int = 5

    def __post_init__(self):
        t = self.speeds.shape[1]
        aligned = (
            self.temperature.shape == (t,)
            and self.precipitation.shape == (t,)
            and self.events.shape == self.speeds.shape
            and self.hours.shape == (t,)
            and self.day_types.shape == (t, 4)
            and len(self.timestamps) == t
        )
        if not aligned:
            raise ValueError("TrafficSeries arrays are not aligned on the time axis")

    @property
    def num_steps(self) -> int:
        return self.speeds.shape[1]

    @property
    def num_segments(self) -> int:
        return self.speeds.shape[0]

    def target_speeds(self) -> np.ndarray:
        """Speed series of the target road, shape (T,)."""
        return self.speeds[self.corridor.target_index]

    def slice_steps(self, start: int, stop: int) -> "TrafficSeries":
        """Return a time-sliced copy (used by case-study extraction)."""
        return TrafficSeries(
            corridor=self.corridor,
            speeds=self.speeds[:, start:stop].copy(),
            temperature=self.temperature[start:stop].copy(),
            precipitation=self.precipitation[start:stop].copy(),
            events=self.events[:, start:stop].copy(),
            hours=self.hours[start:stop].copy(),
            day_types=self.day_types[start:stop].copy(),
            timestamps=list(self.timestamps[start:stop]),
            interval_minutes=self.interval_minutes,
        )
