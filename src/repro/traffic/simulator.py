"""The speed-field simulator: one engine for the corridor and the road graph.

Produces the synthetic stand-in for the Hyundai Motor Company dataset:
five-minute speeds on a road, together with the weather, event and
calendar channels APOTS consumes.  :func:`run_speed_field` is the one
engine.  It reads a road only through ``segments``, ``target_index``,
``upstream_of(i)`` and ``neighbours(i)``, so a linear
:class:`~repro.traffic.types.Corridor` (a path: ``(i-1,)`` upstream,
``(i-1, i+1)`` neighbours) and a
:class:`~repro.network.graph.RoadGraph` run the same code.
:class:`TrafficSimulator` runs it on a corridor;
:class:`repro.network.waves.NetworkSimulator` runs it on a graph.

The generative story, per timestep and segment:

1. **Demand** follows a double-peaked daily profile (morning/evening rush
   on weekdays, flatter and lighter on weekends/holidays) with slowly
   varying AR(1) noise.  Rain adds a little demand (slower, denser flow).
2. **Congestion law** maps demand to speed through a smooth
   fundamental-diagram-like curve: near free flow below the knee, rapidly
   collapsing above it.  This produces the sudden rush-hour drops of
   Fig 1a.
3. **Weather** multiplies speed down with rain intensity (Fig 1b).
4. **Incidents** impose severity factors with recovery ramps and a
   damped, delayed shockwave walked upstream (Fig 1c); flash congestion
   adds short slowdowns that spill onto every upstream branch.
5. **Queue spillback** (graph runs only, see :func:`run_speed_field`)
   lets congestion accumulated on a segment drag its feeders down tick by
   tick.
6. **Spatial coupling** smooths each segment toward its neighbours, and
   AR(1) measurement noise is added before clipping to physical limits.
"""

from __future__ import annotations

import numpy as np

from .calendar import day_type_flags, is_weekend, timeline
from .incidents import incident_masks, sample_incidents
from .types import Corridor, SimulationConfig, TrafficSeries
from .weather import WeatherModel

__all__ = [
    "TrafficSimulator",
    "simulate",
    "run_speed_field",
    "demand_profile",
    "congestion_speed_factor",
]

# Queue spillback constants (module-level so tests can pin them).
SPILL_RHO = 0.55  # per-tick queue persistence (memory of past congestion)
SPILL_GAIN = 0.35  # how fast congestion above the onset feeds the queue
SPILL_ONSET = 0.5  # congestion level (1 - v/v_free) where queues start
QUEUE_MAX = 0.45  # cap on the queue state and on the speed reduction


def demand_profile(
    cfg: SimulationConfig, hour_fraction: np.ndarray, weekday: bool, holiday: bool
) -> np.ndarray:
    """Deterministic demand fraction of capacity for given clock times.

    Weekdays show two sharp rush-hour peaks; weekends and holidays a
    single broad midday bulge at lower level.
    """
    base = np.full_like(hour_fraction, cfg.base_demand)
    # Overnight lull.
    night = np.exp(-0.5 * ((hour_fraction - 3.5) / 2.0) ** 2)
    base = base * (1.0 - 0.55 * night)
    if weekday and not holiday:
        for peak_hour in (cfg.morning_peak_hour, cfg.evening_peak_hour):
            bump = np.exp(-0.5 * ((hour_fraction - peak_hour) / cfg.peak_width_hours) ** 2)
            base = base + (cfg.peak_demand - cfg.base_demand) * bump
    else:
        scale = cfg.holiday_demand_scale if holiday else cfg.weekend_demand_scale
        midday = np.exp(-0.5 * ((hour_fraction - 13.0) / 3.5) ** 2)
        base = scale * (base + 0.42 * midday)
    return np.clip(base, 0.02, 1.15)


def congestion_speed_factor(cfg: SimulationConfig, demand: np.ndarray) -> np.ndarray:
    """Map demand fraction to a multiplicative speed factor in (0, 1].

    Below the knee traffic flows near free speed; above it the factor
    collapses steeply (the source of abrupt rush-hour decelerations).
    """
    ratio = np.maximum(demand, 0.0) / cfg.congestion_knee
    return 1.0 / (1.0 + ratio**cfg.congestion_gamma * 0.9)


def _ar1(innovations: np.ndarray, rho: float) -> np.ndarray:
    """AR(1) levels ``l[t] = rho * l[t-1] + e[t]`` from ``l[-1] = 0``.

    Runs along axis 0, in place over ``innovations``.
    """
    for t in range(1, len(innovations)):
        innovations[t] += rho * innovations[t - 1]
    return innovations


def _flash_congestion(
    road, cfg: SimulationConfig, demand: np.ndarray, total: int, rng: np.random.Generator
) -> np.ndarray:
    """Sudden short slowdowns with instant onset and release.

    Strikes only while demand is above ``flash_demand_threshold``
    (dense traffic is where stop-and-go waves form).  The sharp edges
    of these episodes are the dominant source of the abrupt
    acceleration/deceleration samples the paper evaluates on.  Each
    flash spills onto every upstream branch of the hit segment, each
    branch receiving the damping divided by the branch count.
    """
    num_segments = len(road)
    factor = np.ones((num_segments, total))
    count = rng.poisson(cfg.flash_rate_per_day * cfg.num_days)
    dense_steps = np.flatnonzero(demand >= cfg.flash_demand_threshold)
    if dense_steps.size == 0 or count == 0:
        return factor
    starts = rng.choice(dense_steps, size=count)
    for start in starts:
        if rng.random() < cfg.flash_target_bias:
            seg = road.target_index
        else:
            seg = int(rng.integers(0, num_segments))
        duration = int(
            rng.integers(cfg.flash_duration_steps_low, cfg.flash_duration_steps_high + 1)
        )
        severity = float(rng.uniform(cfg.flash_severity_low, cfg.flash_severity_high))
        stop = min(start + duration, total)
        factor[seg, start:stop] = np.minimum(factor[seg, start:stop], severity)
        ups = road.upstream_of(seg)
        if ups and start + 1 < total:
            neighbour_stop = min(stop + 1, total)
            damped = 1.0 - 0.45 * (1.0 - severity) / len(ups)
            for up in ups:
                factor[up, start + 1 : neighbour_stop] = np.minimum(
                    factor[up, start + 1 : neighbour_stop], damped
                )
    return factor


def _queue_spillback(road, speeds: np.ndarray, free_flow: np.ndarray) -> np.ndarray:
    """Per-tick queue state spilling backwards across junctions.

    Each segment accumulates a queue ``q`` (AR(1) with persistence
    ``SPILL_RHO``) from congestion above ``SPILL_ONSET``; upstream
    segments lose speed in proportion to the queues of the segments
    they feed, split across incoming branches.  Deterministic — no
    rng — so baseline and scenario runs diverge only through the
    speeds themselves.
    """
    num_segments = len(road)
    edge_up: list[int] = []
    edge_down: list[int] = []
    edge_weight: list[float] = []
    for down in range(num_segments):
        ups = road.upstream_of(down)
        for up in ups:
            edge_up.append(up)
            edge_down.append(down)
            edge_weight.append(1.0 / len(ups))
    if not edge_up:
        return speeds
    up_idx = np.asarray(edge_up)
    down_idx = np.asarray(edge_down)
    weight = np.asarray(edge_weight)

    queue = np.zeros(num_segments)
    for t in range(speeds.shape[1]):
        congestion = 1.0 - speeds[:, t] / free_flow
        queue = np.clip(
            SPILL_RHO * queue + SPILL_GAIN * np.maximum(congestion - SPILL_ONSET, 0.0),
            0.0,
            QUEUE_MAX,
        )
        spill = np.zeros(num_segments)
        np.add.at(spill, up_idx, queue[down_idx] * weight)
        speeds[:, t] *= np.clip(1.0 - spill, 1.0 - QUEUE_MAX, 1.0)
    return speeds


def _spatial_smoothing(road, speeds: np.ndarray) -> np.ndarray:
    """The 0.82/0.18 pull of each segment toward its neighbours' mean."""
    num_segments = len(road)
    pair_self: list[int] = []
    pair_other: list[int] = []
    counts = np.zeros(num_segments)
    for seg in range(num_segments):
        neighbours = road.neighbours(seg)
        counts[seg] = len(neighbours)
        for other in neighbours:
            pair_self.append(seg)
            pair_other.append(other)
    neighbour_sum = np.zeros_like(speeds)
    if pair_self:
        np.add.at(neighbour_sum, np.asarray(pair_self), speeds[np.asarray(pair_other)])
    has = counts > 0
    neighbour_mean = speeds.copy()  # isolated segments pull toward themselves
    neighbour_mean[has] = neighbour_sum[has] / counts[has, None]
    return 0.82 * speeds + 0.18 * neighbour_mean


def run_speed_field(
    road,
    corridor: Corridor,
    cfg: SimulationConfig,
    *,
    demand_weights: np.ndarray | None = None,
    schedule=None,
    spillback: bool = False,
) -> TrafficSeries:
    """Generate the speed field and auxiliary channels over ``road``.

    ``road`` is a :class:`Corridor` or a road graph: anything with
    ``segments``, ``target_index``, ``upstream_of(i)`` and
    ``neighbours(i)``.  ``corridor`` is the container the returned
    series rides on.  The optional inputs are the graph entry point's:

    * ``demand_weights`` — (S,) positive per-segment multipliers on the
      shared demand (an OD assignment);
    * ``schedule`` — a compiled scenario's arrays: ``demand_boost`` and
      ``speed_factor`` (S, T), ``event_flags`` (S, T) and
      ``precipitation_extra`` (T,);
    * ``spillback`` — whether the per-tick queue spillback runs.
    """
    rng = np.random.default_rng(cfg.seed + 1)
    stamps = timeline(cfg.start_date, cfg.num_days, cfg.interval_minutes)
    total = len(stamps)
    num_segments = len(road)

    # Calendar channels.
    hours = np.array([s.hour for s in stamps], dtype=np.float64)
    hour_fraction = np.array([s.hour + s.minute / 60.0 for s in stamps])
    day_types = np.empty((total, 4))
    weekday_mask = np.empty(total, dtype=bool)
    holiday_mask = np.empty(total, dtype=bool)
    steps_per_day = cfg.steps_per_day
    for day_index in range(cfg.num_days):
        date = stamps[day_index * steps_per_day].date()
        flags = day_type_flags(date, cfg.holidays)
        sl = slice(day_index * steps_per_day, (day_index + 1) * steps_per_day)
        day_types[sl] = flags.as_array()
        weekday_mask[sl] = date.weekday() < 5 and not flags.holiday
        holiday_mask[sl] = flags.holiday or is_weekend(date)

    # Weather (one model for the whole road).
    weather = WeatherModel(interval_minutes=cfg.interval_minutes)
    temperature, precipitation = weather.generate(stamps, rng)

    # Shared diurnal demand, per day type.
    demand = np.empty(total)
    for day_index in range(cfg.num_days):
        sl = slice(day_index * steps_per_day, (day_index + 1) * steps_per_day)
        weekday = bool(weekday_mask[sl][0])
        holiday = bool(holiday_mask[sl][0]) and not is_weekend(
            stamps[day_index * steps_per_day].date()
        )
        demand[sl] = demand_profile(cfg, hour_fraction[sl], weekday=weekday, holiday=holiday)

    # Rain adds demand-side friction.
    rain_intensity = np.clip(precipitation / 1.0, 0.0, 1.0)
    demand = demand + cfg.rain_demand_boost * rain_intensity

    # AR(1) demand noise shared across the road (regional fluctuation).
    noise = _ar1(rng.normal(0.0, cfg.demand_noise_std, size=total), cfg.demand_noise_rho)
    demand = np.clip(demand + noise, 0.02, 1.2)

    # Per-segment demand variation (ramps, local access patterns).
    segment_bias = rng.normal(0.0, 0.03, size=num_segments)

    # Incidents, propagated upstream.
    incidents = sample_incidents(cfg, num_segments, rng, road.target_index)
    incident_factor, event_flags = incident_masks(
        road,
        incidents,
        total,
        upstream_decay=cfg.upstream_propagation_decay,
        delay_steps=cfg.propagation_delay_steps,
    )

    # Rain speed factor: heavy rain multiplies speed toward rain_speed_factor.
    rain_factor = 1.0 - (1.0 - cfg.rain_speed_factor) * rain_intensity
    flash_factor = _flash_congestion(road, cfg, demand, total, rng)

    # Assemble the pre-noise speed field through the congestion law.
    free_flow = np.array([s.free_flow_kmh for s in road.segments])
    weights = demand_weights if demand_weights is not None else np.ones(num_segments)
    seg_demand = demand[None, :] * weights[:, None] + segment_bias[:, None]
    if schedule is not None:
        seg_demand = seg_demand + schedule.demand_boost
    seg_demand = np.clip(seg_demand, 0.02, 1.2)
    speeds = (
        free_flow[:, None]
        * congestion_speed_factor(cfg, seg_demand)
        * rain_factor[None, :]
        * incident_factor
        * flash_factor
    )
    if schedule is not None:
        speeds = speeds * schedule.speed_factor

    # Queue spillback, then neighbour smoothing (queues leak).
    if spillback:
        speeds = _queue_spillback(road, speeds, free_flow)
    speeds = _spatial_smoothing(road, speeds)

    # AR(1) measurement noise, one innovation stream per segment.  A
    # single (S, T) draw consumes the stream in the same order as S
    # sequential length-T draws (C-order fill); the recursion runs
    # time-major, vectorised across segments.
    innovations = rng.normal(0.0, cfg.speed_noise_std, size=(num_segments, total))
    speeds += _ar1(innovations.T.copy(), cfg.speed_noise_rho).T

    # Mild temporal smoothing so routine 5-min steps stay well within
    # +-30 %; genuine shocks (flash congestion, accident onsets) keep
    # most of their amplitude (matching the paper's reported maximum).
    padded = np.pad(speeds, ((0, 0), (1, 1)), mode="edge")
    speeds = 0.08 * padded[:, :-2] + 0.84 * padded[:, 1:-1] + 0.08 * padded[:, 2:]

    speeds = np.clip(speeds, cfg.min_speed_kmh, cfg.max_speed_kmh)

    events = event_flags
    if schedule is not None:
        events = np.maximum(event_flags, schedule.event_flags)
        precipitation = precipitation + schedule.precipitation_extra

    return TrafficSeries(
        corridor=corridor,
        speeds=speeds,
        temperature=temperature,
        precipitation=precipitation,
        events=events,
        hours=hours,
        day_types=day_types,
        timestamps=stamps,
        interval_minutes=cfg.interval_minutes,
    )


class TrafficSimulator:
    """Generates a :class:`TrafficSeries` from a config and corridor."""

    def __init__(self, config: SimulationConfig | None = None, corridor: Corridor | None = None):
        self.config = config if config is not None else SimulationConfig()
        rng = np.random.default_rng(self.config.seed)
        self.corridor = corridor if corridor is not None else Corridor.gyeongbu(rng=rng)

    def run(self) -> TrafficSeries:
        """Generate the full speed field and auxiliary channels."""
        return run_speed_field(self.corridor, self.corridor, self.config)


def simulate(config: SimulationConfig | None = None, corridor: Corridor | None = None) -> TrafficSeries:
    """One-call convenience wrapper: build a simulator and run it."""
    return TrafficSimulator(config=config, corridor=corridor).run()
