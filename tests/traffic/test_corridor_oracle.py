"""The one speed-field engine against a frozen copy of the old corridor engine.

The corridor used to have its own engine: a per-segment loop body with
``seg - 1`` index arithmetic for incidents and flash congestion and
``seg ± 1`` for smoothing.  Both entry points now run the graph engine
over a road's adjacency, and a corridor is a path.  The copy below is
that retired corridor engine, kept verbatim as the oracle: on every
corridor of two or more segments the engine must reproduce it bit for
bit in every channel.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import Corridor, SimulationConfig, simulate
from repro.traffic.calendar import day_type_flags, is_weekend, timeline
from repro.traffic.incidents import sample_incidents
from repro.traffic.simulator import congestion_speed_factor, demand_profile
from repro.traffic.weather import WeatherModel


def _oracle_incident_masks(incidents, num_segments, total_steps, upstream_decay, delay_steps):
    factor = np.ones((num_segments, total_steps))
    flags = np.zeros((num_segments, total_steps))

    for incident in incidents:
        profile_len = incident.duration_steps + incident.recovery_steps
        profile = np.ones(profile_len)
        profile[: incident.duration_steps] = incident.severity
        ramp = np.linspace(incident.severity, 1.0, incident.recovery_steps + 1)[1:]
        profile[incident.duration_steps :] = ramp

        reach = 2
        for offset in range(0, reach + 1):
            segment = incident.segment - offset
            if segment < 0:
                break
            damping = upstream_decay**offset
            start = incident.start_step + offset * delay_steps
            stop = min(start + profile_len, total_steps)
            if start >= total_steps:
                continue
            segment_profile = 1.0 - damping * (1.0 - profile[: stop - start])
            factor[segment, start:stop] = np.minimum(factor[segment, start:stop], segment_profile)

        active_stop = min(incident.end_step, total_steps)
        if incident.start_step < total_steps:
            flags[incident.segment, incident.start_step : active_stop] = 1.0

    return factor, flags


def _oracle_flash_congestion(cfg, corridor, demand, num_segments, total, rng):
    factor = np.ones((num_segments, total))
    expected = cfg.flash_rate_per_day * cfg.num_days
    count = rng.poisson(expected)
    dense_steps = np.flatnonzero(demand >= cfg.flash_demand_threshold)
    if dense_steps.size == 0 or count == 0:
        return factor
    starts = rng.choice(dense_steps, size=count)
    for start in starts:
        if rng.random() < cfg.flash_target_bias:
            seg = corridor.target_index
        else:
            seg = int(rng.integers(0, num_segments))
        duration = int(
            rng.integers(cfg.flash_duration_steps_low, cfg.flash_duration_steps_high + 1)
        )
        severity = float(rng.uniform(cfg.flash_severity_low, cfg.flash_severity_high))
        stop = min(start + duration, total)
        factor[seg, start:stop] = np.minimum(factor[seg, start:stop], severity)
        if seg - 1 >= 0 and start + 1 < total:
            neighbour_stop = min(stop + 1, total)
            damped = 1.0 - 0.45 * (1.0 - severity)
            factor[seg - 1, start + 1 : neighbour_stop] = np.minimum(
                factor[seg - 1, start + 1 : neighbour_stop], damped
            )
    return factor


def _oracle_run(cfg: SimulationConfig, corridor: Corridor):
    """The retired ``TrafficSimulator.run``, frozen."""
    rng = np.random.default_rng(cfg.seed + 1)
    stamps = timeline(cfg.start_date, cfg.num_days, cfg.interval_minutes)
    total = len(stamps)
    num_segments = len(corridor)

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

    weather = WeatherModel(interval_minutes=cfg.interval_minutes)
    temperature, precipitation = weather.generate(stamps, rng)

    demand = np.empty(total)
    for day_index in range(cfg.num_days):
        sl = slice(day_index * steps_per_day, (day_index + 1) * steps_per_day)
        weekday = bool(weekday_mask[sl][0])
        holiday = bool(holiday_mask[sl][0]) and not is_weekend(
            stamps[day_index * steps_per_day].date()
        )
        is_off = not weekday
        demand[sl] = demand_profile(cfg, hour_fraction[sl], weekday=not is_off, holiday=holiday)

    rain_intensity = np.clip(precipitation / 1.0, 0.0, 1.0)
    demand = demand + cfg.rain_demand_boost * rain_intensity

    noise = np.empty(total)
    level = 0.0
    for i in range(total):
        level = cfg.demand_noise_rho * level + rng.normal(0.0, cfg.demand_noise_std)
        noise[i] = level
    demand = np.clip(demand + noise, 0.02, 1.2)

    segment_bias = rng.normal(0.0, 0.03, size=num_segments)

    incidents = sample_incidents(cfg, num_segments, rng, corridor.target_index)
    incident_factor, event_flags = _oracle_incident_masks(
        incidents,
        num_segments,
        total,
        upstream_decay=cfg.upstream_propagation_decay,
        delay_steps=cfg.propagation_delay_steps,
    )

    rain_factor = 1.0 - (1.0 - cfg.rain_speed_factor) * rain_intensity
    flash_factor = _oracle_flash_congestion(cfg, corridor, demand, num_segments, total, rng)

    free_flow = np.array([s.free_flow_kmh for s in corridor.segments])
    speeds = np.empty((num_segments, total))
    for seg in range(num_segments):
        seg_demand = np.clip(demand + segment_bias[seg], 0.02, 1.2)
        factor = congestion_speed_factor(cfg, seg_demand)
        speeds[seg] = free_flow[seg] * factor * rain_factor * incident_factor[seg] * flash_factor[seg]

    smoothed = speeds.copy()
    for seg in range(num_segments):
        neighbours = [s for s in (seg - 1, seg + 1) if 0 <= s < num_segments]
        mean_neighbour = np.mean([speeds[s] for s in neighbours], axis=0)
        smoothed[seg] = 0.82 * speeds[seg] + 0.18 * mean_neighbour
    speeds = smoothed

    for seg in range(num_segments):
        level = 0.0
        ar_noise = np.empty(total)
        innovations = rng.normal(0.0, cfg.speed_noise_std, size=total)
        for i in range(total):
            level = cfg.speed_noise_rho * level + innovations[i]
            ar_noise[i] = level
        speeds[seg] = speeds[seg] + ar_noise

    kernel = np.array([0.08, 0.84, 0.08])
    for seg in range(num_segments):
        padded = np.pad(speeds[seg], 1, mode="edge")
        speeds[seg] = np.convolve(padded, kernel, mode="valid")

    speeds = np.clip(speeds, cfg.min_speed_kmh, cfg.max_speed_kmh)
    return {
        "speeds": speeds,
        "events": event_flags,
        "temperature": temperature,
        "precipitation": precipitation,
        "hours": hours,
        "day_types": day_types,
    }


@settings(max_examples=30, deadline=None)
@given(
    num_segments=st.integers(2, 70),
    seed=st.integers(0, 2**16),
    num_days=st.integers(1, 7),
)
def test_engine_matches_frozen_corridor_engine(num_segments, seed, num_days):
    config = SimulationConfig(num_days=num_days, seed=seed)
    corridor = Corridor.gyeongbu(num_segments=num_segments, rng=np.random.default_rng(seed))
    series = simulate(config, corridor)
    reference = _oracle_run(config, corridor)
    for name, expected in reference.items():
        np.testing.assert_array_equal(getattr(series, name), expected, err_msg=name)
    assert series.corridor is corridor
