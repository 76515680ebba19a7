"""Tests for the corridor speed-field simulator."""

import warnings

import numpy as np
import pytest

from repro.traffic import Corridor, SimulationConfig, simulate
from repro.traffic.simulator import congestion_speed_factor, demand_profile


@pytest.fixture(scope="module")
def series():
    return simulate(SimulationConfig(num_days=14, seed=7))


class TestShapesAndBounds:
    def test_shapes(self, series):
        t = 14 * 288
        assert series.speeds.shape == (9, t)
        assert series.num_steps == t
        assert len(series.timestamps) == t

    def test_speed_bounds(self, series):
        config = SimulationConfig(num_days=14, seed=7)
        assert series.speeds.min() >= config.min_speed_kmh
        assert series.speeds.max() <= config.max_speed_kmh

    def test_day_types_are_bits(self, series):
        assert set(np.unique(series.day_types)).issubset({0.0, 1.0})

    def test_hours_cycle(self, series):
        assert series.hours.min() == 0
        assert series.hours.max() == 23


class TestSingleSegment:
    def test_one_segment_corridor_is_finite_and_silent(self):
        """A lone segment pulls toward itself, not toward an empty mean."""
        config = SimulationConfig(num_days=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = simulate(config, Corridor.gyeongbu(num_segments=1))
        assert series.speeds.shape == (1, 2 * 288)
        assert np.isfinite(series.speeds).all()
        assert series.speeds.min() >= config.min_speed_kmh
        assert series.speeds.max() <= config.max_speed_kmh


class TestDeterminism:
    def test_same_seed_same_series(self):
        a = simulate(SimulationConfig(num_days=3, seed=11))
        b = simulate(SimulationConfig(num_days=3, seed=11))
        np.testing.assert_allclose(a.speeds, b.speeds)
        np.testing.assert_allclose(a.precipitation, b.precipitation)

    def test_different_seed_differs(self):
        a = simulate(SimulationConfig(num_days=3, seed=11))
        b = simulate(SimulationConfig(num_days=3, seed=12))
        assert not np.allclose(a.speeds, b.speeds)


class TestTrafficPatterns:
    def test_weekday_rush_hour_dip(self, series):
        speeds = series.target_speeds()
        weekday = series.day_types[:, 0] == 1
        night = weekday & (series.hours == 3)
        morning = weekday & (series.hours == 8)
        assert speeds[morning].mean() < speeds[night].mean() - 20.0

    def test_offday_lighter_morning_than_weekday(self, series):
        speeds = series.target_speeds()
        weekday = series.day_types[:, 0] == 1
        morning = series.hours == 8
        weekday_morning = speeds[morning & weekday].mean()
        offday_morning = speeds[morning & ~weekday].mean()
        assert offday_morning > weekday_morning + 10.0

    def test_rain_slows_traffic(self):
        # Compare the same config with rain coupling on vs off.
        wet = simulate(SimulationConfig(num_days=20, seed=5, rain_speed_factor=0.6))
        dry = simulate(SimulationConfig(num_days=20, seed=5, rain_speed_factor=1.0))
        raining = wet.precipitation > 0.3
        if raining.sum() > 50:
            gap = dry.target_speeds()[raining].mean() - wet.target_speeds()[raining].mean()
            assert gap > 2.0

    def test_abrupt_changes_exist_but_rare(self, series):
        speeds = series.target_speeds()
        rel = (speeds[:-1] - speeds[1:]) / speeds[:-1]
        dec_frac = float((rel >= 0.3).mean())
        acc_frac = float((rel <= -0.3).mean())
        assert 0.0005 < dec_frac < 0.05
        assert 0.0005 < acc_frac < 0.05

    def test_spatial_correlation_of_neighbours(self, series):
        a = series.speeds[4]
        b = series.speeds[5]
        far = series.speeds[0]
        corr_near = np.corrcoef(a, b)[0, 1]
        corr_far = np.corrcoef(a, far)[0, 1]
        assert corr_near > 0.7
        assert corr_near > corr_far

    def test_events_present(self, series):
        assert series.events.sum() > 0
        assert set(np.unique(series.events)).issubset({0.0, 1.0})


class TestDemandModel:
    def test_profile_peaks_at_rush_hours(self):
        config = SimulationConfig(num_days=1, seed=0)
        hours = np.linspace(0, 24, 289)[:-1]
        profile = demand_profile(config, hours, weekday=True, holiday=False)
        morning = profile[(hours > 7) & (hours < 9)].max()
        midnight = profile[hours < 1].mean()
        assert morning > midnight * 2

    def test_holiday_profile_flatter(self):
        config = SimulationConfig(num_days=1, seed=0)
        hours = np.linspace(0, 24, 289)[:-1]
        weekday = demand_profile(config, hours, weekday=True, holiday=False)
        holiday = demand_profile(config, hours, weekday=False, holiday=True)
        assert holiday.max() < weekday.max()

    def test_congestion_factor_monotone_decreasing(self):
        config = SimulationConfig(num_days=1, seed=0)
        demand = np.linspace(0.0, 1.2, 50)
        factor = congestion_speed_factor(config, demand)
        assert np.all(np.diff(factor) < 0)
        assert factor[0] > 0.95
        assert factor[-1] < 0.5
