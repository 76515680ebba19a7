"""Tests for corridor datatypes and validation."""

import datetime as dt

import numpy as np
import pytest

from repro.traffic import Corridor, RoadSegment, SimulationConfig, TrafficSeries


def segment(i=0, **overrides):
    defaults = dict(
        segment_id=i, name=f"s{i}", length_km=2.0, free_flow_kmh=100.0, capacity_vph=4000.0
    )
    defaults.update(overrides)
    return RoadSegment(**defaults)


class TestRoadSegment:
    def test_valid(self):
        seg = segment()
        assert seg.free_flow_kmh == 100.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"length_km": 0.0},
            {"length_km": -1.0},
            {"free_flow_kmh": 20.0},
            {"free_flow_kmh": 200.0},
            {"capacity_vph": 0.0},
        ],
    )
    def test_invalid(self, overrides):
        with pytest.raises(ValueError):
            segment(**overrides)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            segment().length_km = 5.0


class TestCorridor:
    def test_gyeongbu_default(self):
        corridor = Corridor.gyeongbu(rng=np.random.default_rng(0))
        assert len(corridor) == 9
        assert corridor.target_index == 4
        assert corridor.target is corridor.segments[4]

    def test_needs_segments(self):
        with pytest.raises(ValueError):
            Corridor(segments=(), target_index=0)

    def test_target_index_bounds(self):
        with pytest.raises(ValueError):
            Corridor(segments=(segment(),), target_index=1)


class TestSimulationConfig:
    def test_defaults_match_paper(self):
        config = SimulationConfig()
        assert config.num_days == 122
        assert config.interval_minutes == 5
        assert config.steps_per_day == 288
        assert config.total_steps == 122 * 288

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_days": 0},
            {"interval_minutes": 7},
            {"base_demand": 0.0},
            {"base_demand": 1.5},
            {"min_speed_kmh": 0.0},
            {"min_speed_kmh": 50.0, "max_speed_kmh": 40.0},
        ],
    )
    def test_invalid(self, overrides):
        with pytest.raises(ValueError):
            SimulationConfig(**overrides)


class TestTrafficSeries:
    def _series(self, t=10, segments=3):
        corridor = Corridor.gyeongbu(num_segments=segments, rng=np.random.default_rng(0))
        base = dt.datetime(2018, 7, 1)
        return TrafficSeries(
            corridor=corridor,
            speeds=np.full((segments, t), 80.0),
            temperature=np.zeros(t),
            precipitation=np.zeros(t),
            events=np.zeros((segments, t)),
            hours=np.zeros(t),
            day_types=np.zeros((t, 4)),
            timestamps=[base + dt.timedelta(minutes=5 * i) for i in range(t)],
        )

    def test_properties(self):
        series = self._series()
        assert series.num_steps == 10
        assert series.num_segments == 3
        np.testing.assert_allclose(series.target_speeds(), 80.0)

    def test_misaligned_rejected(self):
        series = self._series()
        with pytest.raises(ValueError, match="aligned"):
            TrafficSeries(
                corridor=series.corridor,
                speeds=series.speeds,
                temperature=series.temperature[:-1],
                precipitation=series.precipitation,
                events=series.events,
                hours=series.hours,
                day_types=series.day_types,
                timestamps=series.timestamps,
            )

    def test_slice_steps(self):
        series = self._series(t=20)
        sliced = series.slice_steps(5, 15)
        assert sliced.num_steps == 10
        assert sliced.timestamps[0] == series.timestamps[5]
        # The slice owns its data.
        sliced.speeds[:] = 0.0
        assert series.speeds.min() == 80.0
