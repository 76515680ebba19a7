"""Tests for travel-time integration."""

import numpy as np
import pytest

from repro.routing import (
    segment_times_minutes,
    traverse_path_minutes,
    traverse_time_minutes,
)
from repro.traffic import Corridor


@pytest.fixture(scope="module")
def corridor():
    return Corridor.gyeongbu(num_segments=5, rng=np.random.default_rng(0))


class TestSegmentTimes:
    def test_basic_arithmetic(self):
        times = segment_times_minutes(np.array([60.0]), np.array([60.0]))
        np.testing.assert_allclose(times, [60.0])  # 60 km at 60 km/h

    def test_floor_prevents_infinity(self):
        times = segment_times_minutes(np.array([1.0]), np.array([0.0]))
        assert np.isfinite(times[0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            segment_times_minutes(np.ones(2), np.ones(3))


class TestTraverse:
    def test_constant_field_matches_sum(self, corridor):
        field = np.full((5, 100), 100.0)
        total_km = sum(s.length_km for s in corridor.segments)
        expected = total_km / 100.0 * 60.0
        assert traverse_time_minutes(corridor, field, 0) == pytest.approx(expected)

    def test_slower_field_takes_longer(self, corridor):
        fast = np.full((5, 100), 100.0)
        slow = np.full((5, 100), 40.0)
        assert traverse_time_minutes(corridor, slow, 0) > traverse_time_minutes(corridor, fast, 0)

    def test_time_expansion_sees_future_columns(self, corridor):
        """Congestion that appears after departure still affects arrival."""
        field = np.full((5, 100), 100.0)
        # Segment 4 collapses from step 1 onwards; a vehicle departing at
        # step 0 reaches segment 4 minutes later and must see the jam.
        field[4, 1:] = 5.0
        jammed = traverse_time_minutes(corridor, field, 0)
        free = traverse_time_minutes(corridor, np.full((5, 100), 100.0), 0)
        assert jammed > free

    def test_partial_range(self, corridor):
        field = np.full((5, 50), 80.0)
        partial = traverse_time_minutes(corridor, field, 0, start_segment=1, end_segment=2)
        expected = sum(corridor.segments[i].length_km for i in (1, 2)) / 80.0 * 60.0
        assert partial == pytest.approx(expected)

    def test_start_step_out_of_range(self, corridor):
        with pytest.raises(ValueError):
            traverse_time_minutes(corridor, np.ones((5, 10)), 10)

    def test_bad_field_shape(self, corridor):
        with pytest.raises(ValueError):
            traverse_time_minutes(corridor, np.ones((3, 10)), 0)

    def test_bad_segment_range(self, corridor):
        with pytest.raises(ValueError):
            traverse_time_minutes(corridor, np.ones((5, 10)), 0, start_segment=3, end_segment=1)


class TestTraversePath:
    """The explicit-path general form and its corridor regression pin."""

    def lengths(self, corridor):
        return np.array([s.length_km for s in corridor.segments])

    def test_corridor_reduces_to_contiguous_path(self, corridor):
        """Regression pin: ``traverse_time_minutes`` must stay exactly the
        contiguous-range special case of ``traverse_path_minutes``."""
        rng = np.random.default_rng(4)
        field = rng.uniform(20.0, 100.0, size=(5, 60))
        for start_step in (0, 7, 40):
            for lo, hi in ((0, 4), (1, 3), (2, 2)):
                assert traverse_path_minutes(
                    self.lengths(corridor), field, range(lo, hi + 1), start_step
                ) == traverse_time_minutes(
                    corridor, field, start_step, start_segment=lo, end_segment=hi
                )

    def test_arbitrary_path_order_and_revisits(self, corridor):
        # A network route may visit rows in any order, even twice
        # (a loop); each visit reads the speed at its arrival step.
        field = np.full((5, 50), 60.0)
        path = [3, 1, 4, 1]
        expected = sum(self.lengths(corridor)[path]) / 60.0 * 60.0
        assert traverse_path_minutes(
            self.lengths(corridor), field, path, 0
        ) == pytest.approx(expected)

    def test_validation(self, corridor):
        lengths = self.lengths(corridor)
        field = np.ones((5, 10))
        with pytest.raises(ValueError, match="at least one segment"):
            traverse_path_minutes(lengths, field, [], 0)
        with pytest.raises(ValueError, match="outside field"):
            traverse_path_minutes(lengths, field, [5], 0)
        with pytest.raises(ValueError, match="start_step"):
            traverse_path_minutes(lengths, field, [0], 10)

    def test_network_route_through_grid(self):
        from repro.network import grid_city

        graph = grid_city(3, 3, seed=0)
        path = [0]
        while len(path) < 5:
            path.append(graph.downstream_of(path[-1])[0])
        lengths = np.array([s.length_km for s in graph.segments])
        field = np.full((len(graph), 30), 50.0)
        expected = sum(lengths[path]) / 50.0 * 60.0
        assert traverse_path_minutes(lengths, field, path, 0) == pytest.approx(expected)


class TestCorridorTravelTimes:
    def test_on_simulated_series(self, tiny_series):
        for step in (0, 100, 500):
            assert traverse_time_minutes(tiny_series.corridor, tiny_series.speeds, step) > 0

    def test_rush_hour_slower_than_night(self, tiny_series):
        hours = tiny_series.hours
        weekday = tiny_series.day_types[:, 0] == 1

        def mean_time(steps):
            corridor, speeds = tiny_series.corridor, tiny_series.speeds
            return np.mean([traverse_time_minutes(corridor, speeds, int(s)) for s in steps])

        night = np.flatnonzero(weekday & (hours == 3))[:5]
        morning = np.flatnonzero(weekday & (hours == 8))[:5]
        assert mean_time(morning) > mean_time(night)

    def test_custom_field(self, tiny_series):
        constant = np.full_like(tiny_series.speeds, 100.0)
        time = traverse_time_minutes(tiny_series.corridor, constant, 0)
        total_km = sum(s.length_km for s in tiny_series.corridor.segments)
        assert time == pytest.approx(total_km / 100.0 * 60.0)
