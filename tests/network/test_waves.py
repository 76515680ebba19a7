"""Tests for :mod:`repro.network.waves` — the graph entry point to the engine.

The two load-bearing pins: (1) a ``from_corridor`` graph reproduces the
corridor simulator **bitwise**, and (2) network runs are deterministic
(same seed -> identical arrays; a fingerprint pin catches accidental
changes to the draw order).
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.network import stress_scenario
from repro.network import (
    IncidentCascade,
    NetworkSimulator,
    Scenario,
    WeatherFront,
    from_corridor,
    gravity_od_matrix,
    grid_city,
    segment_demand_weights,
    simulate_network,
    zones_from_graph,
)
from repro.traffic import Corridor, simulate
from repro.traffic.incidents import Incident, incident_masks
from repro.traffic.simulator import QUEUE_MAX, SPILL_ONSET, _queue_spillback
from repro.traffic.types import SimulationConfig


@pytest.fixture(scope="module")
def config():
    return SimulationConfig(num_days=2, seed=11)


@pytest.fixture(scope="module")
def grid_series(config):
    return simulate_network(grid_city(4, 4, seed=0), config)


class TestCorridorInvariant:
    def test_from_corridor_bitwise_identical(self, config):
        corridor = Corridor.gyeongbu(rng=np.random.default_rng(config.seed))
        reference = simulate(config, corridor)
        network = NetworkSimulator(from_corridor(corridor), config).run()
        np.testing.assert_array_equal(reference.speeds, network.speeds)
        np.testing.assert_array_equal(reference.events, network.events)
        np.testing.assert_array_equal(reference.precipitation, network.precipitation)
        assert network.corridor is corridor

    def test_scenario_breaks_delegation_but_not_shape(self, config):
        """A scenario leaves the plain-corridor case: spillback and the
        schedule run, so the field differs but keeps its shape."""
        corridor = Corridor.gyeongbu(rng=np.random.default_rng(config.seed))
        graph = from_corridor(corridor)
        scenario = Scenario("front", (WeatherFront(start_step=50, duration_steps=40),))
        series = NetworkSimulator(graph, config, scenario=scenario).run()
        reference = simulate(config, corridor)
        assert series.speeds.shape == reference.speeds.shape
        assert not np.array_equal(series.speeds, reference.speeds)


class TestDeterminism:
    def test_same_seed_same_field(self, config, grid_series):
        again = simulate_network(grid_city(4, 4, seed=0), config)
        np.testing.assert_array_equal(grid_series.speeds, again.speeds)
        np.testing.assert_array_equal(grid_series.events, again.events)

    def test_seed_changes_field(self, config, grid_series):
        other = simulate_network(grid_city(4, 4, seed=0), SimulationConfig(num_days=2, seed=12))
        assert not np.array_equal(grid_series.speeds, other.speeds)

    def test_fingerprint_pin(self):
        """Bitwise determinism pin: any change to the draw order or the
        physics shows up here before it silently invalidates every
        downstream fingerprint."""
        series = simulate_network(
            grid_city(3, 3, seed=0), SimulationConfig(num_days=1, seed=2018)
        )
        fingerprint = hashlib.sha256(series.speeds.tobytes()).hexdigest()
        assert fingerprint == FINGERPRINT_3X3_1DAY


def _digest(series) -> str:
    h = hashlib.blake2b(digest_size=12)
    for array in (series.speeds, series.events, series.precipitation, series.temperature):
        h.update(array.tobytes())
    return h.hexdigest()


class TestEngineDigests:
    """Literal pins of both entry points, measured before the corridor
    and the graph shared one engine."""

    def test_default_corridor(self):
        series = simulate(SimulationConfig(num_days=3, seed=2018))
        assert _digest(series) == "65bc9c29ce247ebd45f075a6"

    def test_long_corridor(self):
        series = simulate(
            SimulationConfig(num_days=2, seed=7), Corridor.gyeongbu(num_segments=68)
        )
        assert _digest(series) == "c2758a59990db7972aa21a60"

    def test_grid(self, grid_series):
        assert _digest(grid_series) == "1949921f3211049300208ceb"

    def test_grid_with_od_weights_and_scenario(self, config):
        graph = grid_city(4, 4, seed=0)
        weights = segment_demand_weights(graph, gravity_od_matrix(zones_from_graph(graph, seed=0)))
        series = simulate_network(
            graph,
            config,
            demand_weights=weights,
            scenario=stress_scenario(graph, config.total_steps),
        )
        assert _digest(series) == "3410dc7ec84031531c1b8a74"


class TestSeriesShape:
    def test_traffic_series_contract(self, grid_series, config):
        assert grid_series.num_segments == 48
        assert grid_series.num_steps == config.num_days * config.steps_per_day
        assert grid_series.speeds.shape == (48, grid_series.num_steps)
        assert grid_series.temperature.shape == (grid_series.num_steps,)
        assert grid_series.day_types.shape == (grid_series.num_steps, 4)
        assert (grid_series.speeds >= config.min_speed_kmh).all()
        assert (grid_series.speeds <= config.max_speed_kmh).all()

    def test_rush_hour_slower_than_night(self, grid_series):
        weekday = grid_series.day_types[:, 0] == 1
        night = weekday & (grid_series.hours == 3)
        morning = weekday & (grid_series.hours == 8)
        assert grid_series.speeds[:, morning].mean() < grid_series.speeds[:, night].mean()


class TestDemandWeights:
    def test_hot_segments_run_slower(self, config):
        graph = grid_city(4, 4, seed=0)
        weights = np.ones(len(graph))
        hot, cold = 10, 40
        weights[hot], weights[cold] = 1.6, 0.6
        series = simulate_network(graph, config, demand_weights=weights)
        flat = simulate_network(graph, config)
        assert series.speeds[hot].mean() < flat.speeds[hot].mean()
        assert series.speeds[cold].mean() > flat.speeds[cold].mean()

    def test_bad_weights_rejected(self, config):
        graph = grid_city(4, 4, seed=0)
        with pytest.raises(ValueError, match="demand_weights must be"):
            NetworkSimulator(graph, config, demand_weights=np.ones(3))
        with pytest.raises(ValueError, match="positive"):
            NetworkSimulator(graph, config, demand_weights=np.zeros(len(graph)))


class TestScenarioCausality:
    def test_scenario_slows_hit_segment_only_through_schedule(self, config):
        """Baseline and scenario share every random draw, so deltas are
        causal: the incident segment slows during its window."""
        graph = grid_city(4, 4, seed=0)
        seed_segment = graph.target_index
        scenario = Scenario(
            "incident",
            (IncidentCascade(segment=seed_segment, start_step=100, severity=0.35,
                             duration_steps=24, cascade_depth=0),),
        )
        baseline = simulate_network(graph, config)
        hit = simulate_network(graph, config, scenario=scenario)
        window = slice(100, 124)
        assert hit.speeds[seed_segment, window].mean() < baseline.speeds[
            seed_segment, window
        ].mean()
        # Scenario event flags land in the series' event channel.
        assert hit.events[seed_segment, window].all()
        # Far-in-time columns agree closely (same draws; only the
        # temporal kernel and spillback memory couple neighbours).
        assert abs(hit.speeds[:, :90] - baseline.speeds[:, :90]).max() < 1e-9

    def test_weather_front_feeds_precipitation_channel(self, config):
        graph = grid_city(4, 4, seed=0)
        scenario = Scenario("w", (WeatherFront(start_step=40, duration_steps=30),))
        baseline = simulate_network(graph, config)
        wet = simulate_network(graph, config, scenario=scenario)
        delta = wet.precipitation - baseline.precipitation
        assert (delta[40:70] > 0).all()
        np.testing.assert_allclose(delta[:40], 0.0)


class TestGraphIncidentMasks:
    def test_path_graph_matches_decay_power(self):
        corridor = Corridor.gyeongbu(num_segments=6, rng=np.random.default_rng(0))
        graph = from_corridor(corridor)
        incident = Incident(segment=4, start_step=10, duration_steps=6,
                            recovery_steps=4, severity=0.5, kind="accident")
        decay, delay = 0.6, 2
        factor, flags = incident_masks(graph, [incident], 60, decay, delay)
        # Depth d hits segment 4-d at start + d*delay with damping decay**d.
        for depth in range(3):
            segment = 4 - depth
            start = 10 + depth * delay
            expected = 1.0 - decay**depth * (1.0 - 0.5)
            assert factor[segment, start] == pytest.approx(expected)
            assert factor[segment, start - 1] == 1.0
        # Only the incident segment carries the event flag.
        assert flags[4, 10:16].all() and flags.sum() == 6

    def test_merge_splits_the_wave(self, grid):
        seed = grid.target_index
        ups = grid.upstream_of(seed)
        assert len(ups) > 1  # central segment: a real merge
        incident = Incident(segment=seed, start_step=5, duration_steps=4,
                            recovery_steps=2, severity=0.5, kind="accident")
        factor, _ = incident_masks(grid, [incident], 40, 0.7, 1)
        share = 0.7 / len(ups)
        for up in ups:
            assert factor[up, 6] == pytest.approx(1.0 - share * 0.5)


class TestQueueSpillback:
    def test_jam_spills_upstream_over_time(self):
        """A hard jam on one segment drags its upstream feeders down."""
        graph = grid_city(3, 3, seed=0)
        free_flow = np.array([s.free_flow_kmh for s in graph.segments])
        steps = 30
        speeds = np.tile(free_flow[:, None], (1, steps)).astype(float)
        jammed = graph.target_index
        speeds[jammed, :] = free_flow[jammed] * (1.0 - SPILL_ONSET - 0.3)
        out = _queue_spillback(graph, speeds.copy(), free_flow)
        ups = graph.upstream_of(jammed)
        for up in ups:
            assert out[up, steps - 1] < free_flow[up]  # queue reached upstream
            # The queue is AR(1): the drag deepens as the jam persists.
            assert out[up, steps - 1] < out[up, 0]
        # The reduction is bounded by the queue cap.
        assert (out >= speeds * (1.0 - QUEUE_MAX) - 1e-9).all()

    def test_free_flow_is_untouched(self):
        graph = grid_city(3, 3, seed=0)
        free_flow = np.array([s.free_flow_kmh for s in graph.segments])
        speeds = np.tile(free_flow[:, None], (1, 10)).astype(float)
        out = _queue_spillback(graph, speeds.copy(), free_flow)
        np.testing.assert_array_equal(out, speeds)


# Pinned by test_fingerprint_pin; regenerate with:
#   PYTHONPATH=src python - <<'EOF'
#   import hashlib
#   from repro.network import grid_city, simulate_network
#   from repro.traffic.types import SimulationConfig
#   s = simulate_network(grid_city(3, 3, seed=0), SimulationConfig(num_days=1, seed=2018))
#   print(hashlib.sha256(s.speeds.tobytes()).hexdigest())
#   EOF
FINGERPRINT_3X3_1DAY = "63294e8a0d62c94944441bd879bff417b96a48b85d0361d96770bc902644fb71"
