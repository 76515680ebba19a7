"""Fleet parity on a city-scale network (the ISSUE's ≥1000-segment gate).

A 16x17 grid city (1022 segments) is simulated once, and the same
observation stream is replayed into fleets sharded 1, 2 and 4 ways with
**graph-aware** shard starts from :func:`repro.network.partition_starts`.
``predict_many`` must be bitwise identical across the three layouts —
including segments inside the halo windows around every cut — or the
graph-aware partition changed serving results, which it must never do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import APOTS
from repro.core import save_model
from repro.data import TrafficDataset
from repro.data.graph_features import GraphFeatureConfig
from repro.fleet import ForecastFleet
from repro.network import (
    graph_window_layout,
    grid_city,
    partition_starts,
    simulate_network,
)
from repro.traffic.types import SimulationConfig

from tests.fleet.conftest import replay_ticks

WARM_TICKS = 15
SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def city():
    graph = grid_city(16, 17, seed=0)
    assert len(graph) >= 1000  # the ISSUE's floor
    return graph


@pytest.fixture(scope="module")
def city_series(city):
    return simulate_network(city, SimulationConfig(num_days=1, seed=2018))


@pytest.fixture(scope="module")
def city_fleets(fleet_checkpoint, city, city_series):
    fleets = [
        ForecastFleet(
            fleet_checkpoint,
            len(city),
            shards=shards,
            shard_starts=partition_starts(city, shards),
        )
        for shards in SHARD_COUNTS
    ]
    for fleet in fleets:
        replay_ticks(fleet, city_series, range(WARM_TICKS))
    yield fleets
    for fleet in fleets:
        fleet.close()


def boundary_query(city, halo: int = 3) -> list[int]:
    """Segments straddling every graph-aware cut of every layout, plus a
    coarse sweep and duplicates — the worst case for halo handling."""
    n = len(city)
    segments: list[int] = []
    for shards in SHARD_COUNTS:
        for start in partition_starts(city, shards)[1:]:
            segments.extend(
                seg for seg in range(start - halo, start + halo + 1) if 0 <= seg < n
            )
    segments.extend(range(0, n, 97))  # coarse sweep incl. segment 0
    segments.append(n - 1)
    segments.append(segments[0])  # duplicate within one batch
    return segments


class TestCityScaleParity:
    def test_graph_aware_starts_differ_from_balanced(self, city):
        # The parity claim is only interesting if the partitions are
        # actually graph-aware (not silently the balanced default).
        n = len(city)
        assert any(
            partition_starts(city, k) != tuple((i * n) // k for i in range(k))
            for k in SHARD_COUNTS[1:]
        )

    def test_predict_many_bitwise_identical_across_layouts(self, city, city_fleets):
        single, two, four = city_fleets
        query = boundary_query(city)
        reference = single.predict_many(query)
        assert two.predict_many(query) == reference
        assert four.predict_many(query) == reference
        assert [f.segment_id for f in reference] == query
        # Interior segments answer from the model, not a degraded path.
        assert {f.source for f in reference} >= {"model"}

    def test_parity_survives_stream_advance(self, city, city_fleets, city_series):
        for fleet in city_fleets:
            replay_ticks(fleet, city_series, range(WARM_TICKS, WARM_TICKS + 2))
        single, two, four = city_fleets
        query = boundary_query(city)
        reference = single.predict_many(query, use_cache=False)
        assert two.predict_many(query, use_cache=False) == reference
        assert four.predict_many(query, use_cache=False) == reference

    def test_shard_map_ranges_tile_the_city(self, city, city_fleets):
        for fleet, shards in zip(city_fleets, SHARD_COUNTS):
            ranges = [fleet.shard_map.owned_range(k) for k in range(shards)]
            assert ranges[0][0] == 0 and ranges[-1][1] == len(city)
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo


# ---------------------------------------------------------------------------
# Graph-window fleets: the same parity gate with k-hop neighbourhood
# features, whose halo is *non-contiguous* — the covering shard set of a
# segment near a cut is computed from the layout, not from ±m arithmetic.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def graph_checkpoint(tmp_path_factory, city, city_series, micro_preset) -> str:
    """A zoo checkpoint whose features carry the city's k=2 graph layout."""
    config = GraphFeatureConfig(layout=graph_window_layout(city, 2))
    dataset = TrafficDataset(city_series, config, seed=0)
    model = APOTS(predictor="F", adversarial=False, features=config,
                  preset=micro_preset, seed=0)
    model.fit(dataset)
    directory = tmp_path_factory.mktemp("graph-checkpoint")
    save_model(model, directory)
    return str(directory)


@pytest.fixture(scope="module")
def graph_fleets(graph_checkpoint, city, city_series):
    fleets = [
        ForecastFleet(
            graph_checkpoint,
            len(city),
            shards=shards,
            shard_starts=partition_starts(city, shards),
        )
        for shards in SHARD_COUNTS
    ]
    for fleet in fleets:
        replay_ticks(fleet, city_series, range(WARM_TICKS))
    yield fleets
    for fleet in fleets:
        fleet.close()


class TestGraphWindowParity:
    def test_checkpoint_round_trips_the_layout(self, graph_fleets, city):
        for fleet in graph_fleets:
            layout = fleet.features.layout
            assert layout.num_segments == len(city)
            assert layout.k == 2

    def test_predict_many_bitwise_identical_across_layouts(self, city, graph_fleets):
        single, two, four = graph_fleets
        query = boundary_query(city)
        reference = single.predict_many(query)
        assert two.predict_many(query) == reference
        assert four.predict_many(query) == reference
        assert [f.segment_id for f in reference] == query
        # A graph layout has no corridor-edge exclusion: with every
        # stream warm, *all* answers come from the model.
        assert {f.source for f in reference} == {"model"}

    def test_parity_survives_stream_advance(self, city, graph_fleets, city_series):
        for fleet in graph_fleets:
            replay_ticks(fleet, city_series, range(WARM_TICKS, WARM_TICKS + 2))
        single, two, four = graph_fleets
        query = boundary_query(city)
        reference = single.predict_many(query, use_cache=False)
        assert two.predict_many(query, use_cache=False) == reference
        assert four.predict_many(query, use_cache=False) == reference

    def test_sparse_cached_calls_with_fills_match_one_shard(self, city, graph_fleets, city_series):
        # Cached 2-segment calls: each replica forward carries fill rows,
        # and later calls read those forecasts instead of forwarding.
        for fleet in graph_fleets:
            replay_ticks(fleet, city_series, [WARM_TICKS + 2])
        single, two, four = graph_fleets
        calls = np.random.default_rng(7).permutation(len(city))[:80].reshape(40, 2).tolist()
        reference = [single.predict_many(call, use_cache=False) for call in calls]
        for fleet in (two, four):
            assert [fleet.predict_many(call) for call in calls] == reference
            for replica in fleet.snapshot()["replicas"]:
                assert replica["fill"]["served"] > 0
