"""Property suite for graph-neighbourhood windows (Issue 10's pinning tests).

Three families of invariants:

* **Layout** — the canonical BFS-ordered padded layout is deterministic,
  places every target at ``target_row``, and its real rows are exactly
  the graph's ``k_hop_neighbourhood`` on randomized ``grid_city`` and
  ``ring_and_spokes`` topologies.
* **Masking** — padding rows are exactly zero and speeds of segments
  *outside* a target's k-hop set can never leak into its windows
  (perturbing them leaves the windows bitwise unchanged).
* **Corridor reduction** — on a :func:`from_corridor` path graph the
  layout's row table is the corridor's ``window_rows`` table wherever
  the corridor window stays on the corridor, and the whole training
  path (windows, split, rollouts, fitted weights) through the one
  :class:`TrafficDataset` reproduces the corridor bitwise, pinned down
  to ``model_fingerprint``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.model import APOTS
from repro.core.zoo import model_fingerprint
from repro.data import OFF_END, FeatureConfig, TrafficDataset
from repro.data.features import build_features
from repro.data.graph_features import (
    GraphFeatureConfig,
    GraphTrafficDataset,
    GraphWindowLayout,
)
from repro.network import from_corridor, graph_window_layout, grid_city, ring_and_spokes
from repro.network.waves import simulate_network
from repro.traffic.types import Corridor, SimulationConfig

#: Randomized topologies for the property tests: (graph factory, k).
TOPOLOGIES = [
    pytest.param(lambda: grid_city(3, 3, seed=0), 1, id="grid3x3-k1"),
    pytest.param(lambda: grid_city(3, 4, seed=1), 2, id="grid3x4-k2"),
    pytest.param(lambda: grid_city(4, 4, seed=2), 2, id="grid4x4-k2"),
    pytest.param(lambda: grid_city(4, 4, seed=3), 3, id="grid4x4-k3"),
    pytest.param(lambda: ring_and_spokes(4, seed=4), 2, id="ring4-k2"),
    pytest.param(lambda: ring_and_spokes(6, seed=5), 1, id="ring6-k1"),
    pytest.param(lambda: ring_and_spokes(5, seed=6), 3, id="ring5-k3"),
]


class TestLayoutProperties:
    @pytest.mark.parametrize("factory, k", TOPOLOGIES)
    def test_rows_are_exactly_the_k_hop_sets(self, factory, k):
        graph = factory()
        layout = graph_window_layout(graph, k)
        for s in range(len(graph)):
            assert layout.valid_rows(s) == tuple(graph.k_hop_neighbourhood(s, k))

    @pytest.mark.parametrize("factory, k", TOPOLOGIES)
    def test_canonical_alignment(self, factory, k):
        # Target pinned at target_row; lower ids right-aligned below it,
        # upper ids left-aligned above it, padding only at the flanks.
        graph = factory()
        layout = graph_window_layout(graph, k)
        p = layout.target_row
        for s in range(len(graph)):
            row = layout.rows[s]
            assert row[p] == s
            lower = [t for t in row[:p] if t >= 0]
            upper = [t for t in row[p + 1 :] if t >= 0]
            assert all(t < s for t in lower) and lower == sorted(lower)
            assert all(t > s for t in upper) and upper == sorted(upper)
            # Right/left alignment: padding never interleaves real ids.
            assert list(row[:p])[: p - len(lower)] == [-1] * (p - len(lower))
            assert list(row[p + 1 + len(upper) :]) == [-1] * (
                layout.num_rows - p - 1 - len(upper)
            )

    @pytest.mark.parametrize("factory, k", TOPOLOGIES)
    def test_deterministic(self, factory, k):
        graph = factory()
        assert graph_window_layout(graph, k) == graph_window_layout(factory(), k)

    def test_rows_array_and_mask_agree(self):
        layout = graph_window_layout(grid_city(3, 3, seed=0), 2)
        assert layout.rows_array.shape == (layout.num_segments, layout.num_rows)
        for s, row in enumerate(layout.rows_array):
            assert tuple(row[row >= 0]) == layout.valid_rows(s)

    def test_validation_rejects_malformed_neighbourhoods(self):
        with pytest.raises(ValueError, match="include itself"):
            GraphWindowLayout.from_neighbourhoods([[1]], num_segments=1, k=1)
        with pytest.raises(ValueError, match="sorted and unique"):
            GraphWindowLayout.from_neighbourhoods([[1, 0], [0, 1]], num_segments=2, k=1)

    def test_validation_rejects_misplaced_target(self):
        with pytest.raises(ValueError, match="target_row"):
            GraphWindowLayout(
                num_segments=2, k=1, target_row=0, num_rows=2, rows=((1, 0), (0, 1))
            )
        with pytest.raises(ValueError, match="unknown segment"):
            GraphWindowLayout(
                num_segments=2, k=1, target_row=0, num_rows=2, rows=((0, 5), (1, -1))
            )


@pytest.fixture(scope="module")
def city():
    return grid_city(3, 3, seed=0)  # 24 segments


@pytest.fixture(scope="module")
def city_series(city):
    return simulate_network(city, SimulationConfig(num_days=1, seed=11))


class TestMaskCorrectness:
    """Padding masks never leak speeds from outside the k-hop set."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_outside_speeds_cannot_leak(self, city, city_series, k):
        config = GraphFeatureConfig(layout=graph_window_layout(city, k))
        target = city.target_index
        features = build_features(city_series, config, targets=[target])
        hood = set(city.k_hop_neighbourhood(target, k))
        outside = [s for s in range(len(city)) if s not in hood]
        assert outside  # property is vacuous otherwise
        speeds = city_series.speeds.copy()
        speeds[outside] = 1e6  # absurd values: any leak is loud
        mutated = dataclasses.replace(city_series, speeds=speeds)
        again = build_features(mutated, config, features.scalers, [target])
        assert np.array_equal(again.images, features.images)
        assert np.array_equal(again.targets, features.targets)
        assert np.array_equal(again.targets_kmh, features.targets_kmh)

    def test_padding_rows_are_exactly_zero(self, city, city_series):
        k = 2
        layout = graph_window_layout(city, k)
        config = GraphFeatureConfig(layout=layout)
        padded = [
            s for s in range(len(city)) if len(layout.valid_rows(s)) < layout.num_rows
        ]
        assert padded  # a 3x3 grid has corner segments with short hoods
        features = build_features(city_series, config, targets=padded)
        per = features.windows_per_target
        for i, s in enumerate(padded):
            rows = layout.rows_array[s]
            block = features.images[i * per : (i + 1) * per]
            assert not block[:, : layout.num_rows][:, rows < 0].any()
            # Real speed rows are scaled speeds — generically non-zero.
            assert block[:, : layout.num_rows][:, rows >= 0].any()

    def test_inside_speeds_do_change_windows(self, city, city_series):
        # The converse: perturbing an in-neighbourhood segment must show.
        k = 1
        config = GraphFeatureConfig(layout=graph_window_layout(city, k))
        target = city.target_index
        features = build_features(city_series, config, targets=[target])
        neighbour = next(
            t for t in city.k_hop_neighbourhood(target, k) if t != target
        )
        speeds = city_series.speeds.copy()
        speeds[neighbour] += 7.0
        mutated = dataclasses.replace(city_series, speeds=speeds)
        again = build_features(mutated, config, features.scalers, [target])
        assert not np.array_equal(again.images, features.images)


@pytest.fixture(scope="module")
def corridor_graph(tiny_series):
    return from_corridor(tiny_series.corridor)


@pytest.fixture(scope="module")
def graph_config(corridor_graph):
    # Same geometry as FeatureConfig(): k = m = 2, alpha = 12, beta = 1.
    return GraphFeatureConfig(layout=graph_window_layout(corridor_graph, 2))


class TestCorridorReduction:
    """`from_corridor` graphs reproduce the ±m corridor windows bitwise."""

    def test_interior_rows_are_the_corridor_window(self, tiny_series, graph_config):
        layout = graph_config.layout
        k = layout.k
        for s in range(k, tiny_series.num_segments - k):
            assert layout.rows[s] == tuple(range(s - k, s + k + 1))

    @pytest.mark.parametrize("num_segments", [5, 9, 12, 68])
    @pytest.mark.parametrize("m", [2, 3])
    def test_row_tables_agree(self, num_segments, m):
        # The corridor's table equals the from_corridor layout wherever
        # that is a segment, and is OFF_END exactly where it is padding.
        corridor = Corridor.gyeongbu(num_segments, rng=np.random.default_rng(0))
        layout = graph_window_layout(from_corridor(corridor), m).rows_array
        table = FeatureConfig(m=m).window_rows(num_segments)
        assert table.shape == layout.shape
        real = layout >= 0
        assert np.array_equal(table[real], layout[real])
        assert np.array_equal(table == OFF_END, layout == -1)

    def test_windows_bitwise_equal(self, tiny_series, tiny_dataset, graph_config):
        scalers = tiny_dataset.features.scalers
        corridor = TrafficDataset(tiny_series, FeatureConfig(), scalers=scalers).features
        graph = TrafficDataset(tiny_series, graph_config, scalers=scalers).features
        assert np.array_equal(graph.images, corridor.images)
        assert np.array_equal(graph.day_types, corridor.day_types)
        assert np.array_equal(graph.targets, corridor.targets)
        assert np.array_equal(graph.targets_kmh, corridor.targets_kmh)
        assert np.array_equal(graph.last_input_kmh, corridor.last_input_kmh)
        assert np.array_equal(graph.target_steps, corridor.target_steps)
        assert np.array_equal(graph.segment_ids, corridor.segment_ids)

    def test_dataset_surface_bitwise_equal(self, tiny_series, tiny_dataset, graph_config):
        # tiny_dataset is TrafficDataset(tiny_series, FeatureConfig(), seed=5).
        graph_ds = TrafficDataset(tiny_series, graph_config, seed=5)
        for subset in ("train", "validation", "test"):
            assert np.array_equal(graph_ds.subset(subset), tiny_dataset.subset(subset))
        indices = tiny_dataset.subset("test")[:16]
        ours, theirs = graph_ds.batch(indices), tiny_dataset.batch(indices)
        assert np.array_equal(ours.images, theirs.images)
        assert np.array_equal(ours.flat, theirs.flat)
        assert np.array_equal(ours.targets, theirs.targets)
        anchors = tiny_dataset.rollout_anchors("train")
        assert np.array_equal(graph_ds.rollout_anchors("train"), anchors)
        ours_r = graph_ds.rollout_batch(anchors[:8])
        theirs_r = tiny_dataset.rollout_batch(anchors[:8])
        assert np.array_equal(ours_r.group_images, theirs_r.group_images)
        assert np.array_equal(ours_r.condition, theirs_r.condition)

    def test_training_fingerprint_parity(self, tiny_series, tiny_dataset, graph_config,
                                         micro_preset):
        # The acceptance criterion: graph training on a from_corridor
        # layout is bitwise-identical to corridor training.
        graph_ds = TrafficDataset(tiny_series, graph_config, seed=5)
        corridor_model = APOTS(
            predictor="F", adversarial=False, features=tiny_dataset.config,
            preset=micro_preset, seed=3,
        ).fit(tiny_dataset)
        graph_model = APOTS(
            predictor="F", adversarial=False, features=graph_config,
            preset=micro_preset, seed=3,
        ).fit(graph_ds)
        assert model_fingerprint(graph_model) == model_fingerprint(corridor_model)


class TestMultiTargetDataset:
    def test_blocks_tile_without_leakage(self, city, city_series):
        config = GraphFeatureConfig(layout=graph_window_layout(city, 1))
        targets = (0, 5, 11)
        ds = TrafficDataset(city_series, config, seed=0, targets=targets)
        block = ds.features.windows_per_target
        assert len(ds.features.segment_ids) == block * len(targets)
        # Every block carries the same time-positions for every subset:
        # a test time for one target is a test time for all of them.
        for subset in ("train", "validation", "test"):
            indices = ds.subset(subset)
            first_block = indices[indices < block]
            tiled = first_block + np.arange(len(targets))[:, None] * block
            assert np.array_equal(indices, tiled.ravel())
        # Rollout groups never cross a block boundary.
        anchors = ds.rollout_anchors("train")
        if len(anchors):
            ds.rollout_batch(anchors)  # must not raise

    def test_duplicate_targets_rejected(self, city, city_series):
        config = GraphFeatureConfig(layout=graph_window_layout(city, 1))
        with pytest.raises(ValueError, match="unique"):
            build_features(city_series, config, targets=[0, 0])

    def test_layout_series_mismatch_rejected(self, city_series):
        other = graph_window_layout(grid_city(4, 4, seed=0), 1)
        with pytest.raises(ValueError, match="segments"):
            build_features(city_series, GraphFeatureConfig(layout=other), targets=[0])

    def test_model_rejects_mismatched_graph_config(self, city, city_series, micro_preset):
        config = GraphFeatureConfig(layout=graph_window_layout(city, 1))
        other = GraphFeatureConfig(layout=graph_window_layout(city, 2))
        ds = TrafficDataset(city_series, config, seed=0)
        model = APOTS(predictor="F", adversarial=False, features=other,
                      preset=micro_preset, seed=0)
        with pytest.raises(ValueError, match="feature geometry"):
            model.fit(ds)

    def test_graph_dataset_name_is_the_one_class(self):
        assert GraphTrafficDataset is TrafficDataset
