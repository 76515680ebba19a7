"""Graph-window serving: store parity with the offline pipeline, graph
readiness semantics, and end-to-end service forecasts on a road graph.

The corridor store excludes edge segments (they lack ±m neighbours); a
graph layout has no edge condition — padding rows absorb short
neighbourhoods — so *every* segment of the city must be model-servable,
and its streamed window must equal :func:`build_features` bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import APOTS
from repro.data import TrafficDataset
from repro.data.features import build_features, fit_scalers
from repro.data.graph_features import GraphFeatureConfig
from repro.network import graph_window_layout, grid_city
from repro.network.waves import simulate_network
from repro.serving import ForecastService, IncompleteWindowError, SegmentStateStore
from repro.traffic.types import SimulationConfig

from tests.serving.conftest import replay


@pytest.fixture(scope="module")
def city():
    return grid_city(3, 3, seed=0)  # 24 segments


@pytest.fixture(scope="module")
def city_series(city):
    return simulate_network(city, SimulationConfig(num_days=1, seed=11))


@pytest.fixture(scope="module")
def graph_config(city):
    return GraphFeatureConfig(layout=graph_window_layout(city, 2))


@pytest.fixture(scope="module")
def scalers(city_series):
    return fit_scalers(city_series)


def make_store(city_series, graph_config, scalers, **kwargs) -> SegmentStateStore:
    return SegmentStateStore(
        city_series.num_segments, graph_config, scalers, **kwargs
    )


class TestGraphWindowParity:
    def test_every_segment_matches_offline(self, city_series, graph_config, scalers):
        store = make_store(city_series, graph_config, scalers)
        alpha = graph_config.alpha
        replay(store, city_series, range(alpha + 3))
        targets = list(range(city_series.num_segments))
        offline = build_features(city_series, graph_config, scalers, targets)
        per = offline.windows_per_target
        flat = offline.flat()
        for segment in targets:
            view = store.window(segment)  # no edge exclusion on a graph
            w = segment * per + (view.end_step - alpha + 1)
            assert np.array_equal(view.image, offline.images[w])
            assert np.array_equal(view.flat, flat[w])
            assert view.target_step == offline.target_steps[w]
            assert view.last_speed_kmh == offline.last_input_kmh[w]

    def test_windows_many_matches_single(self, city_series, graph_config, scalers):
        store = make_store(city_series, graph_config, scalers)
        replay(store, city_series, range(graph_config.alpha))
        batch = store.windows_many([0, 7, 23, 7])
        for requested, view in zip([0, 7, 23, 7], batch):
            single = store.window(requested)
            assert view.fingerprint == single.fingerprint
            assert np.array_equal(view.image, single.image)


class TestGraphReadiness:
    def test_lagging_neighbour_blocks_target(self, city, city_series, graph_config,
                                             scalers):
        store = make_store(city_series, graph_config, scalers)
        replay(store, city_series, range(graph_config.alpha))
        target = city.target_index
        neighbour = next(
            t for t in city.k_hop_neighbourhood(target, 2) if t != target
        )
        store.reset_segment(neighbour)
        with pytest.raises(IncompleteWindowError, match="lags"):
            store.window(target)

    def test_outside_segment_never_blocks_target(self, city, city_series,
                                                 graph_config, scalers):
        store = make_store(city_series, graph_config, scalers)
        replay(store, city_series, range(graph_config.alpha))
        target = city.target_index
        hood = set(city.k_hop_neighbourhood(target, 2))
        outsider = next(s for s in range(len(city)) if s not in hood)
        store.reset_segment(outsider)
        assert store.window(target).segment_id == target

    def test_layout_store_size_mismatch_rejected(self, graph_config, scalers):
        with pytest.raises(ValueError, match="segments"):
            SegmentStateStore(7, graph_config, scalers)


@pytest.fixture(scope="module")
def graph_model(city_series, graph_config, micro_preset):
    dataset = TrafficDataset(city_series, graph_config, seed=0)
    model = APOTS(predictor="F", adversarial=False, features=graph_config,
                  preset=micro_preset, seed=0)
    return model.fit(dataset)


class TestGraphService:
    def test_all_segments_served_by_model(self, city_series, graph_model):
        service = ForecastService(graph_model, city_series.num_segments)
        replay(service, city_series, range(graph_model.features.alpha))
        forecasts = service.predict_many(list(range(city_series.num_segments)))
        assert [f.source for f in forecasts] == ["model"] * city_series.num_segments

    def test_forecast_matches_direct_forward(self, city_series, graph_model):
        service = ForecastService(graph_model, city_series.num_segments)
        replay(service, city_series, range(graph_model.features.alpha))
        segment = 0  # a padded corner segment: the hard case
        view = service.store.window(segment)
        scaled = graph_model.predictor.predict(
            view.image[None], view.day_type[None], view.flat[None]
        )
        expected = float(graph_model.scalers.speed.inverse_transform(scaled)[0])
        assert service.predict(segment).speed_kmh == pytest.approx(expected)
