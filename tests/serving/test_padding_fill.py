"""Padding fill: a short cached flush's spare rows carry the shard's other ready windows.

Every served value is compared bitwise, with no tolerance: with eager
``Predictor.predict`` on the window zero-padded to the batcher's shape,
and with a fresh service that never filled anything.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro import APOTS
from repro.attacks.defense import GateConfig, PerturbationGate
from repro.core import save_model
from repro.data import TrafficDataset
from repro.data.graph_features import GraphFeatureConfig
from repro.network import graph_window_layout, grid_city
from repro.network.waves import simulate_network
from repro.serving import ForecastService
from repro.traffic.types import SimulationConfig

from tests.serving.conftest import observation_at, replay

WARM = range(15)


@pytest.fixture(scope="module")
def city_series():
    return simulate_network(grid_city(3, 3, seed=0), SimulationConfig(num_days=1, seed=11))


@pytest.fixture(scope="module")
def graph_model(city_series, micro_preset):
    config = GraphFeatureConfig(layout=graph_window_layout(grid_city(3, 3, seed=0), 2))
    model = APOTS(predictor="F", adversarial=False, features=config, preset=micro_preset, seed=0)
    return model.fit(TrafficDataset(city_series, config, seed=0))


@pytest.fixture(params=["corridor", "graph"])
def setting(request, served_model, tiny_series, graph_model, city_series):
    """(model, series, servable segments) for one window geometry."""
    if request.param == "corridor":
        return served_model, tiny_series, list(range(2, tiny_series.num_segments - 2))
    return graph_model, city_series, list(range(city_series.num_segments))


def warm(model, series, **kwargs) -> ForecastService:
    service = ForecastService(model, num_segments=series.num_segments, **kwargs)
    replay(service, series, WARM)
    return service


def forwards(service) -> int:
    return service.telemetry.histogram("batch_size").count


def eager_kmh(service, segment: int) -> float:
    """Eager ``predictor.predict`` on the window zero-padded to the batcher's rows, in km/h."""
    view = service.store.window(segment)
    rows = service.batcher.max_batch_size
    images = np.zeros((rows, *view.image.shape))
    day_types = np.zeros((rows, *view.day_type.shape))
    flat = np.zeros((rows, *view.flat.shape))
    images[0], day_types[0], flat[0] = view.image, view.day_type, view.flat
    scaled = service.model.predictor.predict(images, day_types, flat)[0]
    return float(service.model.scalers.speed.inverse_transform(np.asarray([scaled]))[0])


class TestFilledForecasts:
    def test_filled_forecasts_are_bitwise_eager_and_fresh(self, setting):
        model, series, servable = setting
        service = warm(model, series)
        asked, *others = servable
        service.predict(asked)
        assert service.snapshot()["fill"]["rows"] == len(others)
        before = forwards(service)
        filled = service.predict_many(others)
        assert forwards(service) == before  # every answer came from the fill
        assert service.snapshot()["fill"] == {
            "rows": len(others),
            "served": len(others),
            "served_ratio": 1.0,
        }
        assert all(f.source == "model" and not f.from_cache for f in filled)
        assert [f.speed_kmh for f in filled] == [eager_kmh(service, s) for s in others]
        fresh = warm(model, series)
        assert filled == fresh.predict_many(others, use_cache=False)

    def test_filled_forecasts_are_cached_on_first_read(self, served_model, tiny_series):
        service = warm(served_model, tiny_series)
        service.predict(2)
        first = service.predict(5)
        second = service.predict(5)
        assert not first.from_cache and second.from_cache
        assert second.speed_kmh == first.speed_kmh
        assert service.snapshot()["fill"]["served"] == 1

    def test_fill_takes_owned_segments_in_ascending_order(self, served_model, tiny_series):
        # Two rows a forward: the request's spare row, then fill-only forwards.
        service = warm(served_model, tiny_series, max_batch_size=2)
        served, batches = service.batcher._forward, []

        def recording(images, day_types, flat):
            batches.append(flat.copy())
            return served(images, day_types, flat)

        service.batcher._forward = recording
        service.predict(6)
        flats = {s: service.store.window(s).flat.tobytes() for s in range(2, 7)}
        rows = [[s for s, flat in flats.items() if flat == row.tobytes()] for batch in batches for row in batch]
        assert rows == [[6], [2], [3], [4], [5], []]  # the last forward's spare row stays zero
        assert not batches[-1][1].any()
        before = forwards(service)
        assert not any(service.predict(s).from_cache for s in (2, 3, 4, 5))
        assert forwards(service) == before
        assert service.snapshot()["fill"] == {"rows": 4, "served": 4, "served_ratio": 1.0}

    @pytest.mark.parametrize("max_batch_size", [2, 3, 64])
    def test_one_fill_per_update_sets_the_forward_count(self, setting, max_batch_size):
        model, series, servable = setting
        service = warm(model, series, max_batch_size=max_batch_size)
        for tick in range(2):
            replay(service, series, [WARM.stop + tick])
            read, asked, rest = servable[:1], servable[1:4], servable[4:]
            before = forwards(service)
            service.predict_many(read, use_cache=False)  # read, not filled
            assert forwards(service) - before == 1
            before = forwards(service)
            service.predict_many(asked)
            unread = len(servable) - len(read) - len(asked)
            assert forwards(service) - before == math.ceil((len(asked) + unread) / max_batch_size)
            before = forwards(service)
            service.predict_many(rest + read)
            assert forwards(service) - before == 1  # only the window read uncached
            assert service.snapshot()["counters"]["fills"] == tick + 1

    @pytest.mark.parametrize("max_batch_size", [3, 64])
    def test_fill_forecasts_are_bitwise_eager_on_their_padded_block(self, setting, max_batch_size):
        model, series, servable = setting
        service = warm(model, series, max_batch_size=max_batch_size)
        served, batches = service.batcher._forward, []

        def recording(*inputs):
            batches.append([array.copy() for array in inputs])
            return served(*inputs)

        service.batcher._forward = recording
        for tick in range(4):  # enough forwards for the tape to replay
            replay(service, series, [WARM.stop + tick])
            batches.clear()
            asked, *others = servable
            answers = [service.predict(asked), *service.predict_many(others)]
            assert len(batches) == math.ceil(len(servable) / max_batch_size)
            # The request first, then every other ready window in ascending id.
            eager = np.concatenate([model.predictor.predict(*batch) for batch in batches])
            expected = model.scalers.speed.inverse_transform(eager[: len(servable)])
            assert [f.speed_kmh for f in answers] == expected.tolist()
        assert service.snapshot()["forward"]["path"] == "replay"

    def test_fill_stays_inside_the_segment_range(self, served_model, tiny_series):
        service = warm(served_model, tiny_series, segment_range=(0, 4))
        service.predict(3)
        assert service.snapshot()["fill"]["rows"] == 1  # segment 2; 4..6 belong to another shard
        before = forwards(service)
        service.predict_many([2, 4])
        assert forwards(service) == before + 1  # only segment 4 needed a forward


class TestFillLifecycle:
    def test_next_update_starts_a_new_fill(self, served_model, tiny_series):
        service = warm(served_model, tiny_series)
        service.predict(2)
        replay(service, tiny_series, [WARM.stop])
        before = forwards(service)
        forecast = service.predict(5)
        assert forwards(service) == before + 1
        assert forecast.target_step == WARM.stop + served_model.features.beta
        assert forecast.speed_kmh == eager_kmh(service, 5)

    def test_swap_checkpoint_serves_the_new_weights(
        self, served_model, tiny_dataset, tiny_series, micro_preset, tmp_path
    ):
        other = APOTS(predictor="F", adversarial=False, preset=micro_preset, seed=7)
        other.fit(tiny_dataset)
        save_model(other, tmp_path / "b")
        service = warm(served_model, tiny_series)
        service.predict(2)  # fills 3..6 with the old weights
        old = eager_kmh(service, 5)
        service.swap_checkpoint(tmp_path / "b")
        forecast = service.predict(5)
        assert forecast.model_fingerprint == service.fingerprint
        assert forecast.speed_kmh == eager_kmh(service, 5) != old
        assert forecast == warm(other, tiny_series).predict(5, use_cache=False)
        assert service.snapshot()["fill"]["served"] == 0

    def test_quarantined_windows_are_never_filled(self, served_model, tiny_series):
        service = warm(served_model, tiny_series, gate=PerturbationGate(GateConfig()))
        poisoned = 2
        tick = [observation_at(tiny_series, s, WARM.stop) for s in range(tiny_series.num_segments)]
        tick[poisoned] = dataclasses.replace(tick[poisoned], speed_kmh=250.0)
        service.ingest_many(tick)
        servable = range(2, tiny_series.num_segments - 2)
        tainted = [s for s in servable if service._gate_quarantined(s)]
        clean = [s for s in servable if s not in tainted]
        assert {2, 3, 4} <= set(tainted) and clean
        service.predict(clean[-1])
        assert service.snapshot()["fill"]["rows"] == len(clean) - 1
        for forecast in service.predict_many(tainted):
            assert forecast.degraded and forecast.degraded_reason == "perturbation gate quarantine"
        assert service.snapshot()["fill"]["served"] == 0

    def test_uncached_calls_never_fill_or_read_fills(self, served_model, tiny_series):
        service = warm(served_model, tiny_series)
        service.predict_many([2], use_cache=False)
        assert service.snapshot()["fill"]["rows"] == 0
        service.predict(2)  # cached: fills 3..6
        before = forwards(service)
        uncached = service.predict_many([3, 4], use_cache=False)
        assert forwards(service) == before + 1
        assert service.snapshot()["fill"] == {"rows": 4, "served": 0, "served_ratio": 0.0}
        assert uncached == service.predict_many([3, 4])  # the fill's answers, bit for bit


class TestFillDoesNotDisturb:
    def test_a_full_flush_has_no_spare_rows(self, served_model, tiny_series):
        service = warm(served_model, tiny_series, max_batch_size=5)
        service.predict_many(range(2, 7))
        assert service.snapshot()["fill"]["rows"] == 0
