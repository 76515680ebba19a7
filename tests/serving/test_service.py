"""ForecastService: end-to-end serving, caching, degradation, hot swap."""

import dataclasses
import json

import numpy as np
import pytest

from repro import APOTS
from repro.core import save_model
from repro.data import FeatureConfig
from repro.serving import ForecastService, IncompleteWindowError

from tests.serving.conftest import observation_at, replay


class TestPredict:
    def test_model_forecast_matches_offline_predictor(
        self, warm_service, served_model, tiny_dataset
    ):
        target = tiny_dataset.series.corridor.target_index
        forecast = warm_service.predict(target)
        assert forecast.source == "model" and not forecast.degraded
        view = warm_service.store.window(target)
        k = view.end_step - tiny_dataset.config.alpha + 1
        offline_scaled = served_model.predictor.predict(
            tiny_dataset.features.images[k : k + 1],
            tiny_dataset.features.day_types[k : k + 1],
            tiny_dataset.features.flat()[k : k + 1],
        )
        offline_kmh = tiny_dataset.kmh(offline_scaled)[0]
        assert forecast.speed_kmh == pytest.approx(offline_kmh, rel=1e-12)

    def test_target_step_is_beta_ahead(self, warm_service, served_model):
        forecast = warm_service.predict(4)
        assert forecast.target_step == 14 + served_model.features.beta
        assert forecast.horizon_steps == served_model.features.beta

    def test_invalid_horizon(self, warm_service):
        with pytest.raises(ValueError, match="horizon"):
            warm_service.predict(4, horizon_steps=0)


class TestCaching:
    def test_repeat_query_hits_cache(self, warm_service):
        first = warm_service.predict(4)
        second = warm_service.predict(4)
        assert not first.from_cache and second.from_cache
        assert second.speed_kmh == first.speed_kmh
        assert warm_service.cache.stats()["hits"] == 1

    def test_new_observation_invalidates(self, warm_service, tiny_series):
        first = warm_service.predict(4)
        replay(warm_service, tiny_series, [15])
        second = warm_service.predict(4)
        assert not second.from_cache
        assert second.target_step == first.target_step + 1

    def test_cache_can_be_bypassed(self, warm_service):
        warm_service.predict(4)
        assert not warm_service.predict(4, use_cache=False).from_cache

    def test_hits_share_one_forecast_without_copying(self, warm_service):
        miss = warm_service.predict_many([4, 5])
        hits = [warm_service.predict_many([4, 5]) for _ in range(3)]
        single = warm_service.predict(4)
        for call in hits:
            assert call[0] is hits[0][0] and call[1] is hits[0][1]
        assert single is hits[0][0]
        for first, hit in zip(miss, hits[0]):
            assert not first.from_cache and hit.from_cache
            assert hit == dataclasses.replace(first, from_cache=True)

    def test_dashboard_calls_assemble_each_window_once_per_tick(self, warm_service, tiny_series):
        servable = list(range(2, tiny_series.num_segments - 2))
        for step in (15, 16):
            replay(warm_service, tiny_series, [step])
            before = warm_service.snapshot()["windows"]
            calls = [warm_service.predict_many(servable) for _ in range(5)]
            after = warm_service.snapshot()["windows"]
            assert after["windows_assembled"] - before["windows_assembled"] == len(servable)
            assert after["windows_reused"] - before["windows_reused"] == 4 * len(servable)
            assert all(call == calls[1] for call in calls[2:])
            assert [f.speed_kmh for f in calls[0]] == [f.speed_kmh for f in calls[1]]


class TestDegradation:
    def test_warming_segment_served_naively(self, served_model, tiny_series):
        service = ForecastService(served_model, num_segments=tiny_series.num_segments)
        replay(service, tiny_series, range(3))
        forecast = service.predict(4)
        assert forecast.degraded and forecast.source == "naive"
        assert "3/12" in forecast.degraded_reason
        assert forecast.speed_kmh == float(tiny_series.speeds[4, 2])

    def test_edge_segment_served_naively(self, warm_service, tiny_series):
        forecast = warm_service.predict(0)
        assert forecast.degraded and "neighbours" in forecast.degraded_reason
        assert forecast.speed_kmh == float(tiny_series.speeds[0, 14])

    def test_unsupported_horizon_served_naively(self, warm_service):
        forecast = warm_service.predict(4, horizon_steps=6)
        assert forecast.degraded and "horizon 6 unsupported" in forecast.degraded_reason

    def test_unseen_segment_is_an_error(self, served_model, tiny_series):
        service = ForecastService(served_model, num_segments=tiny_series.num_segments)
        with pytest.raises(IncompleteWindowError):
            service.predict(4)

    def test_unfitted_model_rejected(self, micro_preset):
        model = APOTS(predictor="F", adversarial=False, preset=micro_preset)
        with pytest.raises(ValueError, match="scalers"):
            ForecastService(model, num_segments=9)


class TestMicroBatchEquivalence:
    def test_batched_bitwise_equals_per_request(self, warm_service, tiny_series):
        servable = list(range(2, tiny_series.num_segments - 2))
        batched = warm_service.predict_many(servable, use_cache=False)
        singles = [warm_service.predict(s, use_cache=False) for s in servable]
        for batch_forecast, single_forecast in zip(batched, singles):
            assert batch_forecast.speed_kmh == single_forecast.speed_kmh  # bitwise

    def test_order_preserved_with_mixed_outcomes(self, warm_service, tiny_series):
        # Edge segment (degraded), cached segment, fresh segments.
        warm_service.predict(3)
        requested = [0, 3, 4, 5]
        forecasts = warm_service.predict_many(requested)
        assert [f.segment_id for f in forecasts] == requested
        assert forecasts[0].degraded
        assert forecasts[1].from_cache
        assert not forecasts[2].degraded and not forecasts[2].from_cache

    def test_single_forward_per_call(self, warm_service, tiny_series):
        servable = list(range(2, tiny_series.num_segments - 2))
        warm_service.predict_many(servable, use_cache=False)
        sizes = warm_service.telemetry.histogram("batch_size")
        assert sizes.count == 1 and sizes.maximum == len(servable)


class TestCheckpointServing:
    def test_from_checkpoint_reproduces_live_service(
        self, served_model, tiny_series, tmp_path
    ):
        # The acceptance check: a checkpoint round-trip must serve the
        # exact same forecasts on raw (unscaled) observations.
        save_model(served_model, tmp_path / "ckpt")
        live = ForecastService(served_model, num_segments=tiny_series.num_segments)
        restored = ForecastService.from_checkpoint(
            tmp_path / "ckpt", num_segments=tiny_series.num_segments
        )
        replay(live, tiny_series, range(15))
        replay(restored, tiny_series, range(15))
        servable = list(range(2, tiny_series.num_segments - 2))
        for a, b in zip(live.predict_many(servable), restored.predict_many(servable)):
            assert a.speed_kmh == b.speed_kmh  # bitwise

    def test_hot_swap_mid_stream(
        self, served_model, tiny_dataset, tiny_series, micro_preset, tmp_path
    ):
        other = APOTS(predictor="F", adversarial=False, preset=micro_preset, seed=7)
        other.fit(tiny_dataset)
        save_model(served_model, tmp_path / "a")
        save_model(other, tmp_path / "b")
        service = ForecastService.from_checkpoint(
            tmp_path / "a", num_segments=tiny_series.num_segments
        )
        replay(service, tiny_series, range(15))
        before = service.predict(4)
        assert len(service.cache) == 1
        service.swap_checkpoint(tmp_path / "b")
        assert len(service.cache) == 0  # stale forecasts dropped
        after = service.predict(4)
        assert after.speed_kmh != before.speed_kmh  # different weights serve
        assert service.telemetry.counter("checkpoint_swaps").value == 1
        # The stream keeps flowing across the swap.
        replay(service, tiny_series, [15])
        assert not service.predict(4).degraded

    def test_cache_keys_are_fingerprint_namespaced(
        self, served_model, tiny_dataset, tiny_series, micro_preset, tmp_path
    ):
        """Regression: even an *uncleared* cache cannot leak stale values.

        ``swap_checkpoint`` clears the cache, but the load-bearing
        guarantee is the fingerprint in the cache key — defence in depth
        against any future path that forgets to clear.  Disable the
        clear and prove a pre-swap entry still cannot answer.
        """
        other = APOTS(predictor="F", adversarial=False, preset=micro_preset, seed=7)
        other.fit(tiny_dataset)
        save_model(served_model, tmp_path / "a")
        save_model(other, tmp_path / "b")
        service = ForecastService.from_checkpoint(
            tmp_path / "a", num_segments=tiny_series.num_segments
        )
        replay(service, tiny_series, range(15))
        service.predict(4)
        assert service.predict(4).from_cache  # entry is primed
        service.cache.clear = lambda: None  # sabotage the belt...
        service.swap_checkpoint(tmp_path / "b")
        assert len(service.cache) == 1  # stale entry really survived
        after = service.predict(4)
        assert not after.from_cache  # ...the braces still hold
        assert after.model_fingerprint == service.fingerprint

    def test_swap_rejects_geometry_mismatch(self, warm_service, micro_preset, tmp_path):
        other = APOTS(
            predictor="F",
            features=FeatureConfig(m=1),
            adversarial=False,
            preset=micro_preset,
        )
        save_model(other, tmp_path / "bad")
        with pytest.raises(ValueError, match="geometry"):
            warm_service.swap_checkpoint(tmp_path / "bad")

    def test_swap_rejects_scalerless_checkpoint(
        self, warm_service, served_model, tmp_path
    ):
        path = save_model(served_model, tmp_path / "scalerless")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["scalers"] = None
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="scaler state"):
            warm_service.swap_checkpoint(path)


class TestTelemetry:
    def test_snapshot_shape(self, warm_service):
        warm_service.predict(4)
        warm_service.predict(4)
        warm_service.predict(0)
        snap = warm_service.snapshot()
        assert snap["counters"]["requests"] == 3
        assert snap["counters"]["degraded_forecasts"] == 1
        assert snap["cache"]["hits"] == 1
        assert snap["model"] == "F"
        assert snap["histograms"]["predict_latency_ms"]["count"] == 3
        assert snap["histograms"]["predict_latency_ms"]["p99"] >= 0

    def test_observation_counter(self, served_model, tiny_series):
        service = ForecastService(served_model, num_segments=tiny_series.num_segments)
        count = service.ingest_many(
            observation_at(tiny_series, segment, 0)
            for segment in range(tiny_series.num_segments)
        )
        assert count == tiny_series.num_segments
        assert service.telemetry.counter("observations").value == count
        service.ingest(observation_at(tiny_series, 0, 1))
        assert service.telemetry.counter("observations").value == count + 1
