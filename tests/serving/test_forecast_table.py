"""A store update's :class:`ForecastTable`: every row is what a cached read returns.

The fleet parent answers a shard's later cached reads from the table the
fill call hands back, so each row's value, window end and ``cached``
flag must be exactly what the service itself would serve next.
"""

from __future__ import annotations

from repro.serving import ForecastService

from tests.serving.conftest import observation_at, replay


def rows_of(table) -> dict[int, tuple[float, int, bool]]:
    return {
        segment: (kmh, end, cached)
        for segment, kmh, end, cached in zip(
            table.segment_ids.tolist(),
            table.speeds_kmh.tolist(),
            table.end_steps.tolist(),
            table.cached.tolist(),
        )
    }


def test_rows_are_what_the_next_cached_reads_return(served_model, tiny_series):
    # A ring longer than the window keeps a lagging segment's window complete.
    alpha, beta = served_model.features.alpha, served_model.features.beta
    service = ForecastService(served_model, num_segments=tiny_series.num_segments, store_capacity=alpha + 2)
    replay(service, tiny_series, range(15))
    service.predict_many([2])  # cached in this update
    # Segment 2 lags the next tick: its window, ending at step 14, is
    # unchanged and still cached, and 3 and 4 read it, so they degrade.
    service.ingest_many([observation_at(tiny_series, s, 15) for s in range(tiny_series.num_segments) if s != 2])
    answered = service.predict_many([5])  # forwards 5 and fills 2 and 6
    rows = rows_of(service.forecast_table(answered))
    # 2 is left out: its first read is a cache hit, not a read of the fill.
    assert set(rows) == {5, 6}
    assert rows[5][2] and not rows[6][2]
    for segment, (kmh, end, cached) in rows.items():
        forecast = service.predict_many([segment])[0]
        assert (forecast.speed_kmh, forecast.target_step - beta, forecast.from_cache) == (kmh, end, cached)
        assert forecast.source == "model" and forecast.model_fingerprint == service.fingerprint
    assert service.predict_many([2])[0].from_cache


def test_no_table_when_the_cache_cannot_hold_the_update(served_model, tiny_series):
    service = ForecastService(
        served_model, num_segments=tiny_series.num_segments, cache_capacity=tiny_series.num_segments - 1
    )
    replay(service, tiny_series, range(15))
    assert service.forecast_table(service.predict_many([5])) is None


def test_replay_moves_state_as_the_reads_would(served_model, tiny_series):
    served, replayed = (
        ForecastService(served_model, num_segments=tiny_series.num_segments) for _ in range(2)
    )
    for service in (served, replayed):
        replay(service, tiny_series, range(15))
        service.predict_many([5])
    reads = [6, 2, 6, 5, 3]
    served.predict_many(reads)
    replayed.replay(reads)
    one, other = served.snapshot(), replayed.snapshot()
    assert one["cache"] == other["cache"] and one["windows"] == other["windows"]
    for counter in ("requests", "fill_served", "fill_rows", "fills"):
        assert one["counters"][counter] == other["counters"][counter]
    assert other["histograms"]["replay_ms"]["count"] == 1
    assert other["histograms"]["predict_many_latency_ms"]["count"] == 1
