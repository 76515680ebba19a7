"""Counters / histograms, including the reservoir-wrap contract."""

import numpy as np
import pytest

from repro.obs import Counter, Histogram, Telemetry


class TestCounter:
    def test_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestHistogram:
    def test_empty_snapshot(self):
        assert Histogram().snapshot() == {"count": 0}
        assert np.isnan(Histogram().percentile(50))

    def test_exact_stats_within_window(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["mean"] == pytest.approx(2.5)
        assert snap["min"] == 1.0 and snap["max"] == 4.0
        assert snap["p50"] == pytest.approx(2.5)

    def test_wrap_semantics_alltime_vs_windowed(self):
        """Past ``max_samples``: count/mean/min/max stay all-time exact,
        percentiles describe only the most recent window."""
        h = Histogram(max_samples=4)
        for v in range(1, 11):  # observe 1..10, window keeps {7, 8, 9, 10}
            h.observe(float(v))
        snap = h.snapshot()
        # All-time, exact — the early observations still count.
        assert snap["count"] == 10
        assert snap["mean"] == pytest.approx(5.5)
        assert snap["min"] == 1.0
        assert snap["max"] == 10.0
        # Windowed — the early observations have rolled out.
        assert h.percentile(0) == pytest.approx(7.0)
        assert snap["p50"] == pytest.approx(8.5)
        assert h.percentile(100) == pytest.approx(10.0)

    def test_alltime_extreme_outlives_window(self):
        h = Histogram(max_samples=2)
        h.observe(1000.0)
        h.observe(1.0)
        h.observe(2.0)
        assert h.snapshot()["max"] == 1000.0  # gone from the reservoir...
        assert h.percentile(100) == pytest.approx(2.0)  # ...but not from max


class TestTelemetry:
    def test_registry_reuses_instruments(self):
        t = Telemetry()
        assert t.counter("a") is t.counter("a")
        assert t.histogram("h") is t.histogram("h")

    def test_snapshot_shape(self):
        t = Telemetry()
        t.counter("requests").inc(3)
        t.histogram("latency").observe(1.5)
        snap = t.snapshot()
        assert snap["counters"] == {"requests": 3.0}
        assert snap["histograms"]["latency"]["count"] == 1
