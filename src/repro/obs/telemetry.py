"""Lightweight telemetry: counters and sampling histograms.

No external metrics stack is available in this environment, so this is
the minimal useful core: monotonic counters, bounded-reservoir
histograms with percentile summaries, and a :meth:`Telemetry.snapshot`
dict that the benchmark harness and the serving example print directly.

It lives in the observability layer, not in serving, so the training
side (``repro.core`` trainers, :mod:`repro.obs.recorder`) can share the
same primitives without importing the serving layer.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["Counter", "Histogram", "Telemetry"]


class Counter:
    """A monotonic counter."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Histogram:
    """Summary statistics over observed values.

    Keeps exact totals (count/sum) forever and the most recent
    ``max_samples`` observations for percentile estimates, so memory
    stays bounded on long-running services.

    The two populations deliberately diverge once more than
    ``max_samples`` values have been observed: ``count``, ``mean``,
    ``min`` and ``max`` are **all-time** exact statistics, while
    ``percentile()`` and the ``p50``/``p90``/``p99`` snapshot fields
    describe only the **most recent window** of ``max_samples``
    observations.  An all-time extreme therefore stays visible in
    ``min``/``max`` forever even after it has rolled out of every
    percentile.  ``tests/obs/test_telemetry.py`` pins this contract.
    """

    def __init__(self, max_samples: int = 8192):
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._samples: deque[float] = deque(maxlen=max_samples)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self._samples.append(value)

    def percentile(self, q: float) -> float:
        if not self._samples:
            return float("nan")
        return float(np.percentile(np.fromiter(self._samples, dtype=np.float64), q))

    def snapshot(self) -> dict:
        if self.count == 0:
            return {"count": 0}
        samples = np.fromiter(self._samples, dtype=np.float64)
        p50, p90, p99 = np.percentile(samples, [50.0, 90.0, 99.0])
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "min": self.minimum,
            "max": self.maximum,
            "p50": float(p50),
            "p90": float(p90),
            "p99": float(p99),
        }


class Telemetry:
    """A named registry of counters and histograms."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def histogram(self, name: str) -> Histogram:
        # Looked up on every served request: build a Histogram (and its
        # sample deque) only the first time a name is seen.
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        return histogram

    def snapshot(self) -> dict:
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "histograms": {name: h.snapshot() for name, h in sorted(self._histograms.items())},
        }
