"""``repro.serving`` — online forecast serving for trained APOTS models.

Turns a checkpoint into a live service: rolling per-segment state
ingestion (:mod:`state`), request coalescing (:mod:`batcher`), TTL+LRU
forecast caching (:mod:`cache`), the :class:`ForecastService` facade
(:mod:`service`) and counters/latency histograms (re-exported from
:mod:`repro.obs.telemetry`).

This layer is experiment-free by construction: it may depend on
``repro.core`` / ``repro.data`` / ``repro.nn`` but never on
``repro.experiments`` (enforced by ``tools/check_imports.py``).
"""

from .batcher import MicroBatcher, PendingForecast
from .cache import ForecastCache
from .errors import (
    IncompleteWindowError,
    InvalidObservationError,
    ServingError,
    StaleObservationError,
    StreamGapError,
    UnknownSegmentError,
)
from ..obs.telemetry import Counter, Histogram, Telemetry
from .service import Forecast, ForecastService
from .state import Observation, ObservationBatch, SegmentStateStore, WindowView

__all__ = [
    "MicroBatcher",
    "PendingForecast",
    "ForecastCache",
    "ServingError",
    "UnknownSegmentError",
    "StaleObservationError",
    "StreamGapError",
    "InvalidObservationError",
    "IncompleteWindowError",
    "Forecast",
    "ForecastService",
    "Observation",
    "ObservationBatch",
    "SegmentStateStore",
    "WindowView",
    "Counter",
    "Histogram",
    "Telemetry",
]
