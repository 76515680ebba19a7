"""``repro.baselines`` — statistical and naive comparison models."""

from .arima import ARPredictor
from .naive import HistoricalAverageBaseline, LastValueBaseline
from .prophet import Prophet, ProphetForecaster

__all__ = [
    "ARPredictor",
    "HistoricalAverageBaseline",
    "LastValueBaseline",
    "Prophet",
    "ProphetForecaster",
]
