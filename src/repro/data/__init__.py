"""``repro.data`` — window extraction, features, scaling and splits."""

from .dataset import Batch, RolloutBatch, TrafficDataset, iterate_batches
from .features import (
    OFF_END,
    PADDING,
    FactorMask,
    FeatureConfig,
    FeatureScalers,
    WindowFeatures,
    build_features,
    fit_scalers,
)
from .graph_features import GraphFeatureConfig, GraphWindowLayout
from .profile import PSI_EPSILON, SPEED_BIN_EDGES, ReferenceProfile
from .scaling import LogStandardScaler, MinMaxScaler, StandardScaler, scaler_from_state
from .split import SplitIndices, consecutive_runs, split_windows

__all__ = [
    "Batch",
    "RolloutBatch",
    "TrafficDataset",
    "iterate_batches",
    "OFF_END",
    "PADDING",
    "FactorMask",
    "FeatureConfig",
    "FeatureScalers",
    "WindowFeatures",
    "build_features",
    "fit_scalers",
    "GraphWindowLayout",
    "GraphFeatureConfig",
    "LogStandardScaler",
    "MinMaxScaler",
    "StandardScaler",
    "scaler_from_state",
    "PSI_EPSILON",
    "SPEED_BIN_EDGES",
    "ReferenceProfile",
    "SplitIndices",
    "consecutive_runs",
    "split_windows",
]
