"""Row independence of the served forward at the pinned batch sizes.

Fill forecasts, cache answers, the fleet parent's forecast tables and
shard-count invariance all rest on one property: a window's forecast
from a ``max_batch_size``-row padded forward does not depend on the
other rows in the batch.  It holds at the sizes pinned here on the micro
graph F model; odd sizes (3, 5) moved the last bit of some rows, so
they are not promised.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import APOTS
from repro.data import TrafficDataset
from repro.data.graph_features import GraphFeatureConfig
from repro.network import graph_window_layout, grid_city, simulate_network
from repro.serving.batcher import MicroBatcher
from repro.serving.forward import ServedForward
from repro.serving.state import WindowView
from repro.traffic.types import SimulationConfig

WINDOWS = 24


@pytest.fixture(scope="module")
def graph_model_and_windows(micro_preset):
    city = grid_city(3, 3, seed=0)
    series = simulate_network(city, SimulationConfig(num_days=6, seed=2018))
    config = GraphFeatureConfig(layout=graph_window_layout(city, 2))
    dataset = TrafficDataset(series, config, seed=0)
    model = APOTS("F", adversarial=False, features=config, preset=micro_preset, seed=0)
    model.fit(dataset)
    batch = dataset.batch(dataset.subset("test")[:WINDOWS])
    views = [
        WindowView(i, 0, 1, batch.images[i], batch.day_types[i], batch.flat[i], str(i), 0.0)
        for i in range(WINDOWS)
    ]
    return model, views


def served(forward, views, size: int) -> list[float]:
    """Each view's value from forwards of ``size`` rows, co-riders as queued."""
    batcher = MicroBatcher(forward, max_batch_size=size)
    pending = [batcher.submit(view) for view in views]
    batcher.flush()
    return [p.value for p in pending]


@pytest.mark.parametrize("size", [2, 4, 8, 64])
def test_a_rows_forecast_does_not_depend_on_its_co_riders(graph_model_and_windows, size):
    model, views = graph_model_and_windows
    forward = ServedForward(model.predictor)  # records, validates, then replays its tape
    alone = [served(forward, [view], size)[0] for view in views]
    together = served(forward, views, size)
    shifted = served(forward, views[1:] + views[:1], size)
    assert together == alone
    assert shifted == alone[1:] + alone[:1]
