"""The served forward replays one compiled tape per checkpoint, bitwise eager.

Every check compares served forecasts with eager ``Predictor.predict``
on the very batch the batcher forwards — the windows in queue order,
zero-padded to ``max_batch_size`` rows — with no tolerance.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import APOTS, nn
from repro.core import save_model
from repro.data import TrafficDataset
from repro.data.graph_features import GraphFeatureConfig
from repro.network import graph_window_layout, grid_city
from repro.network.waves import simulate_network
from repro.obs.telemetry import Telemetry
from repro.serving import ForecastService
from repro.serving.forward import ServedForward
from repro.traffic.types import SimulationConfig

from tests.serving.conftest import replay

#: Forwards until a tape is trusted: one record, two validations.
WARM_FORWARDS = 3


def _fit(kind, dataset, preset):
    return APOTS(predictor=kind, adversarial=False, preset=preset, seed=0).fit(dataset)


@pytest.fixture(scope="module")
def cnn_model(tiny_dataset, micro_preset):
    return _fit("C", tiny_dataset, micro_preset)


@pytest.fixture(scope="module")
def lstm_model(tiny_dataset, micro_preset):
    return _fit("L", tiny_dataset, micro_preset)


@pytest.fixture(scope="module")
def hybrid_model(tiny_dataset, micro_preset):
    return _fit("H", tiny_dataset, micro_preset)


@pytest.fixture(scope="module")
def city_series():
    return simulate_network(grid_city(3, 3, seed=0), SimulationConfig(num_days=1, seed=11))


@pytest.fixture(scope="module")
def graph_model(city_series, micro_preset):
    config = GraphFeatureConfig(layout=graph_window_layout(grid_city(3, 3, seed=0), 2))
    model = APOTS(predictor="F", adversarial=False, features=config, preset=micro_preset, seed=0)
    return model.fit(TrafficDataset(city_series, config, seed=0))


def servable(service) -> list[int]:
    """Every segment the model can serve (corridor edges excluded)."""
    n = service.store.num_segments
    if isinstance(service.model.features, GraphFeatureConfig):
        return list(range(n))
    m = service.model.features.m
    return list(range(m, n - m))


def eager_reference(service, segments) -> list[float]:
    """Eager ``predictor.predict`` on the zero-padded batch the batcher forwards, in km/h."""
    views = service.store.windows_many(segments)
    rows = service.batcher.max_batch_size
    images = np.zeros((rows, *views[0].image.shape))
    day_types = np.zeros((rows, *views[0].day_type.shape))
    flat = np.zeros((rows, *views[0].flat.shape))
    for row, view in enumerate(views):
        images[row], day_types[row], flat[row] = view.image, view.day_type, view.flat
    scaled = service.model.predictor.predict(images, day_types, flat)[: len(views)]
    speed = service.model.scalers.speed
    return [float(speed.inverse_transform(np.asarray([value]))[0]) for value in scaled]


def serve_ticks(service, series, ticks: int) -> None:
    """Serve every servable segment uncached for ``ticks`` ticks, checking each bitwise."""
    segments = servable(service)
    for _ in range(ticks):
        served = service.predict_many(segments, use_cache=False)
        assert [f.source for f in served] == ["model"] * len(segments)
        assert [f.speed_kmh for f in served] == eager_reference(service, segments)
        replay(service, series, [service.store.latest_step(segments[0]) + 1])


def warm(service, series, ticks: int = WARM_FORWARDS + 2) -> None:
    replay(service, series, range(service.model.features.alpha))
    serve_ticks(service, series, ticks)


def current_tape(service):
    (entry,) = service._forward._compiled._entries.values()
    return entry.tape


class TestBitwiseEager:
    @pytest.mark.parametrize(
        "model_name, series_name",
        [
            ("served_model", "tiny_series"),  # F on the corridor
            ("cnn_model", "tiny_series"),  # C on the corridor
            ("lstm_model", "tiny_series"),  # L on the corridor
            ("hybrid_model", "tiny_series"),  # H on the corridor
            ("graph_model", "city_series"),  # F on a road graph's padded layout
        ],
    )
    def test_served_forecasts_equal_eager_predict(self, request, model_name, series_name):
        model = request.getfixturevalue(model_name)
        series = request.getfixturevalue(series_name)
        service = ForecastService(model, series.num_segments)
        warm(service, series)
        forward = service.snapshot()["forward"]
        assert forward["path"] == "replay" and forward["tape"] == "trusted"
        assert (forward["record"], forward["validate"]) == (1, 2)
        assert forward["replay"] == 2 and forward["eager"] == 0
        assert forward["tape_nbytes"] > 0 and forward["rejection_reason"] is None

    def test_swapped_checkpoint_serves_new_weights_from_a_new_tape(
        self, served_model, tiny_dataset, tiny_series, micro_preset, tmp_path
    ):
        other = APOTS(predictor="F", adversarial=False, preset=micro_preset, seed=7)
        other.fit(tiny_dataset)
        save_model(served_model, tmp_path / "a")
        save_model(other, tmp_path / "b")
        service = ForecastService.from_checkpoint(tmp_path / "a", tiny_series.num_segments)
        warm(service, tiny_series)
        old_tape = weakref.ref(current_tape(service))
        before = [f.speed_kmh for f in service.predict_many(servable(service), use_cache=False)]

        service.swap_checkpoint(tmp_path / "b")
        assert old_tape() is None  # dropped with the old model
        assert service.snapshot()["forward"]["tape"] == "none"
        after = [f.speed_kmh for f in service.predict_many(servable(service), use_cache=False)]
        assert after != before  # the new weights serve
        serve_ticks(service, tiny_series, WARM_FORWARDS + 2)
        forward = service.snapshot()["forward"]
        assert forward["path"] == "replay" and forward["tape"] == "trusted"

    def test_no_grad_callers_stay_eager(self, served_model, tiny_series):
        service = ForecastService(served_model, tiny_series.num_segments)
        warm(service, tiny_series)
        replays = service.snapshot()["forward"]["replay"]
        with nn.no_grad():
            serve_ticks(service, tiny_series, 2)
        forward = service.snapshot()["forward"]
        assert forward["path"] == "eager" and forward["eager"] == 2
        assert forward["replay"] == replays and forward["tape"] == "trusted"
        serve_ticks(service, tiny_series, 1)
        assert service.snapshot()["forward"]["path"] == "replay"


class TestTapeLifetime:
    def test_dropped_service_frees_its_tape_without_a_gc_pass(self, hybrid_model, tiny_series):
        gc.collect()
        gc.disable()
        try:
            service = ForecastService(hybrid_model, tiny_series.num_segments)
            warm(service, tiny_series)
            tape = weakref.ref(current_tape(service))
            assert tape().nbytes == service.snapshot()["forward"]["tape_nbytes"] > 0
            del service
            assert tape() is None
        finally:
            gc.enable()


class TestTapeBytes:
    def test_tape_bytes_leave_out_the_fused_lstm_caches(self, hybrid_model, tiny_series, monkeypatch):
        from repro.nn import compile as compiled

        build = compiled.CompiledTape.__init__

        def keeping_records(tape, inputs, outputs, records):
            build(tape, inputs, outputs, records)
            tape.records = list(records)

        monkeypatch.setattr(compiled.CompiledTape, "__init__", keeping_records)
        service = ForecastService(hybrid_model, tiny_series.num_segments, max_batch_size=8)
        warm(service, tiny_series)
        tape = current_tape(service)
        lstm = [(node, meta) for node, _, op, meta in tape.records if op == "lstm_fused"]
        assert len(lstm) == 2
        for node, meta in lstm:
            # The replay keeps the time-major gate buffer and the initial
            # state: no BPTT cache, which only a backward would read.
            batch, steps, hidden = node.data.shape
            assert set(meta) == {"gates_x", "h0", "c0"}
            assert meta["gates_x"].shape == (steps, batch, 4 * hidden)
        # Nor do its outputs keep the recorded graph, whose backward
        # closures hold those caches.
        assert all(out._backward is None and not out._parents for out in tape.outputs)
        assert tape.nbytes == tape._retained_nbytes(tape.records)
        assert service.snapshot()["forward"]["tape_nbytes"] == tape.nbytes
        assert service.snapshot()["forward"]["path"] == "replay"


class _BakedConstant(nn.Module):
    """Reads an input value into a Python float: a replay keeps the recorded one."""

    def forward(self, images, day_types, flat):
        return flat.sum(axis=1) * float(flat.data[0, 0])


class TestRejectedTape:
    def test_rejection_falls_back_to_eager_and_is_counted(self):
        telemetry = Telemetry()
        forward = ServedForward(_BakedConstant(), telemetry=telemetry)
        rng = np.random.default_rng(0)
        for _ in range(4):
            flat = rng.random((8, 3))
            values = forward(np.zeros((8, 2, 2)), np.zeros((8, 4)), flat)
            assert values.tobytes() == (flat.sum(axis=1) * float(flat[0, 0])).tobytes()
        snap = forward.snapshot()
        assert snap["tape"] == "rejected" and "diverged" in snap["rejection_reason"]
        assert snap["path"] == "eager" and snap["tape_nbytes"] == 0
        assert (snap["record"], snap["validate"], snap["eager"], snap["replay"]) == (1, 1, 2, 0)
        assert telemetry.counter("forward_tape_rejected").value == 1
