"""Micro-benchmarks of the substrates: nn primitives and the simulator.

These time the hot paths every experiment exercises thousands of times:
a predictor forward/backward step, conv and LSTM primitives, and the
corridor simulator's step throughput.
"""

import time

import numpy as np
import pytest

from conftest import record_metric
from repro import nn
from repro.core import Discriminator, TrainSpec, build_predictor, table1_spec
from repro.core.adversarial import APOTSTrainer
from repro.data import FeatureConfig
from repro.traffic import SimulationConfig, simulate


@pytest.fixture(scope="module")
def features():
    return FeatureConfig()


def test_linear_forward_backward(benchmark):
    rng = np.random.default_rng(0)
    layer = nn.Linear(128, 128, rng=rng)
    x = nn.Tensor(rng.normal(size=(256, 128)), requires_grad=True)

    def step():
        layer.zero_grad()
        out = layer(x).relu()
        (out * out).mean().backward()

    benchmark(step)


def test_conv2d_forward_backward(benchmark):
    rng = np.random.default_rng(1)
    conv = nn.Conv2d(1, 32, 3, padding=1, rng=rng)
    x = nn.Tensor(rng.normal(size=(64, 1, 9, 12)), requires_grad=True)

    def step():
        conv.zero_grad()
        out = conv(x)
        (out * out).mean().backward()

    benchmark(step)


def test_lstm_forward_backward(benchmark):
    rng = np.random.default_rng(2)
    lstm = nn.LSTM(9, [64, 64], rng=rng)
    x = nn.Tensor(rng.normal(size=(64, 12, 9)), requires_grad=True)

    def step():
        for p in lstm.parameters():
            p.zero_grad()
        out, _ = lstm(x)
        (out * out).mean().backward()

    benchmark(step)


@pytest.mark.parametrize("kind", ["F", "L", "C", "H"])
def test_predictor_inference(benchmark, features, kind):
    rng = np.random.default_rng(3)
    predictor = build_predictor(kind, features, spec=table1_spec(kind, 0.125), rng=rng)
    images = rng.random((256, features.image_rows, features.alpha))
    day_types = rng.random((256, 4))
    flat = np.concatenate([images.reshape(256, -1), day_types], axis=1)
    benchmark(lambda: predictor.predict(images, day_types, flat))


def test_adversarial_step(benchmark, features):
    """One full P+D adversarial update at medium widths."""
    from repro.data import TrafficDataset

    series = simulate(SimulationConfig(num_days=4, seed=1))
    dataset = TrafficDataset(series, features, seed=1)
    spec = table1_spec("F", 0.125)

    rng = np.random.default_rng(4)
    predictor = build_predictor("F", features, spec=spec, rng=rng)
    disc = Discriminator(features, spec=spec, rng=rng)
    trainer = APOTSTrainer(predictor, disc, TrainSpec(adversarial_batch_size=32))
    anchors = dataset.rollout_anchors("train")[:32]
    batch = dataset.rollout_batch(anchors)

    def step() -> None:
        trainer._discriminator_step(batch, features.alpha)
        trainer._predictor_step(batch, features.alpha)

    for _ in range(4):
        step()
    start = time.perf_counter()
    for _ in range(20):
        step()
    record_metric(
        "test_adversarial_step",
        eager_ms_per_step=1e3 * (time.perf_counter() - start) / 20,
    )
    benchmark(step)


def test_simulator_throughput(benchmark):
    """Days of corridor simulation per call (10-day series)."""
    benchmark(lambda: simulate(SimulationConfig(num_days=10, seed=9)))
