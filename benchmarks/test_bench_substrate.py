"""Micro-benchmarks of the substrates: nn primitives and the simulator.

These time the hot paths every experiment exercises thousands of times:
a predictor forward/backward step, conv and LSTM primitives, the
corridor simulator's step throughput, and the kernel split and page
faults of one step of the e2e benchmark's APOTS_H fit
(``test_bench_apots_h_step``; run it with ``OPENBLAS_NUM_THREADS=1``,
as the e2e benchmark runs).
"""

import os
import resource
import time

import numpy as np
import pytest

from conftest import record_metric, report, run_once
from repro import APOTS, nn
from repro.core import Discriminator, TrainSpec, build_predictor, model_fingerprint, table1_spec
from repro.core.adversarial import APOTSTrainer
from repro.data import FeatureConfig, TrafficDataset
from repro.nn import fused_rnn, ops
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


#: The e2e ``train_apots_h`` fit: 2 epochs x 10 steps x 32 anchors on a
#: 10-day corridor, smoke widths; and the fingerprint its weights pin.
APOTS_H_SPEC = TrainSpec(epochs=2, adversarial_batch_size=32, max_steps_per_epoch=10, seed=2018)
APOTS_H_STEPS = 20
APOTS_H_FINGERPRINT = "08ab494d2af65cb195155c9d"


def test_bench_apots_h_step(benchmark, monkeypatch):
    """Kernel split and minor page faults of one step of the e2e APOTS_H fit.

    Times, per step, the fused LSTM forward and BPTT, the conv forward and
    backward (``col2im`` is part of the backward, also reported alone) and
    Adam, over same-seed fits after a warm one.  Faults are counted per
    step with ``getrusage``: the first step of a fit and the later ones
    apart, because a fit's first step allocates what the later ones reuse.
    """
    series = simulate(SimulationConfig(num_days=10, seed=2018))
    dataset = TrafficDataset(series, FeatureConfig(), seed=2018)
    names = ("lstm_forward", "lstm_bptt", "conv_forward", "conv_backward", "col2im", "adam")
    kernels = dict.fromkeys(names, 0.0)

    def timed(name, fn):
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                kernels[name] += time.perf_counter() - start

        return run

    backward_kernels = {"lstm_fused": "lstm_bptt", "conv2d": "conv_backward"}
    dispatch = nn.Tensor._backward_dispatch

    def timed_dispatch(node, grad, grads):
        name = backward_kernels.get(node._op)
        if name is None:
            return dispatch(node, grad, grads)
        return timed(name, dispatch)(node, grad, grads)

    monkeypatch.setattr(
        fused_rnn, "lstm_layer_forward", timed("lstm_forward", fused_rnn.lstm_layer_forward)
    )
    monkeypatch.setattr(ops, "conv2d", timed("conv_forward", ops.conv2d))
    monkeypatch.setattr(ops, "col2im", timed("col2im", ops.col2im))
    monkeypatch.setattr(nn.Adam, "step", timed("adam", nn.Adam.step))
    monkeypatch.setattr(nn.Tensor, "_backward_dispatch", timed_dispatch)

    stamps = []
    rollout_batch = dataset.rollout_batch

    def stamped(anchors):
        stamps.append((time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
        return rollout_batch(anchors)

    monkeypatch.setattr(dataset, "rollout_batch", stamped)

    def fit() -> APOTS:
        model = APOTS(
            "H", adversarial=True, conditional=True, preset="smoke",
            train_spec=APOTS_H_SPEC, seed=2018,
        )
        stamps.clear()
        model.fit(dataset)
        stamps.append((time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
        return model

    fit()  # warm
    kernels.update(dict.fromkeys(kernels, 0.0))
    fits, step_s, first_faults, later_faults = 3, [], [], []

    def run() -> list[str]:
        fingerprints = []
        for _ in range(fits):
            fingerprints.append(model_fingerprint(fit()))
            assert len(stamps) == APOTS_H_STEPS + 1
            step_s.extend(b[0] - a[0] for a, b in zip(stamps, stamps[1:]))
            faults = [b[1] - a[1] for a, b in zip(stamps, stamps[1:])]
            first_faults.append(faults[0])
            later_faults.extend(faults[1:])
        return fingerprints

    fingerprints = run_once(benchmark, run)
    steps = fits * APOTS_H_STEPS
    per_step_ms = {f"{name}_ms": 1e3 * total / steps for name, total in kernels.items()}
    step_ms = 1e3 * float(np.mean(step_s))
    faults_per_step = float(np.mean(later_faults))
    record_metric(
        "test_bench_apots_h_step",
        openblas_num_threads=os.environ.get("OPENBLAS_NUM_THREADS"),
        fits=fits,
        steps_per_fit=APOTS_H_STEPS,
        step_ms=step_ms,
        step_ms_p50=1e3 * float(np.median(step_s)),
        first_step_faults=float(np.mean(first_faults)),
        later_step_faults=faults_per_step,
        **per_step_ms,
    )
    report(
        "APOTS_H step (e2e train_apots_h fit, mean per step over "
        f"{steps} steps): {step_ms:.1f} ms = "
        + ", ".join(f"{name} {value:.2f}" for name, value in per_step_ms.items())
        + f" (col2im inside conv_backward); minor faults: first step of a fit "
        f"{np.mean(first_faults):.0f}, later steps {faults_per_step:.1f}"
    )
    assert fingerprints == [APOTS_H_FINGERPRINT] * fits
    assert faults_per_step < 100, f"{faults_per_step:.0f} minor faults per step after a fit's first"
