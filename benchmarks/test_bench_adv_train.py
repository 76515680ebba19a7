"""Adversarial-training benchmark: augmenter cost and hardened-fit overhead.

Times the two prices a hardened run pays over a clean one:

* raw :class:`repro.core.AdversarialAugmenter` throughput — one
  ``augment_batch`` call is an FGSM pass over the selected rows plus a
  grad-free robust-loss evaluation (the clean loss rides along with the
  attack's own gradient pass); and
* end-to-end fit overhead — the same ``APOTS`` fit with
  ``robust_fraction=0.5`` versus ``0.0``, the number EXPERIMENTS.md
  quotes when sizing an ``adv_train`` run.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro import APOTS, FeatureConfig, SimulationConfig, TrafficDataset, simulate
from repro.core import AdversarialAugmenter, TrainSpec

from conftest import BENCH_SEED, record_metric, report, run_once

#: Windows per augmented batch (matches the attack benchmarks).
BATCH_WINDOWS = 64
#: augment_batch calls timed per benchmark run.
AUGMENT_CALLS = 20

#: Fit shape for the overhead comparison (micro on purpose: the ratio,
#: not the absolute seconds, is the artefact).
FIT_SPEC = TrainSpec(
    epochs=2, max_steps_per_epoch=8, batch_size=32,
    robust_fraction=0.5, adv_epsilon_kmh=5.0, seed=BENCH_SEED,
)


def make_fitted(spec: TrainSpec):
    series = simulate(SimulationConfig(num_days=8, seed=BENCH_SEED))
    dataset = TrafficDataset(series, FeatureConfig(alpha=12, beta=1, m=2), seed=0)
    model = APOTS(predictor="F", adversarial=False, train_spec=spec, seed=0)
    model.fit(dataset)
    return model, dataset


def test_bench_augment_batch(benchmark):
    model, dataset = make_fitted(replace(FIT_SPEC, robust_fraction=0.0))
    augmenter = AdversarialAugmenter.from_spec(model.predictor, model.scalers, FIT_SPEC)
    batch = dataset.batch(dataset.subset("train")[:BATCH_WINDOWS])

    def run() -> dict:
        start = time.perf_counter()
        last_info = None
        for step in range(AUGMENT_CALLS):
            _, last_info = augmenter.augment_batch(batch, epoch=0, step=step)
        seconds = time.perf_counter() - start
        return {
            "calls_per_s": AUGMENT_CALLS / seconds,
            "windows_per_s": AUGMENT_CALLS * BATCH_WINDOWS / seconds,
            "ms_per_call": 1e3 * seconds / AUGMENT_CALLS,
            "info": last_info,
        }

    result = run_once(benchmark, run)
    info = result["info"]
    record_metric(
        "test_bench_augment_batch",
        calls_per_s=result["calls_per_s"],
        windows_per_s=result["windows_per_s"],
    )
    report(
        "## Adversarial training: augmenter throughput "
        f"({BATCH_WINDOWS} windows x {AUGMENT_CALLS} calls, fgsm)\n"
        f"augment_batch : {result['ms_per_call']:10.2f} ms/call "
        f"({result['windows_per_s']:.0f} windows/s)\n"
        f"perturbed     : {info.num_perturbed:10d} of {info.num_samples} rows, "
        f"max |delta| {info.max_abs_delta_kmh:.2f} km/h (budget {info.epsilon_kmh:.2f})"
    )
    assert info.num_perturbed == BATCH_WINDOWS // 2
    assert info.max_abs_delta_kmh <= info.epsilon_kmh + 1e-9


def test_bench_hardened_fit_overhead(benchmark):
    def run() -> dict:
        start = time.perf_counter()
        make_fitted(replace(FIT_SPEC, robust_fraction=0.0))
        clean_s = time.perf_counter() - start
        start = time.perf_counter()
        make_fitted(FIT_SPEC)
        hardened_s = time.perf_counter() - start
        return {
            "clean_s": clean_s,
            "hardened_s": hardened_s,
            "overhead": hardened_s / clean_s,
        }

    result = run_once(benchmark, run)
    record_metric(
        "test_bench_hardened_fit_overhead",
        clean_s=result["clean_s"],
        hardened_s=result["hardened_s"],
        overhead_x=result["overhead"],
    )
    report(
        "## Adversarial training: hardened-fit overhead "
        f"(robust_fraction={FIT_SPEC.robust_fraction}, "
        f"eps={FIT_SPEC.adv_epsilon_kmh} km/h, fgsm)\n"
        f"clean fit    : {result['clean_s']:10.2f} s\n"
        f"hardened fit : {result['hardened_s']:10.2f} s "
        f"({result['overhead']:.2f}x clean)"
    )
    # Timer-noise tolerant: at micro scale the augmenter adds ~10-30%,
    # well inside this band; a big regression still trips the ceiling.
    assert 0.8 <= result["overhead"] <= 25.0
