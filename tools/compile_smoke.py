#!/usr/bin/env python
"""CI smoke check for the compiled-tape replayer (run by ``tools/ci.sh``).

Trains the same micro models twice — eagerly and with ``compile=True`` —
and fails unless the compiled runs are *bitwise* identical to the eager
ones: every logged loss, every final weight.  Three hot paths are
covered end to end:

* a hardened :class:`repro.core.trainer.SupervisedTrainer` fit (FGSM
  augmentation), which exercises the forward/loss tapes plus the
  ``input_grads_only`` attack-gradient tapes;
* a hardened :class:`repro.core.APOTSTrainer` fit (PGD augmentation),
  which adds the rollout/discriminator/predictor tape trio;
* the tapes must actually *replay*: a run that silently fell back to
  eager (every tape rejected) would pass a pure parity check while
  benchmarking nothing, so the smoke also asserts trusted replays
  happened.

A fourth check covers serving: a :class:`repro.serving.ForecastService`
must end up replaying a trusted forward tape, and every forecast it
serves must equal eager ``Predictor.predict`` on the same zero-padded
batch, bitwise.

The compile layer validates each tape against an eager shadow run
before trusting it, so a broken replay rule surfaces here as either a
parity failure or a zero-replay failure — never as silently wrong
numbers.

Usage::

    PYTHONPATH=src python tools/compile_smoke.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro import APOTS  # noqa: E402
from repro.core import (  # noqa: E402
    APOTSTrainer,
    Discriminator,
    TrainSpec,
    build_predictor,
    table1_spec,
)
from repro.core.config import ScalePreset  # noqa: E402
from repro.core.trainer import SupervisedTrainer  # noqa: E402
from repro.data import FeatureConfig, TrafficDataset  # noqa: E402
from repro.serving import ForecastService, Observation  # noqa: E402
from repro.traffic import SimulationConfig, simulate  # noqa: E402

SEED = 7


def state_bytes(module) -> dict:
    return {k: (v.shape, v.tobytes()) for k, v in module.state_dict().items()}


def history_bytes(history) -> str:
    return repr(vars(history))


def replay_count(trainer) -> int:
    """Total trusted replays across a trainer's compiled functions."""
    total = 0
    for attr in vars(trainer).values():
        stats = getattr(attr, "stats", None)
        if isinstance(stats, dict) and "replay" in stats:
            total += stats["replay"]
    return total


def run_smoke() -> list[str]:
    failures: list[str] = []
    series = simulate(SimulationConfig(num_days=6, seed=SEED))
    dataset = TrafficDataset(series, FeatureConfig(), seed=SEED)

    # -- supervised + FGSM augmentation --------------------------------
    sup_keys = {}
    for compiled in (False, True):
        rng = np.random.default_rng(3)
        predictor = build_predictor("F", dataset.config, spec=table1_spec("F", 0.05), rng=rng)
        spec = TrainSpec(
            epochs=2, batch_size=16, max_steps_per_epoch=4, seed=SEED,
            robust_fraction=0.5, adv_epsilon_kmh=5.0, adv_attack="fgsm",
            compile=compiled,
        )
        trainer = SupervisedTrainer(predictor, spec)
        history = trainer.fit(dataset)
        sup_keys[compiled] = (history_bytes(history), state_bytes(predictor))
        if compiled and replay_count(trainer) == 0:
            failures.append("supervised: compiled fit never replayed a trusted tape")
    if sup_keys[False] != sup_keys[True]:
        failures.append("supervised: compiled fit diverged bitwise from eager")

    # -- APOTS + PGD augmentation --------------------------------------
    apots_keys = {}
    for compiled in (False, True):
        rng = np.random.default_rng(3)
        spec_t1 = table1_spec("L", 0.05)
        predictor = build_predictor("L", dataset.config, spec=spec_t1, rng=rng)
        disc = Discriminator(dataset.config, spec=spec_t1, conditional=True, rng=rng)
        spec = TrainSpec(
            epochs=1, adversarial_batch_size=8, max_steps_per_epoch=4, seed=SEED,
            robust_fraction=0.5, adv_epsilon_kmh=5.0, adv_attack="pgd",
            adv_pgd_steps=2, compile=compiled,
        )
        trainer = APOTSTrainer(predictor, disc, spec)
        history = trainer.fit(dataset)
        apots_keys[compiled] = (
            history_bytes(history), state_bytes(predictor), state_bytes(disc)
        )
        if compiled and replay_count(trainer) == 0:
            failures.append("apots: compiled fit never replayed a trusted tape")
    if apots_keys[False] != apots_keys[True]:
        failures.append("apots: compiled fit diverged bitwise from eager")

    failures.extend(serving_smoke(series, dataset))
    return failures


def serving_smoke(series, dataset) -> list[str]:
    """Served forecasts replay a trusted tape and equal eager predict, bitwise."""
    preset = ScalePreset(
        name="smoke", num_days=6, width_factor=0.05, epochs=1,
        adversarial_epochs=1, batch_size=64, max_steps_per_epoch=4,
    )
    model = APOTS("F", adversarial=False, preset=preset, seed=SEED).fit(dataset)
    service = ForecastService(model, series.num_segments)
    m, alpha = model.features.m, model.features.alpha
    segments = list(range(m, series.num_segments - m))
    speed = model.scalers.speed
    rows = service.batcher.max_batch_size
    for step in range(alpha + 5):
        service.ingest_many(
            Observation(
                segment, step, float(series.speeds[segment, step]),
                float(series.events[segment, step]), float(series.temperature[step]),
                float(series.precipitation[step]), tuple(series.day_types[step]),
            )
            for segment in range(series.num_segments)
        )
        if step + 1 < alpha:
            continue
        served = [f.speed_kmh for f in service.predict_many(segments, use_cache=False)]
        views = service.store.windows_many(segments)
        first = views[0]
        batch = [np.zeros((rows, *a.shape)) for a in (first.image, first.day_type, first.flat)]
        for row, view in enumerate(views):
            batch[0][row], batch[1][row], batch[2][row] = view.image, view.day_type, view.flat
        scaled = model.predictor.predict(*batch)[: len(views)]
        if served != [float(speed.inverse_transform(np.asarray([v]))[0]) for v in scaled]:
            return [f"serving: step {step} forecasts diverged bitwise from eager predict"]
    forward = service.snapshot()["forward"]
    if forward["tape"] != "trusted" or forward["path"] != "replay":
        return [f"serving: forward never replayed a trusted tape ({forward})"]
    return []


def main() -> int:
    failures = run_smoke()
    if failures:
        print("compile smoke FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        "compile smoke OK: compiled training/attack/serving paths are bitwise-eager "
        "and replay tapes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
