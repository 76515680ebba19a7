#!/usr/bin/env python
"""CI smoke test for :mod:`repro.fleet` (run by ``tools/ci.sh``).

Two checks, both against live replica processes:

1. **Shard parity** — a 2-shard :class:`ForecastFleet` must answer a
   mixed ``predict_many`` batch bitwise-identically to the process-free
   ``shards=1`` fleet built from the same checkpoint and fed the same
   stream.  A sparse pass then makes cached 2-segment calls after one
   more ingest, fed as an ``ObservationBatch`` of columns: they must
   equal the ``shards=1`` fleet's cached answers bitwise (``from_cache``
   included), the parent must have answered some of them from the
   replicas' forecast tables (``answered_in_parent`` above 0), every
   replica must still report reads served from its padding fill
   (``fill_served`` above 0) once the snapshot has replayed them, and
   each replica must have run exactly one fill in that one store update.
2. **Crash degradation** — after ``kill_replica`` hard-exits one
   replica, the lost shard's segments must come back as degraded naive
   persistence (never an exception, never a hang), the surviving shard
   must keep serving model forecasts, and the loss must be visible as a
   schema-valid ``fleet_shard_lost`` event in the obs run log.

Runs in under a minute at smoke scale::

    PYTHONPATH=src python tools/fleet_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from repro import APOTS
from repro.core import save_model
from repro.core.config import ScalePreset
from repro.data import FeatureConfig, TrafficDataset
from repro.fleet import ForecastFleet
from repro.obs import RunRecorder, validate_run_dir
from repro.serving import Observation, ObservationBatch
from repro.traffic import SimulationConfig, simulate

SMOKE_PRESET = ScalePreset(
    name="fleet-smoke",
    num_days=6,
    width_factor=0.05,
    epochs=2,
    adversarial_epochs=1,
    batch_size=64,
    adversarial_batch_size=8,
    max_steps_per_epoch=4,
)
WARM_TICKS = 15


def _tick(series, step: int) -> list[Observation]:
    return [
        Observation(
            segment_id=segment,
            step=step,
            speed_kmh=float(series.speeds[segment, step]),
            event=float(series.events[segment, step]),
            temperature=float(series.temperature[step]),
            precipitation=float(series.precipitation[step]),
            day_type=tuple(series.day_types[step]),
        )
        for segment in range(series.num_segments)
    ]


def _replay(fleet, series, steps) -> None:
    for step in steps:
        fleet.ingest_many(_tick(series, step))


def _make_checkpoint(series, directory: str) -> str:
    dataset = TrafficDataset(series, FeatureConfig(), seed=5)
    model = APOTS(predictor="F", adversarial=False, preset=SMOKE_PRESET, seed=0)
    model.fit(dataset)
    save_model(model, directory)
    return directory


def check_shard_parity(checkpoint: str, series) -> None:
    query = [4, 0, 7, 2, 2, 8, 5, 1, 3, 6, 4]
    with ForecastFleet(checkpoint, series.num_segments, shards=1) as single, ForecastFleet(
        checkpoint, series.num_segments, shards=2
    ) as sharded:
        for fleet in (single, sharded):
            _replay(fleet, series, range(WARM_TICKS))
        reference = single.predict_many(query)
        answers = sharded.predict_many(query)
        assert answers == reference, (
            "2-shard fleet diverged from the process-free fleet:\n"
            f"  shards=1: {reference}\n  shards=2: {answers}"
        )
        assert [f.segment_id for f in answers] == query, "request order not preserved"
        print(f"shard parity: OK ({len(query)} queries, shards 1 == 2, order preserved)")

        # Sparse pass: after one ingest, fed as columns, cached 2-segment
        # calls.  Each replica's first forward of the update forecasts
        # all its other ready windows, once, and later calls are
        # answered from that fill.
        before = _fills_and_updates(sharded)
        tick = ObservationBatch.from_observations(_tick(series, WARM_TICKS))
        for fleet in (single, sharded):
            fleet.ingest_many(tick)
        calls = [[2, 6], [3, 5], [4, 8], [5, 3, 5]]
        reference = [single.predict_many(call) for call in calls]
        answers = [sharded.predict_many(call) for call in calls]
        assert answers == reference, (
            "cached sparse calls on the 2-shard fleet diverged from shards=1:\n"
            f"  shards=1: {reference}\n  shards=2: {answers}"
        )
        snapshot = sharded.snapshot()
        in_parent = snapshot["telemetry"]["counters"].get("answered_in_parent", 0)
        assert in_parent > 0, "the parent answered no read from the replicas' forecast tables"
        served = [replica["fill"]["served"] for replica in snapshot["replicas"]]
        assert all(count > 0 for count in served), f"replicas served nothing from fills: {served}"
        after = _fills_and_updates(sharded)
        assert all(a[0] - b[0] == a[1] - b[1] == 1 for a, b in zip(after, before)), (
            f"expected one fill per replica in the one update, (fills, updates) went {before} -> {after}"
        )
    print(
        f"sparse parity: OK ({len(calls)} cached calls == shards=1, {in_parent:.0f} reads "
        f"answered in the parent, one fill per replica per update, fill_served {served})"
    )


def _fills_and_updates(fleet) -> list[tuple[int, int]]:
    """Per replica, (fill passes run, store updates) so far."""
    return [
        (replica["counters"].get("fills", 0), replica["windows"]["updates"])
        for replica in fleet.snapshot()["replicas"]
    ]


def check_crash_degradation(checkpoint: str, series) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        recorder = RunRecorder(tmp, manifest={"tool": "fleet_smoke"})
        with ForecastFleet(
            checkpoint, series.num_segments, shards=2, recorder=recorder
        ) as fleet:
            _replay(fleet, series, range(WARM_TICKS))
            lost_shard = 1
            lo, hi = fleet.shard_map.owned_range(lost_shard)
            fleet.kill_replica(lost_shard)
            forecasts = fleet.predict_many(list(range(series.num_segments)))
            assert fleet.lost_shards == [lost_shard], (
                f"expected shard {lost_shard} lost, got {fleet.lost_shards}"
            )
            shed = [f for f in forecasts if lo <= f.segment_id < hi]
            assert shed and all(
                f.degraded and f.source == "naive" and "load shed" in f.degraded_reason
                for f in shed
            ), "lost shard's segments must degrade to shed naive persistence"
            survivors = [f for f in forecasts if not lo <= f.segment_id < hi]
            assert any(f.source == "model" for f in survivors), (
                "surviving shard stopped serving model forecasts"
            )
        recorder.close()

        errors = validate_run_dir(tmp)
        assert not errors, f"fleet events failed schema validation: {errors}"
        with open(os.path.join(tmp, "events.jsonl"), encoding="utf-8") as handle:
            kinds = [json.loads(line)["kind"] for line in handle]
    assert kinds.count("fleet_shard_lost") == 1, (
        f"expected one fleet_shard_lost event, saw kinds {set(kinds)}"
    )
    assert "fleet_shed" in kinds, "sheds must be observable as fleet_shed events"
    print(
        f"crash degradation: OK ({len(shed)} queries shed to naive, "
        "schema-valid fleet_shard_lost)"
    )


def main() -> int:
    series = simulate(SimulationConfig(num_days=6, seed=99))
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = _make_checkpoint(series, tmp)
        check_shard_parity(checkpoint, series)
        check_crash_degradation(checkpoint, series)
    print("fleet_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
