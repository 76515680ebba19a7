"""Fleet-serving benchmarks: shard parity, the saturation knee and a city tick's stages.

Three measurements:

* **shard-count invariance** — the one property that must hold on any
  machine: a mixed ``predict_many`` batch answered by 1-, 2- and
  4-shard fleets built from one checkpoint is bitwise identical.  This
  is asserted unconditionally (it is correctness, not performance).
* **saturation knee** — a deterministic open-loop replay
  (:mod:`repro.fleet.loadgen`, fixed seed) swept at 1x / 10x / 100x
  rate multipliers against a 2-shard fleet.  Offered vs served QPS,
  p50/p99 latency against scheduled arrival, shed rate and peak queue
  depth are **recorded** into ``BENCH_<preset>.json`` — never asserted:
  where the knee sits depends on the host's core count and speed, and a
  1-core CI runner saturates far earlier than a workstation.  The point
  is the trajectory across PRs, not a pass/fail bar.

* **city tick split** — a 2-shard fleet over a 1,022-segment grid city
  (the e2e ``city_fleet`` shape): each tick ingests every segment, then
  makes 50 cached calls of 4 seeded segments.  The tick is split into
  ingest, the first call after the ingest (which carries each
  replica's fill of the update) and the steady calls, with forwards
  per update per replica; the stage means are **recorded**, and only
  their sum is asserted, within 10% of the measured tick.  Run it with
  ``OPENBLAS_NUM_THREADS=1``, as the e2e benchmark runs every workload:
  with a BLAS thread per vCPU the parent and two replicas spin against
  each other and the split measures that.  The ledger entry records the
  setting.

The replay compresses the simulator's native 300 s tick to 0.25 s so
the whole sweep stays inside benchmark time; the ``rate`` multiplier
then scales from there exactly as it would from real cadence.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro import APOTS, FeatureConfig, SimulationConfig, TrafficDataset, simulate
from repro.core import save_model
from repro.core.config import ScalePreset
from repro.data.graph_features import GraphFeatureConfig
from repro.fleet import ArrivalSchedule, ForecastFleet, run_open_loop
from repro.network import graph_window_layout, grid_city, partition_starts, simulate_network
from repro.serving import Observation

from conftest import BENCH_SEED, record_metric, report, run_once

EFFECTIVE_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1
)

FLEET_PRESET = ScalePreset(
    name="bench-fleet",
    num_days=6,
    width_factor=0.05,
    epochs=2,
    adversarial_epochs=1,
    batch_size=64,
    adversarial_batch_size=8,
    max_steps_per_epoch=6,
)
WARM_TICKS = 15
RATES = (1.0, 10.0, 100.0)
#: Native tick compressed from the simulator's 300 s for benchmark time.
TICK_SECONDS = 0.25
LOAD_TICKS = 12
QUERIES_PER_TICK = 24.0


def _series():
    return simulate(SimulationConfig(num_days=6, seed=BENCH_SEED))


def _checkpoint(series, directory: str) -> str:
    dataset = TrafficDataset(series, FeatureConfig(), seed=5)
    model = APOTS(predictor="F", adversarial=False, preset=FLEET_PRESET, seed=0)
    model.fit(dataset)
    save_model(model, directory)
    return directory


def _replay(fleet, series, steps) -> None:
    for step in steps:
        fleet.ingest_many(
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
        )


def test_bench_fleet_shard_invariance(benchmark):
    series = _series()
    query = [4, 0, 7, 2, 2, 8, 5, 1, 3, 6, 4]

    def run() -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            checkpoint = _checkpoint(series, tmp)
            answers = {}
            for shards in (1, 2, 4):
                with ForecastFleet(checkpoint, series.num_segments, shards=shards) as fleet:
                    _replay(fleet, series, range(WARM_TICKS))
                    answers[shards] = fleet.predict_many(query)
            return answers

    answers = run_once(benchmark, run)
    assert answers[2] == answers[1], "2-shard fleet diverged from process-free fleet"
    assert answers[4] == answers[1], "4-shard fleet diverged from process-free fleet"
    assert [f.segment_id for f in answers[1]] == query, "request order not preserved"
    record_metric(
        "test_bench_fleet_shard_invariance",
        shard_counts=[1, 2, 4], queries=len(query), bitwise_identical=True,
    )
    report(
        f"fleet shard invariance: {len(query)} mixed queries bitwise identical "
        f"across shards {{1, 2, 4}}"
    )


def test_bench_fleet_saturation_knee(benchmark):
    series = _series()

    def run() -> dict:
        rows = {}
        with tempfile.TemporaryDirectory() as tmp:
            checkpoint = _checkpoint(series, tmp)
            for rate in RATES:
                schedule = ArrivalSchedule.from_series(
                    series,
                    seed=BENCH_SEED,
                    rate=rate,
                    ticks=LOAD_TICKS,
                    start_step=WARM_TICKS,
                    queries_per_tick=QUERIES_PER_TICK,
                    tick_seconds=TICK_SECONDS,
                )
                with ForecastFleet(
                    checkpoint, series.num_segments, shards=2, max_queue_per_shard=32
                ) as fleet:
                    _replay(fleet, series, range(WARM_TICKS))
                    rows[rate] = run_open_loop(fleet, schedule)
        return rows

    rows = run_once(benchmark, run)
    for rate, row in rows.items():
        assert row.served + row.shed == row.offered, (
            f"rate {rate}x dropped requests silently: {row}"
        )
        record_metric(
            "test_bench_fleet_saturation_knee",
            **{
                f"rate_{rate:g}x": {
                    "offered_qps": row.offered_qps,
                    "served_qps": row.served_qps,
                    "p50_ms": row.p50_ms,
                    "p99_ms": row.p99_ms,
                    "shed_rate": row.shed_rate,
                    "max_queue_depth": row.max_queue_depth,
                }
            },
        )
    record_metric(
        "test_bench_fleet_saturation_knee",
        effective_cores=EFFECTIVE_CORES, shards=2,
        tick_seconds=TICK_SECONDS, ticks=LOAD_TICKS,
    )
    report(
        "fleet saturation knee (2 shards, open-loop replay, "
        f"{EFFECTIVE_CORES} cores):\n"
        + "\n".join(f"  {rows[rate].render()}" for rate in RATES)
    )


CITY_GRID = (16, 17)  # 1,022 segments
CITY_PRESET = ScalePreset(
    name="bench-city",
    num_days=1,
    width_factor=0.05,
    epochs=1,
    adversarial_epochs=1,
    batch_size=64,
    max_steps_per_epoch=6,
)
CITY_TICKS = 40
CITY_CALLS_PER_TICK = 50
CITY_QUERY_SIZE = 4


def _city_tick(series, step: int) -> list[Observation]:
    """Every segment's reading for ``step``, as a feed of Observation objects sends it."""
    column = step % series.num_steps
    speeds, events = series.speeds[:, column].tolist(), series.events[:, column].tolist()
    temperature, precipitation = float(series.temperature[column]), float(series.precipitation[column])
    day_type = tuple(series.day_types[column].tolist())
    return [
        Observation(segment, step, speeds[segment], events[segment], temperature, precipitation, day_type)
        for segment in range(series.num_segments)
    ]


def _forwards_and_updates(fleet) -> list[tuple[int, int]]:
    """Per replica, (forwards run, store updates) so far."""
    return [
        (replica["histograms"].get("batch_size", {"count": 0})["count"], replica["windows"]["updates"])
        for replica in fleet.snapshot()["replicas"]
    ]


def test_bench_city_tick_split(benchmark):
    city = grid_city(*CITY_GRID, seed=0)
    history = simulate_network(city, SimulationConfig(num_days=1, seed=BENCH_SEED))
    stream = simulate_network(city, SimulationConfig(num_days=1, seed=BENCH_SEED + 1))
    config = GraphFeatureConfig(layout=graph_window_layout(city, 2))

    def run() -> dict:
        stages: dict[str, list[float]] = {"tick": [], "ingest": [], "first_call": [], "steady_calls": []}
        with tempfile.TemporaryDirectory() as tmp:
            model = APOTS("F", adversarial=False, features=config, preset=CITY_PRESET, seed=BENCH_SEED)
            model.fit(TrafficDataset(history, config, seed=BENCH_SEED))
            save_model(model, tmp)
            rng = np.random.default_rng(BENCH_SEED)
            starts = partition_starts(city, 2)
            with ForecastFleet(tmp, len(city), shards=2, shard_starts=starts) as fleet:
                for step in range(config.alpha):
                    fleet.ingest_many(_city_tick(stream, step))
                before = _forwards_and_updates(fleet)
                for step in range(config.alpha, config.alpha + CITY_TICKS):
                    batch = _city_tick(stream, step)  # the feed's work, not the fleet's
                    tick_start = time.perf_counter()
                    queries = rng.integers(0, len(city), size=(CITY_CALLS_PER_TICK, CITY_QUERY_SIZE))
                    ingest_start = time.perf_counter()
                    fleet.ingest_many(batch)
                    stamps = [time.perf_counter()]
                    for query in queries.tolist():
                        fleet.predict_many(query)
                        stamps.append(time.perf_counter())
                    stages["tick"].append(stamps[-1] - tick_start)
                    stages["ingest"].append(stamps[0] - ingest_start)
                    stages["first_call"].append(stamps[1] - stamps[0])
                    stages["steady_calls"].append(stamps[-1] - stamps[1])
                after = _forwards_and_updates(fleet)
        per_update = [(a[0] - b[0]) / (a[1] - b[1]) for a, b in zip(after, before)]
        return {"ms": {name: 1e3 * float(np.mean(values)) for name, values in stages.items()}, "per_update": per_update}

    result = run_once(benchmark, run)
    ms = result["ms"]
    staged = ms["ingest"] + ms["first_call"] + ms["steady_calls"]
    assert abs(staged - ms["tick"]) <= 0.1 * ms["tick"], f"stages {staged:.2f} ms do not add up to the tick {ms['tick']:.2f} ms"
    record_metric(
        "test_bench_city_tick_split",
        ticks=CITY_TICKS,
        calls_per_tick=CITY_CALLS_PER_TICK,
        openblas_num_threads=os.environ.get("OPENBLAS_NUM_THREADS"),
        tick_ms=ms["tick"],
        ingest_ms=ms["ingest"],
        first_call_ms=ms["first_call"],
        steady_calls_ms=ms["steady_calls"],
        steady_call_ms=ms["steady_calls"] / (CITY_CALLS_PER_TICK - 1),
        forwards_per_update_per_replica=result["per_update"],
    )
    report(
        f"city tick split (2 shards, {len(city)} segments, mean of {CITY_TICKS} ticks): "
        f"tick {ms['tick']:.2f} ms = ingest {ms['ingest']:.2f} + first call {ms['first_call']:.2f} "
        f"+ {CITY_CALLS_PER_TICK - 1} steady calls {ms['steady_calls']:.2f} (+ drawing the queries); "
        f"forwards per update per replica {[round(f, 2) for f in result['per_update']]}"
    )
