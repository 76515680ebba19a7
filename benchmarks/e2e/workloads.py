"""The four end-to-end workloads, their set-up, metrics and correctness checks.

Every workload follows the same shape:

1. **set-up**, repeated ``setup_repeats`` times so ``setup_s`` is a
   median: simulate the inputs from the workload seed, build features,
   fit a checkpoint, load it, spawn replicas, warm the stream.  Half
   the set-ups run before the measurement, which uses the last of
   them, and the rest after it;
2. **measure** a closed loop for ``seconds`` (each caller waits for its
   reply), never stopping before the fixed prefix the recorded accuracy
   covers, so ``forecast_mae_kmh`` is a pure function of the seed;
3. **check** outputs against references computed outside the timed
   region.

With ``trace=True`` the measured time is split: the first half runs
untraced, the second half runs with spans around the public calls of
each layer (:mod:`spans`), and the two throughputs give
``trace.overhead_share``.

The benchmark only times public calls from outside: nothing under
``src/`` knows it is being measured.
"""

from __future__ import annotations

import functools
import math
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro import APOTS, FeatureConfig, ForecastService, Observation, SimulationConfig, TrafficDataset, simulate
from repro import nn
from repro.core import HybridPredictor, save_model
from repro.core.config import ScalePreset, TrainSpec
from repro.core.zoo import model_fingerprint
from repro.data.graph_features import GraphFeatureConfig, GraphTrafficDataset
from repro.fleet import ArrivalSchedule, ForecastFleet
from repro.network import graph_window_layout, grid_city, partition_starts, simulate_network
from repro.obs import RunRecorder
from repro.parallel import WorkerGroup
from repro.traffic import Corridor

from spans import Tracer

WORKLOADS = ("corridor_forward", "corridor_dashboard", "city_fleet", "train_apots_h")

ALPHA = 12
SERVE_FEATURES = FeatureConfig(alpha=ALPHA, beta=1, m=2)
CORRIDOR_SEGMENTS = 68
#: With m=2 the two segments at each corridor end have no full window.
SERVABLE = tuple(range(2, CORRIDOR_SEGMENTS - 2))
MAX_BATCH = 64
DASHBOARD_USERS = 24
CITY_GRID = (16, 17)  # 1,022 segments
CITY_SHARDS = 2
CITY_CALLS_PER_TICK = 50
CITY_QUERY_SIZE = 4
OPEN_LOOP_QPS = 100.0
TRAIN_DAYS = 10
TRAIN_BATCH = 32
#: Every CHECK_EVERY ticks, CHECK_SEGMENTS forecasts (rotating along the
#: corridor) are recomputed one window at a time.
CHECK_EVERY = 100
CHECK_SEGMENTS = 4
#: Consecutive stretches a run is cut into for its timing metrics.
STRETCHES = 20

#: Smoke widths and a short fixed fit: the serving workloads measure
#: serving, so their checkpoint only has to be a real trained network.
SERVE_PRESET = ScalePreset(
    name="bench-serve", num_days=8, width_factor=0.0625, epochs=1,
    adversarial_epochs=1, batch_size=64, max_steps_per_epoch=12,
)
CITY_PRESET = ScalePreset(
    name="bench-city", num_days=1, width_factor=0.05, epochs=1,
    adversarial_epochs=1, batch_size=64, max_steps_per_epoch=6,
)

#: Operations the recorded accuracy covers, always completed whatever
#: the time limit: a whole simulated day of corridor ticks, 4,000 city
#: forecasts, the first training fit.  The dashboard serves the same
#: forecasts as ``corridor_forward`` and records none.
MAE_OPS = {"corridor_forward": 288, "corridor_dashboard": 1, "city_fleet": 20, "train_apots_h": 1}

#: The tail percentile of each workload's requests (see :meth:`Phase.timings`),
#: with at least ten samples beyond it in a 20 s run.  p99 on the
#: dashboard is its cache-miss latency.  Corridor ticks and city calls
#: are alike, so their p99 measures host hiccups and moved 9-17% between
#: runs of the same code against 5% for p95.  The ~60 training steps a
#: run pools leave room for p80 only.
TAIL_PERCENTILE = {"corridor_forward": 95, "corridor_dashboard": 99, "city_fleet": 95, "train_apots_h": 80}

SETUP_STAGES = ("simulate", "features", "checkpoint_fit", "checkpoint_load", "fleet_spawn", "warm")

#: Every per-layer metric, emitted by every traced workload; a layer the
#: workload's path never reaches reads 0 with 0 samples.
PER_LAYER = {
    **{f"setup.{stage}_s": "s" for stage in SETUP_STAGES},
    "serving.state.ingest_ms_p50": "ms",
    "serving.state.windows_ms_p50": "ms",
    "serving.state.busy_share": "ratio",
    "serving.batcher.rows_per_forward": "rows",
    "serving.batcher.pad_ratio": "ratio",
    "nn.serve_forward_ms_p50": "ms",
    "nn.serve_forward_share": "ratio",
    "serving.cache.hit_ratio": "ratio",
    "serving.cache.busy_share": "ratio",
    "serving.service.self_ms_p50": "ms",
    "serving.service.self_share": "ratio",
    "fleet.ingest_ms_p50": "ms",
    "parallel.ingest_bytes_per_tick": "bytes",
    "fleet.replica_predict_ms_mean": "ms",
    "fleet.ipc_share": "ratio",
    "fleet.shards_per_call": "count",
    "fleet.open_loop.p50_ms": "ms",
    "fleet.open_loop.p99_ms": "ms",
    "fleet.open_loop.shed_share": "ratio",
    "fleet.open_loop.peak_queue": "count",
    "fleet.open_loop.generator_lag_p99_ms": "ms",
    "data.rollout_batch_ms_p50": "ms",
    "core.d_step_ms_p50": "ms",
    "core.p_step_ms_p50": "ms",
    "nn.predictor_forward_calls_per_step": "count",
    "nn.predictor_forward_ms_p50": "ms",
    "nn.adam_step_ms_p50": "ms",
    "core.step_coverage": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_share": "ratio",
}


class Metric(NamedTuple):
    value: float
    unit: str
    samples: int


@dataclass
class Result:
    """What one workload run reports."""

    workload: str
    end_to_end: dict[str, Metric] = field(default_factory=dict)
    per_layer: dict[str, Metric] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def observations(series, step: int) -> list[Observation]:
    """Every segment's reading for feed ``step``; the series repeats past its end.

    Series hold whole days, so wrapping keeps time of day continuous.
    """
    column = step % series.num_steps
    speeds = series.speeds[:, column].tolist()
    events = series.events[:, column].tolist()
    temperature = float(series.temperature[column])
    precipitation = float(series.precipitation[column])
    day_type = tuple(series.day_types[column].tolist())
    return [
        Observation(
            segment_id=segment,
            step=step,
            speed_kmh=speeds[segment],
            event=events[segment],
            temperature=temperature,
            precipitation=precipitation,
            day_type=day_type,
        )
        for segment in range(series.num_segments)
    ]


def absolute_errors(forecasts, series) -> list[float]:
    """|served - truth| in km/h, truth read at each forecast's target step."""
    speeds = series.speeds
    return [
        abs(f.speed_kmh - float(speeds[f.segment_id, f.target_step % series.num_steps]))
        for f in forecasts
    ]


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Stages:
    """Accumulates wall time per set-up stage."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(SETUP_STAGES, 0.0)

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start


def timed_setup(build: Callable[[Stages], object]) -> tuple[object, dict[str, float]]:
    """Build one rig; returns it with the seconds each set-up stage took."""
    stages = Stages()
    return build(stages), stages.seconds


class Cycle(NamedTuple):
    """One tick (or training step): from building its requests to the last reply.

    The benchmark's own bookkeeping and checks fall outside ``seconds``.
    """

    ops: int
    seconds: float
    latencies_s: list[float]


class Timings(NamedTuple):
    throughput_ops_s: float
    p50_ms: float
    tail_ms: float
    tail_samples: int


@dataclass
class Phase:
    """One measured closed-loop phase."""

    cycles: list[Cycle] = field(default_factory=list)
    ops: int = 0
    measured_s: float = 0.0
    failed: int = 0
    errors_kmh: list[float] = field(default_factory=list)
    ok: bool = True
    extra: dict = field(default_factory=dict)

    def record(self, ops: int, seconds: float, latencies_s: list[float]) -> None:
        self.cycles.append(Cycle(ops, seconds, latencies_s))
        self.ops += ops
        self.measured_s += seconds

    @property
    def latencies(self) -> int:
        return sum(len(cycle.latencies_s) for cycle in self.cycles)

    def timings(self, tail_percentile: float) -> Timings:
        """Throughput and latency of the run's least disturbed stretches.

        The run is cut into ``STRETCHES`` consecutive stretches of cycles.
        Other tenants of a shared host only ever add time, in bursts of
        seconds, so the faster stretches measure the code rather than
        the neighbours: throughput is the upper quartile of the stretch
        rates, the median latency is the lower quartile of the stretch
        medians, and the tail is taken over the latencies of the faster
        half of the stretches.
        """
        stretches = [s for s in np.array_split(np.arange(len(self.cycles)), STRETCHES) if len(s)]
        if not stretches:
            return Timings(0.0, 0.0, 0.0, 0)
        rates, medians, latencies = [], [], []
        for stretch in stretches:
            cycles = [self.cycles[i] for i in stretch]
            rates.append(sum(c.ops for c in cycles) / sum(c.seconds for c in cycles))
            latencies.append([s for c in cycles for s in c.latencies_s])
            medians.append(np.median(latencies[-1]))
        faster = [s for rate, lat in zip(rates, latencies) if rate >= np.median(rates) for s in lat]
        return Timings(
            float(np.percentile(rates, 75)),
            float(np.percentile(medians, 25)) * 1e3,
            percentile(faster, tail_percentile) * 1e3,
            len(faster),
        )


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


# ----------------------------------------------------------------------
# Correctness checks (pure comparisons, so the self-test can perturb them)
# ----------------------------------------------------------------------
def dashboard_tick_ok(calls, reference: list[float]) -> bool:
    """First call of a tick misses, every later call hits, all exactly equal ``reference``."""
    first, *hits = calls
    return (
        not any(f.from_cache for f in first)
        and all(f.from_cache for call in hits for f in call)
        and all([f.speed_kmh for f in call] == reference for call in calls)
    )


def hit_ratio_ok(hits: int, misses: int) -> bool:
    """Exactly DASHBOARD_USERS - 1 hits per miss: ratio 23/24."""
    return misses > 0 and hits == (DASHBOARD_USERS - 1) * misses


def open_loop_ok(offered: int, served: int, shed: int) -> bool:
    return offered > 0 and served + shed == offered


def training_ok(losses: list[float], fingerprints: list[str]) -> bool:
    """Finite epoch losses, and every same-seed fit ends on the same weights."""
    return (
        len(losses) > 0
        and all(math.isfinite(value) for value in losses)
        and len(set(fingerprints)) == 1
    )


def reference_forecasts(service: ForecastService, segments) -> list[float]:
    """Per-window ``predictor.predict`` on ``store.window`` views, in km/h.

    Each window is zero-padded to the batcher's ``MAX_BATCH`` rows, the
    shape the batcher pins so a forecast does not depend on its
    co-riders; row 0 is the answer.
    """
    predictor = service.model.predictor
    speed = service.model.scalers.speed
    values = []
    for segment in segments:
        view = service.store.window(segment)
        images = np.zeros((MAX_BATCH, *view.image.shape))
        day_types = np.zeros((MAX_BATCH, *view.day_type.shape))
        flat = np.zeros((MAX_BATCH, *view.flat.shape))
        images[0], day_types[0], flat[0] = view.image, view.day_type, view.flat
        scaled = predictor.predict(images, day_types, flat)[0]
        values.append(float(speed.inverse_transform(np.asarray([scaled]))[0]))
    return values


# ----------------------------------------------------------------------
# Corridor: one in-process ForecastService over a 68-segment corridor
# ----------------------------------------------------------------------
class CorridorRig:
    def __init__(self, stages: Stages, seed: int, out_dir: Path):
        with stages("simulate"):
            history = simulate(SimulationConfig(num_days=SERVE_PRESET.num_days, seed=seed))
            corridor = Corridor.gyeongbu(num_segments=CORRIDOR_SEGMENTS)
            self.stream = simulate(SimulationConfig(num_days=1, seed=seed + 1), corridor=corridor)
        with stages("features"):
            dataset = TrafficDataset(history, SERVE_FEATURES, seed=seed)
        with stages("checkpoint_fit"):
            model = APOTS("H", features=SERVE_FEATURES, adversarial=False, preset=SERVE_PRESET, seed=seed)
            model.fit(dataset)
            self.checkpoint = Path(tempfile.mkdtemp(prefix="ckpt-", dir=out_dir))
            save_model(model, self.checkpoint)
        with stages("checkpoint_load"):
            self.service = ForecastService.from_checkpoint(
                self.checkpoint, CORRIDOR_SEGMENTS, max_batch_size=MAX_BATCH
            )
        with stages("warm"):
            for step in range(ALPHA):
                self.service.ingest_many(observations(self.stream, step))
            self.service.predict_many(SERVABLE, use_cache=False)
        self.next_step = ALPHA

    def instrument(self, tracer: Tracer) -> None:
        service = self.service
        tracer.wrap(service, "ingest_many", "serving.service.ingest_many")
        tracer.wrap(service, "predict_many", "serving.service.predict_many")
        tracer.wrap(service.store, "ingest_many", "serving.state.ingest_many")
        tracer.wrap(service.store, "windows_many", "serving.state.windows_many")
        tracer.wrap(service.cache, "get", "serving.cache.get")
        tracer.wrap(service.cache, "put", "serving.cache.put")
        tracer.wrap(service.batcher, "flush", "serving.batcher.flush")
        tracer.wrap(service.model.predictor, "predict", "nn.serve_forward", count=lambda args: len(args[0]))

    def close(self) -> None:
        shutil.rmtree(self.checkpoint, ignore_errors=True)


def measure_forward(rig: CorridorRig, seconds: float, min_ticks: int, mae_ticks: int, tracer=None) -> Phase:
    """Each tick: ingest 68 observations, forecast the 64 servable segments uncached."""
    phase, service, tick = Phase(), rig.service, 0
    while tick < min_ticks or phase.measured_s < seconds:
        cycle_start = time.perf_counter()
        batch = observations(rig.stream, rig.next_step)
        if tracer is not None:
            tracer.op = tick
        started = time.perf_counter()
        with _span(tracer, "bench.tick"):
            service.ingest_many(batch)
            forecasts = service.predict_many(SERVABLE, use_cache=False)
        ended = time.perf_counter()
        phase.record(len(forecasts), ended - cycle_start, [ended - started])
        phase.failed += sum(f.source != "model" for f in forecasts)
        if tick < mae_ticks:
            phase.errors_kmh.extend(absolute_errors(forecasts, rig.stream))
        if tracer is None and tick % CHECK_EVERY == 0:
            first = (tick // CHECK_EVERY * CHECK_SEGMENTS) % len(SERVABLE)
            positions = range(first, first + CHECK_SEGMENTS)
            phase.ok &= [forecasts[p].speed_kmh for p in positions] == reference_forecasts(
                service, [SERVABLE[p] for p in positions]
            )
        rig.next_step += 1
        tick += 1
    phase.extra["ticks"] = tick
    return phase


def measure_dashboard(rig: CorridorRig, seconds: float, min_ticks: int, mae_ticks: int, tracer=None) -> Phase:
    """Each tick: ingest, then 24 users each ask for all 64 servable segments.

    The accuracy of these forecasts is ``corridor_forward``'s, so
    ``mae_ticks`` is ignored.
    """
    phase, service, tick = Phase(), rig.service, 0
    before = service.cache.stats()
    while tick < min_ticks or phase.measured_s < seconds:
        cycle_start = time.perf_counter()
        batch = observations(rig.stream, rig.next_step)
        calls, latencies = [], []
        if tracer is not None:
            tracer.op = tick
        with _span(tracer, "bench.tick"):
            service.ingest_many(batch)
            previous = time.perf_counter()
            for _ in range(DASHBOARD_USERS):
                calls.append(service.predict_many(SERVABLE))
                now = time.perf_counter()
                latencies.append(now - previous)
                previous = now
        phase.record(sum(len(call) for call in calls), time.perf_counter() - cycle_start, latencies)
        phase.failed += sum(f.source != "model" for call in calls for f in call)
        if tracer is None and tick % CHECK_EVERY == 0:
            reference = [f.speed_kmh for f in service.predict_many(SERVABLE, use_cache=False)]
        else:
            reference = [f.speed_kmh for f in calls[0]]
        phase.ok &= dashboard_tick_ok(calls, reference)
        rig.next_step += 1
        tick += 1
    after = service.cache.stats()
    hits, misses = after["hits"] - before["hits"], after["misses"] - before["misses"]
    phase.ok &= hit_ratio_ok(hits, misses)
    phase.extra.update(ticks=tick, hits=hits, misses=misses)
    return phase


def serving_layers(tracer: Tracer, phase: Phase, forwards: int, real_rows: float) -> dict[str, Metric]:
    """Per-layer metrics of a traced corridor phase."""
    named = tracer.by_name()
    layers = tracer.layer_self_seconds()
    empty = {"duration": np.array([]), "self": np.array([])}
    ingest = named.get("serving.state.ingest_many", empty)["duration"]
    windows = named.get("serving.state.windows_many", empty)["duration"]
    forward = named.get("nn.serve_forward", empty)["duration"]
    service_self = named.get("serving.service.predict_many", empty)["self"]
    padded_rows = tracer.counts["nn.serve_forward"]
    hits, misses = phase.extra.get("hits", 0), phase.extra.get("misses", 0)
    lookups = hits + misses
    wall = phase.measured_s
    return {
        "serving.state.ingest_ms_p50": Metric(percentile(ingest, 50) * 1e3, "ms", len(ingest)),
        "serving.state.windows_ms_p50": Metric(percentile(windows, 50) * 1e3, "ms", len(windows)),
        "serving.state.busy_share": Metric(layers.get("serving.state", 0.0) / wall, "ratio", len(ingest) + len(windows)),
        "serving.batcher.rows_per_forward": Metric(real_rows / forwards if forwards else 0.0, "rows", forwards),
        "serving.batcher.pad_ratio": Metric(real_rows / padded_rows if padded_rows else 0.0, "ratio", forwards),
        "nn.serve_forward_ms_p50": Metric(percentile(forward, 50) * 1e3, "ms", len(forward)),
        "nn.serve_forward_share": Metric(layers.get("nn", 0.0) / wall, "ratio", len(forward)),
        "serving.cache.hit_ratio": Metric(hits / lookups if lookups else 0.0, "ratio", lookups),
        "serving.cache.busy_share": Metric(layers.get("serving.cache", 0.0) / wall, "ratio", lookups),
        "serving.service.self_ms_p50": Metric(percentile(service_self, 50) * 1e3, "ms", len(service_self)),
        "serving.service.self_share": Metric(layers.get("serving.service", 0.0) / wall, "ratio", len(service_self)),
    }


# ----------------------------------------------------------------------
# City: a 2-shard ForecastFleet over a 1,022-segment grid city
# ----------------------------------------------------------------------
class CityRig:
    def __init__(self, stages: Stages, seed: int, out_dir: Path):
        self.seed = seed
        with stages("simulate"):
            self.city = grid_city(*CITY_GRID, seed=0)
            history = simulate_network(self.city, SimulationConfig(num_days=1, seed=seed))
            self.stream = simulate_network(self.city, SimulationConfig(num_days=2, seed=seed + 1))
        with stages("features"):
            config = GraphFeatureConfig(layout=graph_window_layout(self.city, 2))
            dataset = GraphTrafficDataset(history, config, seed=seed)
        with stages("checkpoint_fit"):
            model = APOTS("F", adversarial=False, features=config, preset=CITY_PRESET, seed=seed)
            model.fit(dataset)
            self.checkpoint = Path(tempfile.mkdtemp(prefix="ckpt-", dir=out_dir))
            save_model(model, self.checkpoint)
        with stages("fleet_spawn"):
            self.starts = partition_starts(self.city, CITY_SHARDS)
            self.fleet = ForecastFleet(
                self.checkpoint, len(self.city), shards=CITY_SHARDS, shard_starts=self.starts
            )
        with stages("warm"):
            for step in range(ALPHA):
                self.fleet.ingest_many(observations(self.stream, step))
        self.next_step = ALPHA
        self.rng = np.random.default_rng(seed)

    def instrument(self, tracer: Tracer) -> None:
        tracer.wrap(self.fleet, "ingest_many", "fleet.ingest_many")
        tracer.wrap(self.fleet, "predict_many", "fleet.predict_many")
        tracer.wrap(WorkerGroup, "start_call", "parallel.start_call")
        tracer.wrap(WorkerGroup, "finish_call", "parallel.finish_call")

    def boundary_query(self, halo: int = 3) -> list[int]:
        """Segments around every shard cut plus a coarse sweep: the halo worst case."""
        n = len(self.city)
        segments = [s for start in self.starts[1:] for s in range(start - halo, start + halo + 1)]
        return segments + list(range(0, n, 97)) + [n - 1]

    def replica_predict_totals(self) -> tuple[int, float]:
        """(calls, total ms) of every replica's ``predict_many`` so far."""
        calls, total = 0, 0.0
        for replica in self.fleet.snapshot()["replicas"]:
            histogram = replica["histograms"].get("predict_many_latency_ms", {"count": 0})
            calls += histogram["count"]
            total += histogram.get("mean", 0.0) * histogram["count"]
        return calls, total

    def ingest_bytes(self, batch: list[Observation]) -> int:
        """Pickled bytes one tick's halo-routed ingest sends down the pipes (computed)."""
        layout = self.fleet.features.layout
        shard_of = self.fleet.shard_map.shard_of
        per_shard: dict[int, list[Observation]] = {}
        for obs in batch:
            for shard in sorted({shard_of(t) for t in layout.valid_rows(obs.segment_id)}):
                per_shard.setdefault(shard, []).append(obs)
        return sum(
            len(ForkingPickler.dumps(("ingest_batch", (shard_batch,))))
            for shard_batch in per_shard.values()
        )

    def close(self) -> None:
        self.fleet.close()
        shutil.rmtree(self.checkpoint, ignore_errors=True)


def measure_city(rig: CityRig, seconds: float, min_ticks: int, mae_ticks: int, tracer=None) -> Phase:
    """Each tick: ingest 1,022 observations, then 50 calls of 4 seeded segments."""
    phase, fleet, tick = Phase(), rig.fleet, 0
    ingest_s: list[float] = []
    shards_touched = 0
    n = len(rig.city)
    while tick < min_ticks or phase.measured_s < seconds:
        cycle_start = time.perf_counter()
        batch = observations(rig.stream, rig.next_step)
        queries = rig.rng.integers(0, n, size=(CITY_CALLS_PER_TICK, CITY_QUERY_SIZE)).tolist()
        answers, latencies = [], []
        if tracer is not None:
            tracer.op = tick
        with _span(tracer, "bench.tick"):
            started = time.perf_counter()
            fleet.ingest_many(batch)
            previous = time.perf_counter()
            ingest_s.append(previous - started)
            for query in queries:
                answers.append(fleet.predict_many(query))
                now = time.perf_counter()
                latencies.append(now - previous)
                previous = now
        phase.record(sum(len(call) for call in answers), time.perf_counter() - cycle_start, latencies)
        bad = sum(f.source != "model" for call in answers for f in call)
        phase.failed += bad
        phase.ok &= bad == 0
        if tick < mae_ticks:
            phase.errors_kmh.extend(e for call in answers for e in absolute_errors(call, rig.stream))
        shards_touched += sum(len({fleet.shard_map.shard_of(s) for s in q}) for q in queries)
        if tick == 0 and tracer is not None:
            phase.extra["ingest_bytes"] = rig.ingest_bytes(batch)
        rig.next_step += 1
        tick += 1
    phase.extra.update(ticks=tick, ingest_s=ingest_s, shards_per_call=shards_touched / max(phase.latencies, 1))
    return phase


def city_boundary_answers(rig: CityRig) -> tuple[list, list]:
    """(served, expected) for a boundary query; they must be equal field by field.

    ``expected`` comes from a process-free ``shards=1`` fleet fed the
    same ticks.  Windows hold only the last ``ALPHA`` ticks, so
    replaying those reproduces every replica's state exactly.
    """
    last = rig.next_step - 1
    query = rig.boundary_query()
    with ForecastFleet(rig.checkpoint, len(rig.city), shards=1) as reference:
        for step in range(last - ALPHA + 1, last + 1):
            reference.ingest_many(observations(rig.stream, step))
        expected = reference.predict_many(query, use_cache=False)
    return rig.fleet.predict_many(query, use_cache=False), expected


def open_loop(rig: CityRig, seconds: float, qps: float = OPEN_LOOP_QPS) -> dict:
    """Open-loop tail: seeded arrivals submitted on schedule, whatever the backlog.

    Mirrors ``repro.fleet.run_open_loop`` but lives here so a change to
    the program cannot change the load it is measured under.  A
    compressed one-second tick ingests every segment; ``qps`` queries
    per second arrive in bursts.  Latency runs from the *scheduled*
    arrival, and generator lag is how late each arrival was submitted.
    """
    fleet, clock = rig.fleet, rig.fleet.clock
    ticks = max(1, math.ceil(seconds))
    start = rig.next_step % rig.stream.num_steps
    if start + ticks > rig.stream.num_steps:
        start = 0
    schedule = ArrivalSchedule.from_series(
        rig.stream, seed=rig.seed, rate=1.0, ticks=ticks, start_step=start,
        queries_per_tick=qps, tick_seconds=1.0,
    )
    feed_offset = rig.next_step - start
    offered = sum(len(e.segment_ids) for e in schedule.events if e.kind == "predict")
    tickets, lags = [], []
    origin = clock()
    events, i = schedule.events, 0
    while i < len(events):
        now = clock() - origin
        if events[i].time_s > now:
            time.sleep(events[i].time_s - now)
            now = clock() - origin
        while i < len(events) and events[i].time_s <= now:
            event = events[i]
            lags.append(now - event.time_s)
            if event.kind == "ingest":
                fleet.ingest_many(observations(rig.stream, event.step + feed_offset))
            else:
                tickets.extend(fleet.submit(event.segment_ids, arrival_s=origin + event.time_s))
            i += 1
        fleet.drain()
    fleet.drain()
    rig.next_step += ticks
    served = [t for t in tickets if t.done and not t.shed]
    return {
        "offered": offered,
        "served": len(served),
        "shed": sum(1 for t in tickets if t.shed),
        "latencies_s": [t.completed_s - t.arrival_s for t in served],
        "lags_s": lags,
        "peak_queue": max(fleet.admission.snapshot()["peak_queue_depths"], default=0),
    }


def city_layers(tracer: Tracer, phase: Phase, replica_calls: int, replica_ms: float) -> dict[str, Metric]:
    """Per-layer metrics of a traced city phase."""
    ingest_ms = np.asarray(phase.extra["ingest_s"]) * 1e3
    parent = tracer.by_name()["fleet.predict_many"]["duration"]
    replica_mean = replica_ms / replica_calls if replica_calls else 0.0
    parent_mean = float(parent.mean()) * 1e3
    return {
        "fleet.ingest_ms_p50": Metric(percentile(ingest_ms, 50), "ms", len(ingest_ms)),
        "parallel.ingest_bytes_per_tick": Metric(float(phase.extra["ingest_bytes"]), "bytes", 1),
        "fleet.replica_predict_ms_mean": Metric(replica_mean, "ms", replica_calls),
        "fleet.ipc_share": Metric(1.0 - replica_mean / parent_mean, "ratio", len(parent)),
        "fleet.shards_per_call": Metric(phase.extra["shards_per_call"], "count", len(parent)),
    }


def open_loop_layers(tail: dict) -> dict[str, Metric]:
    latencies_ms = np.asarray(tail["latencies_s"]) * 1e3
    lags_ms = np.asarray(tail["lags_s"]) * 1e3
    return {
        "fleet.open_loop.p50_ms": Metric(percentile(latencies_ms, 50), "ms", len(latencies_ms)),
        "fleet.open_loop.p99_ms": Metric(percentile(latencies_ms, 99), "ms", len(latencies_ms)),
        "fleet.open_loop.shed_share": Metric(tail["shed"] / tail["offered"], "ratio", tail["offered"]),
        "fleet.open_loop.peak_queue": Metric(float(tail["peak_queue"]), "count", 1),
        "fleet.open_loop.generator_lag_p99_ms": Metric(percentile(lags_ms, 99), "ms", len(lags_ms)),
    }


# ----------------------------------------------------------------------
# Training: APOTS_H, conditional adversarial, on a 10-day corridor
# ----------------------------------------------------------------------
class TrainRig:
    def __init__(self, stages: Stages, seed: int, out_dir: Path, epochs: int, steps: int):
        self.seed = seed
        self.out_dir = out_dir
        with stages("simulate"):
            series = simulate(SimulationConfig(num_days=TRAIN_DAYS, seed=seed))
        with stages("features"):
            self.dataset = TrafficDataset(series, FeatureConfig(), seed=seed)
        self.spec = TrainSpec(
            epochs=epochs, adversarial_batch_size=TRAIN_BATCH, max_steps_per_epoch=steps, seed=seed
        )
        with stages("warm"):
            self.new_model(replace(self.spec, epochs=1, max_steps_per_epoch=1)).fit(self.dataset)

    def new_model(self, spec: TrainSpec | None = None) -> APOTS:
        return APOTS(
            "H", adversarial=True, conditional=True, preset="smoke",
            train_spec=spec if spec is not None else self.spec, seed=self.seed,
        )

    def instrument(self, tracer: Tracer) -> None:
        tracer.wrap(self.dataset, "rollout_batch", "data.rollout_batch")
        tracer.wrap(HybridPredictor, "forward", "nn.predictor_forward")
        tracer.wrap(nn.Tensor, "backward", "nn.backward")
        tracer.wrap(nn.Adam, "step", "nn.adam_step")

    def close(self) -> None:
        pass


def measure_training(rig: TrainRig, seconds: float, min_fits: int, mae_fits: int, tracer=None) -> Phase:
    """Whole same-seed ``APOTS.fit`` runs, back to back; one op is one anchor.

    A step's latency runs from its ``rollout_batch`` call to the next
    one (or to the end of the fit).  Traced, the fits feed a
    ``RunRecorder`` whose D/P-step sections time the two updates.
    """
    phase, fits, fit_s = Phase(), 0, []
    losses, fingerprints = [], []
    dataset = rig.dataset
    original = dataset.rollout_batch
    had_own = "rollout_batch" in vars(dataset)
    stamps: list[float] = []
    anchors_per_step: list[int] = []

    def stamped(anchors):
        stamps.append(time.perf_counter())
        anchors_per_step.append(len(anchors))
        return original(anchors)

    recorder = None
    if tracer is not None:
        run_dir = rig.out_dir / "train_apots_h.run"
        shutil.rmtree(run_dir, ignore_errors=True)
        recorder = RunRecorder(run_dir)
    dataset.rollout_batch = stamped
    try:
        while fits < min_fits or sum(fit_s) < seconds:
            model = rig.new_model()
            stamps.clear()
            anchors_per_step.clear()
            if tracer is not None:
                tracer.op = fits
            started = time.perf_counter()
            with _span(tracer, "core.fit"):
                model.fit(dataset, recorder=recorder)
            ended = time.perf_counter()
            fit_s.append(ended - started)
            step_s = np.diff(stamps + [ended]).tolist()
            for anchors, step in zip(anchors_per_step, step_s):
                phase.record(anchors, step, [step])
            fit_losses = model.history.predictor_loss + model.history.discriminator_loss
            if not all(math.isfinite(value) for value in fit_losses):
                phase.failed += sum(anchors_per_step)
            losses.extend(fit_losses)
            fingerprints.append(model_fingerprint(model))
            if fits < mae_fits:
                phase.extra["mae"] = model.evaluate(dataset, subset="test").mae
            fits += 1
    finally:
        if had_own:
            dataset.rollout_batch = original
        else:
            del dataset.rollout_batch
        if recorder is not None:
            recorder.close()
    phase.ok = training_ok(losses, fingerprints)
    phase.extra.update(fits=fits, fingerprint=fingerprints[0], fit_s=sum(fit_s))
    if recorder is not None:
        phase.extra["sections"] = {
            name: recorder.telemetry.histogram(f"section.{name}") for name in ("d_step", "p_step")
        }
    return phase


def training_layers(tracer: Tracer, phase: Phase) -> dict[str, Metric]:
    """Per-layer metrics of a traced training phase."""
    named = tracer.by_name()
    rollout = named["data.rollout_batch"]["duration"]
    forward = named["nn.predictor_forward"]["duration"]
    adam = named["nn.adam_step"]["duration"]
    d_step, p_step = phase.extra["sections"]["d_step"], phase.extra["sections"]["p_step"]
    steps = len(rollout)
    return {
        "data.rollout_batch_ms_p50": Metric(percentile(rollout, 50) * 1e3, "ms", steps),
        "core.d_step_ms_p50": Metric(d_step.percentile(50) * 1e3, "ms", d_step.count),
        "core.p_step_ms_p50": Metric(p_step.percentile(50) * 1e3, "ms", p_step.count),
        "nn.predictor_forward_calls_per_step": Metric(len(forward) / steps, "count", len(forward)),
        "nn.predictor_forward_ms_p50": Metric(percentile(forward, 50) * 1e3, "ms", len(forward)),
        "nn.adam_step_ms_p50": Metric(percentile(adam, 50) * 1e3, "ms", len(adam)),
        "core.step_coverage": Metric(
            (rollout.sum() + d_step.total + p_step.total) / phase.extra["fit_s"], "ratio", steps
        ),
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
_MEASURE = {
    "corridor_forward": measure_forward,
    "corridor_dashboard": measure_dashboard,
    "city_fleet": measure_city,
    "train_apots_h": measure_training,
}


def _coverage(tracer: Tracer, root: str) -> Metric:
    """Share of the root spans' time covered by the layer spans beneath them."""
    roots = tracer.by_name().get(root)
    if roots is None or roots["duration"].sum() <= 0:
        return Metric(0.0, "ratio", 0)
    return Metric(float(1.0 - roots["self"].sum() / roots["duration"].sum()), "ratio", len(roots["duration"]))


def _traced_phase(workload: str, rig, seconds: float, out_dir: Path) -> tuple[Phase, dict[str, Metric]]:
    """Measure with spans on every layer's public calls; returns the per-layer metrics."""
    tracer = Tracer()
    if workload == "city_fleet":
        replica_before = rig.replica_predict_totals()
    elif workload != "train_apots_h":
        batches = rig.service.telemetry.histogram("batch_size")
        forwards_before, rows_before = batches.count, batches.total
    rig.instrument(tracer)
    try:
        phase = _MEASURE[workload](rig, seconds, 1, 0, tracer)
    finally:
        tracer.restore()
    tracer.write_jsonl(out_dir / f"{workload}.trace.jsonl")
    if workload == "train_apots_h":
        layers = training_layers(tracer, phase)
        layers["trace.coverage"] = _coverage(tracer, "core.fit")
        return phase, layers
    if workload == "city_fleet":
        calls, total_ms = rig.replica_predict_totals()
        layers = city_layers(tracer, phase, calls - replica_before[0], total_ms - replica_before[1])
    else:
        layers = serving_layers(tracer, phase, batches.count - forwards_before, batches.total - rows_before)
    layers["trace.coverage"] = _coverage(tracer, "bench.tick")
    return phase, layers


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    *,
    setup_repeats: int = 5,
    mae_ops: int | None = None,
    open_loop_seconds: float = 10.0,
    train_epochs: int = 2,
    train_steps: int = 10,
) -> Result:
    """Run one workload end to end and return its metrics and checks.

    ``mae_ops`` (the fixed prefix the accuracy metric covers), the
    open-loop tail and the training fit size are arguments so the
    self-test can shrink the work; the command line uses the defaults.
    With ``trace`` the result carries the per-layer metrics, otherwise
    the end-to-end ones.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    out_dir.mkdir(parents=True, exist_ok=True)
    if mae_ops is None:
        mae_ops = MAE_OPS[workload]
    if workload == "train_apots_h":
        build = functools.partial(TrainRig, seed=seed, out_dir=out_dir, epochs=train_epochs, steps=train_steps)
    elif workload == "city_fleet":
        build = functools.partial(CityRig, seed=seed, out_dir=out_dir)
    else:
        build = functools.partial(CorridorRig, seed=seed, out_dir=out_dir)

    result = Result(workload)
    setups: list[dict[str, float]] = []
    # About half the set-ups run before the measurement (the last one is
    # measured) and the rest after it, so a burst of contention on the
    # shared host around start-up cannot decide the median alone.
    before = (setup_repeats + 1) // 2
    for _ in range(before - 1):
        spare, stage_s = timed_setup(build)
        spare.close()
        setups.append(stage_s)
    rig, stage_s = timed_setup(build)
    setups.append(stage_s)
    try:
        plain = _MEASURE[workload](rig, seconds / 2 if trace else seconds, mae_ops, mae_ops)
        result.attempted, result.failed = plain.ops, plain.failed
        result.checks["closed_loop"] = plain.ok
        if trace:
            traced, layers = _traced_phase(workload, rig, seconds / 2, out_dir)
            result.attempted += traced.ops
            result.failed += traced.failed
            result.checks["traced_closed_loop"] = traced.ok
            result.per_layer = {name: Metric(0.0, unit, 0) for name, unit in PER_LAYER.items()}
            result.per_layer.update(layers)
            tail_q = TAIL_PERCENTILE[workload]
            result.per_layer["trace.overhead_share"] = Metric(
                1.0 - traced.timings(tail_q).throughput_ops_s / plain.timings(tail_q).throughput_ops_s,
                "ratio",
                traced.ops,
            )
            if workload == "city_fleet":
                tail = open_loop(rig, open_loop_seconds)
                result.checks["open_loop_accounting"] = open_loop_ok(tail["offered"], tail["served"], tail["shed"])
                result.per_layer.update(open_loop_layers(tail))
        if workload == "city_fleet":
            served, expected = city_boundary_answers(rig)
            result.checks["boundary_vs_process_free"] = served == expected
    finally:
        rig.close()
    for _ in range(setup_repeats - before):
        spare, stage_s = timed_setup(build)
        spare.close()
        setups.append(stage_s)
    setup_s = statistics.median(sum(stage_s.values()) for stage_s in setups)
    if trace:
        for stage in SETUP_STAGES:
            result.per_layer[f"setup.{stage}_s"] = Metric(
                statistics.median(stage_s[stage] for stage_s in setups), "s", len(setups)
            )

    # Accuracy is a pure function of the seed: recorded so same-seed runs
    # of two commits can be compared exactly, not gated (see README).
    if workload == "train_apots_h":
        result.info["forecast_mae_kmh"] = plain.extra["mae"]
        result.info["model_fingerprint"] = plain.extra["fingerprint"]
        result.info["fits"] = plain.extra["fits"]
    else:
        if plain.errors_kmh:
            result.info["forecast_mae_kmh"] = float(np.mean(plain.errors_kmh))
        result.info["ticks"] = plain.extra["ticks"]
    if not trace:
        timings = plain.timings(TAIL_PERCENTILE[workload])
        result.end_to_end = {
            "throughput_ops_s": Metric(timings.throughput_ops_s, "ops/s", plain.ops),
            "latency_p50_ms": Metric(timings.p50_ms, "ms", plain.latencies),
            "setup_s": Metric(setup_s, "s", setup_repeats),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
        }
        # Recorded, not gated: see README ("Tail latency").
        result.info["latency_tail_percentile"] = TAIL_PERCENTILE[workload]
        result.info["latency_tail_ms"] = timings.tail_ms
        result.info["latency_tail_samples"] = timings.tail_samples
    return result
