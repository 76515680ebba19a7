"""A 2-shard fleet against a ``shards=1`` fleet, driven by a hypothesis state machine.

Both fleets get the same ticks (some with segments left out, so their
windows lag until a reset), the same cached and uncached
``predict_many`` calls (duplicates, horizons ``beta`` and ``beta + 1``),
resets, swaps between two seeded checkpoints and replica kills.  Every
forecast of the 2-shard fleet must equal the process-free fleet's, field
by field, or be the documented shed answer when its shard was killed.
That covers the parent's forecast tables: when each is built, read,
marked cached, dropped and replayed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import load_model, save_model
from repro.fleet import ForecastFleet
from repro.serving import Forecast, ObservationBatch

from tests.fleet.conftest import observation_at

WARM_TICKS = 13


class FleetVersusOneShard(RuleBasedStateMachine):
    checkpoints: tuple[str, str] = ("", "")
    series = None

    @initialize()
    def start(self):
        first = self.checkpoints[0]
        self.n = self.series.num_segments
        self.single = ForecastFleet(first, self.n, shards=1)
        self.fleet = ForecastFleet(first, self.n, shards=2)
        self.beta = self.fleet.features.beta
        self.serving = 0  # index of the checkpoint being served
        self.killed: set[int] = set()
        self.latest = np.full(self.n, -1, dtype=np.int64)
        self.speed = np.full(self.n, np.nan)
        self.lagging: set[int] = set()
        self.step = 0
        self.probes = 0
        for _ in range(WARM_TICKS):
            self._tick(frozenset())

    def teardown(self):
        for fleet in ("single", "fleet"):
            if hasattr(self, fleet):
                getattr(self, fleet).close()

    def _tick(self, left_out: frozenset) -> None:
        self.lagging |= left_out
        segments = [s for s in range(self.n) if s not in self.lagging]
        if not segments:
            return
        batch = ObservationBatch.from_observations(
            [observation_at(self.series, s, self.step) for s in segments]
        )
        self.single.ingest_many(batch)
        self.fleet.ingest_many(batch)
        self.latest[segments] = self.step
        self.speed[segments] = self.series.speeds[segments, self.step]
        self.step += 1

    def _shed(self, segment: int, horizon: int) -> Forecast:
        shard = self.fleet.shard_map.shard_of(segment)
        return Forecast(
            segment_id=segment,
            target_step=int(self.latest[segment]) + horizon,
            horizon_steps=horizon,
            speed_kmh=float(self.speed[segment]),
            source="naive",
            degraded=True,
            degraded_reason=f"load shed: shard {shard} lost",
        )

    @rule()
    def ingest(self):
        self._tick(frozenset())

    @rule(segment=st.integers(0, 8))
    def ingest_leaving_out(self, segment):
        self._tick(frozenset({segment}) if segment < self.n else frozenset())

    @rule(
        picks=st.lists(st.integers(0, 8), min_size=1, max_size=6),
        use_cache=st.booleans(),
        later=st.booleans(),
    )
    def predict(self, picks, use_cache, later):
        self._compare(picks, use_cache, later)

    @rule(picks=st.lists(st.integers(2, 6), min_size=1, max_size=3))
    def predict_inner(self, picks):
        """Cached reads at beta of segments with full corridor windows: what tables answer."""
        self._compare(picks, True, False)

    @invariant()
    def read_back(self):
        """After every rule, two cached reads at beta, rotating over the inner segments.

        The first after an ingest runs each replica's fill; later ones
        are answered from the parent's tables, whatever rule came before.
        """
        if hasattr(self, "fleet"):
            self.probes += 1
            self._compare([2 + self.probes % 5, 2 + (self.probes + 2) % 5], True, False)

    def _compare(self, picks, use_cache, later):
        query = [s for s in picks if s < self.n and self.latest[s] >= 0]
        if not query:
            return
        horizon = self.beta + int(later)
        expected = self.single.predict_many(query, horizon, use_cache)
        served = self.fleet.predict_many(query, horizon, use_cache)
        for segment, want, got in zip(query, expected, served):
            if self.fleet.shard_map.shard_of(segment) in self.killed:
                want = self._shed(segment, horizon)
            assert got == want, (segment, got, want)

    @rule(segment=st.integers(0, 8))
    def reset(self, segment):
        if segment >= self.n:
            return
        self.single.reset_segment(segment)
        self.fleet.reset_segment(segment)
        self.latest[segment] = -1
        self.speed[segment] = np.nan
        self.lagging.discard(segment)

    @rule()
    def swap(self):
        self.serving = 1 - self.serving
        directory = self.checkpoints[self.serving]
        assert self.single.swap_checkpoint(directory) == self.fleet.swap_checkpoint(directory)

    @precondition(lambda self: not self.killed)
    @rule(shard=st.integers(0, 1))
    def kill(self, shard):
        self.fleet.kill_replica(shard)
        self.killed.add(shard)


@pytest.fixture(scope="module")
def second_checkpoint(fleet_checkpoint, tmp_path_factory) -> str:
    """The fleet checkpoint with seeded weight noise: another champion."""
    model = load_model(fleet_checkpoint)
    rng = np.random.default_rng(29)
    state = model.predictor.state_dict()
    model.predictor.load_state_dict({k: v + rng.normal(0.0, 0.05, size=v.shape) for k, v in state.items()})
    directory = tmp_path_factory.mktemp("machine-challenger")
    save_model(model, directory)
    return str(directory)


def test_two_shards_answer_as_one(fleet_checkpoint, second_checkpoint, tiny_series):
    FleetVersusOneShard.checkpoints = (fleet_checkpoint, second_checkpoint)
    FleetVersusOneShard.series = tiny_series
    run_state_machine_as_test(
        FleetVersusOneShard,
        settings=settings(
            max_examples=25,
            stateful_step_count=25,
            deadline=None,
            suppress_health_check=list(HealthCheck),
            derandomize=True,
        ),
    )
