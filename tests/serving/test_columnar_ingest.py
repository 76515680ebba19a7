"""Columnar ingest: array-mask validation against the per-reading rule it replaced.

``oracle_check_batch`` is the per-reading ``check_batch`` the store and
fleet ran before batches became columns, frozen here.  The vectorised
:func:`repro.serving.state.check_batch` must raise the same first fault
with the same message, commit nothing when it raises, and a list of
:class:`Observation` must ingest bitwise like its
:class:`ObservationBatch`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import save_model
from repro.fleet import ForecastFleet
from repro.serving import (
    ForecastService,
    InvalidObservationError,
    Observation,
    ServingError,
    StaleObservationError,
    StreamGapError,
    UnknownSegmentError,
)
from repro.serving.state import ObservationBatch, SegmentStateStore, check_batch

from tests.serving.conftest import observation_at

NUM_SEGMENTS = 6


# ----------------------------------------------------------------------
# The per-reading rule, as it was
# ----------------------------------------------------------------------
def _oracle_check_values(obs: Observation) -> None:
    speed, temperature, precipitation = obs.speed_kmh, obs.temperature, obs.precipitation
    total = speed + obs.event
    if temperature is not None:
        total += temperature
    if precipitation is not None:
        total += precipitation
    if obs.day_type is not None:
        total += sum(obs.day_type)
    if speed >= 0.0 and math.isfinite(total):
        return
    if not (math.isfinite(speed) and speed >= 0.0):
        raise InvalidObservationError(
            f"segment {obs.segment_id} step {obs.step}: speed_kmh={obs.speed_kmh!r} "
            f"is not a finite non-negative speed"
        )
    fields = [("event", obs.event), ("temperature", obs.temperature), ("precipitation", obs.precipitation)]
    if obs.day_type is not None:
        fields.extend(("day_type", value) for value in obs.day_type)
    for name, value in fields:
        if value is not None and not math.isfinite(value):
            raise InvalidObservationError(
                f"segment {obs.segment_id} step {obs.step}: {name}={value!r} is not finite"
            )


def oracle_check_batch(batch, latest_steps: list[int]) -> dict[int, tuple[int, int]]:
    num_segments = len(latest_steps)
    streams: dict[int, tuple[int, int]] = {}
    for obs in batch:
        seg, step = obs.segment_id, obs.step
        if not 0 <= seg < num_segments:
            raise UnknownSegmentError(f"segment {seg} outside corridor 0..{num_segments - 1}")
        _oracle_check_values(obs)
        seen = streams.get(seg)
        if seen is None:
            first, latest = step, latest_steps[seg]
        else:
            first, latest = seen
        if latest >= 0 and step != latest + 1:
            if step <= latest:
                raise StaleObservationError(
                    f"segment {seg}: observation for step {step} arrived after "
                    f"step {latest} was already ingested (out of order)"
                )
            raise StreamGapError(
                f"segment {seg}: stream skipped steps {latest + 1}..{step - 1}; "
                f"call reset_segment({seg}) to restart the stream"
            )
        streams[seg] = (first, step)
    return streams


def outcome(check, *args):
    """(exception type, message) a check raised, or ``("ok", result)``."""
    try:
        return "ok", check(*args)
    except ServingError as error:
        return type(error), str(error)


# ----------------------------------------------------------------------
# Random batches with injected faults
# ----------------------------------------------------------------------
NON_FINITE = [math.nan, math.inf, -math.inf]
clean_values = st.floats(0.0, 150.0)


def optional(values):
    return st.none() | values


@st.composite
def readings(draw, segment: int, step: int) -> Observation:
    return Observation(
        segment_id=segment,
        step=step,
        speed_kmh=draw(clean_values),
        event=draw(st.sampled_from([0.0, 1.0])),
        temperature=draw(optional(st.floats(-20.0, 40.0))),
        precipitation=draw(optional(st.floats(0.0, 30.0))),
        day_type=draw(optional(st.tuples(*[st.sampled_from([0.0, 1.0])] * 4))),
    )


@st.composite
def faulted_batches(draw, latest: list[int]):
    """A batch valid against ``latest``, then up to three injected faults."""
    batch: list[Observation] = []
    for segment in draw(st.lists(st.integers(0, NUM_SEGMENTS - 1), max_size=NUM_SEGMENTS, unique=True)):
        start = latest[segment] + 1 if latest[segment] >= 0 else draw(st.integers(0, 30))
        for offset in range(draw(st.integers(1, 3))):  # multi-step runs
            batch.append(draw(readings(segment, start + offset)))
    # Interleave segments, keeping each segment's own readings in step order.
    runs = {}
    for obs in batch:
        runs.setdefault(obs.segment_id, []).append(obs)
    queues = {segment: iter(run) for segment, run in runs.items()}
    batch = [next(queues[segment]) for segment in draw(st.permutations([o.segment_id for o in batch]))]
    for _ in range(draw(st.integers(0, 3)) if batch else 0):
        i = draw(st.integers(0, len(batch) - 1))
        obs = batch[i]
        kind = draw(
            st.sampled_from(["unknown", "speed", "field", "stale", "gap", "duplicate", "negative_step"])
        )
        if kind == "unknown":
            batch[i] = dataclasses.replace(obs, segment_id=draw(st.sampled_from([-1, NUM_SEGMENTS, 99])))
        elif kind == "speed":
            bad = draw(st.sampled_from([*NON_FINITE, -1.0, -1e-9]))
            batch[i] = dataclasses.replace(obs, speed_kmh=bad)
        elif kind == "field":
            name = draw(st.sampled_from(["event", "temperature", "precipitation", "day_type"]))
            bad = draw(st.sampled_from(NON_FINITE))
            if name == "day_type":
                bits = list(obs.day_type or (1.0, 0.0, 0.0, 0.0))
                bits[draw(st.integers(0, 3))] = bad
                batch[i] = dataclasses.replace(obs, day_type=tuple(bits))
            else:
                batch[i] = dataclasses.replace(obs, **{name: bad})
        elif kind == "stale":
            batch[i] = dataclasses.replace(obs, step=obs.step - draw(st.integers(1, 3)))
        elif kind == "gap":
            batch[i] = dataclasses.replace(obs, step=obs.step + draw(st.integers(2, 4)))
        elif kind == "duplicate":
            batch.insert(i + 1, obs)
        else:
            batch[i] = dataclasses.replace(obs, step=draw(st.integers(-5, -1)))
    return batch


latest_steps = st.lists(st.integers(-1, 30), min_size=NUM_SEGMENTS, max_size=NUM_SEGMENTS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_check_batch_raises_the_oracles_first_fault(data):
    latest = data.draw(latest_steps)
    batch = data.draw(faulted_batches(latest))
    expected = outcome(oracle_check_batch, batch, latest)
    got = outcome(check_batch, ObservationBatch.from_observations(batch), np.asarray(latest, dtype=np.int64))
    if expected[0] != "ok":
        assert got == expected
        assert "np.float64" not in got[1]
        return
    assert got[0] == "ok"
    streams = got[1]
    assert dict(zip(streams.segments.tolist(), zip(streams.first.tolist(), streams.last.tolist()))) == expected[1]
    last_rows = {}
    for row, obs in enumerate(batch):
        last_rows[obs.segment_id] = row
    assert streams.last_rows.tolist() == [last_rows[s] for s in streams.segments.tolist()]


def store_state(store: SegmentStateStore) -> list[bytes]:
    ctx = store._context
    return [
        store._speed_data.tobytes(),
        store._event_data.tobytes(),
        store._latest.tobytes(),
        store._count.tobytes(),
        ctx.data.tobytes(),
        repr((ctx.latest, ctx.count, store.updates)).encode(),
    ]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_store_rejects_like_the_oracle_and_commits_nothing(tiny_dataset, data):
    store = SegmentStateStore(NUM_SEGMENTS, tiny_dataset.config, tiny_dataset.features.scalers)
    for segment, latest in enumerate(data.draw(latest_steps)):
        if latest >= 0:
            store.ingest(Observation(segment, latest, 50.0))
    latest = store._latest.tolist()
    batch = data.draw(faulted_batches(latest))
    expected = outcome(oracle_check_batch, batch, latest)
    before = store_state(store)
    if expected[0] == "ok":
        assert store.ingest_many(batch) == len(batch)
        return
    with pytest.raises(expected[0]) as raised:
        store.ingest_many(batch)
    assert str(raised.value) == expected[1]
    assert store_state(store) == before


# ----------------------------------------------------------------------
# A list and its columns ingest alike
# ----------------------------------------------------------------------
def tick(series, step: int, sparse_context: bool) -> list[Observation]:
    """Every segment's reading for ``step``; optionally most leave the context out."""
    batch = [observation_at(series, s, step) for s in range(series.num_segments)]
    if sparse_context:
        batch = [
            dataclasses.replace(obs, temperature=None, precipitation=None, day_type=None)
            if s % 3 else obs
            for s, obs in enumerate(batch)
        ]
    return batch


def columns(batch: list[Observation]) -> ObservationBatch:
    return ObservationBatch.from_observations(batch)


def test_absent_context_is_a_mask_not_a_nan():
    batch = columns([Observation(0, 1, 50.0), Observation(1, 1, 60.0, temperature=3.0)])
    assert batch.has_temperature.tolist() == [False, True]
    assert batch.temperature.tolist() == [0.0, 3.0]
    assert not batch.has_day_type.any() and not batch.day_types.any()
    taken = batch.take(np.array([1]))
    assert taken.segment_ids.tolist() == [1] and taken.has_temperature.tolist() == [True]
    with pytest.raises(InvalidObservationError, match="temperature=nan"):
        check_batch(columns([Observation(0, 1, 50.0, temperature=math.nan)]), np.full(2, -1))


def test_list_and_columns_give_bitwise_equal_stores_and_forecasts(served_model, tiny_series):
    services = [ForecastService(served_model, tiny_series.num_segments) for _ in range(2)]
    servable = list(range(2, tiny_series.num_segments - 2))
    for step in range(16):
        batch = tick(tiny_series, step, sparse_context=step % 2 == 1)
        services[0].ingest_many(batch)
        services[1].ingest_many(columns(batch))
    listed, columnar = (service.store for service in services)
    assert store_state(listed) == store_state(columnar)
    assert services[0].predict_many(servable) == services[1].predict_many(servable)


def test_fleet_shard_parity_holds_with_either_input(served_model, tiny_series, tmp_path):
    save_model(served_model, tmp_path)
    query = [4, 0, 7, 2, 2, 8, 5, 1, 3, 6, 4]
    answers = []
    for shards, as_columns in ((1, False), (2, True), (1, True), (2, False)):
        with ForecastFleet(tmp_path, tiny_series.num_segments, shards=shards) as fleet:
            for step in range(16):
                batch = tick(tiny_series, step, sparse_context=step % 2 == 1)
                fleet.ingest_many(columns(batch) if as_columns else batch)
            answers.append(fleet.predict_many(query))
    assert all(answer == answers[0] for answer in answers[1:])
