"""Per-update window memo and whole-batch ingest of the SegmentStateStore.

Two oracles pin the store bitwise:

* a frozen copy of the previous one-reading-at-a-time ``ingest`` (and
  its context fold), applied to a second store, must leave every ring,
  stream counter and context row equal to the batched ingest's;
* a window served from the memo must equal the same window assembled
  from scratch on that oracle store, after any interleaving of ingests,
  resets, scaler swaps and queries — a stale memo entry shows up as a
  difference.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.data.features import fit_scalers
from repro.data.graph_features import GraphFeatureConfig
from repro.network import graph_window_layout, grid_city
from repro.network.waves import simulate_network
from repro.serving import (
    IncompleteWindowError,
    InvalidObservationError,
    Observation,
    SegmentStateStore,
    StaleObservationError,
    StreamGapError,
    UnknownSegmentError,
)
from repro.serving.state import _CTX_DAY, _CTX_PRECIP, _CTX_TEMP, _DEFAULT_DAY_TYPE
from repro.traffic.types import SimulationConfig

from tests.serving.conftest import observation_at, replay


# ----------------------------------------------------------------------
# Oracle: the previous per-reading ingest, verbatim over the store's state
# ----------------------------------------------------------------------
def legacy_ingest(store: SegmentStateStore, obs: Observation) -> None:
    store._check_segment(obs.segment_id)
    seg, step = obs.segment_id, obs.step
    latest = int(store._latest[seg])
    if latest >= 0:
        if step <= latest:
            raise StaleObservationError("out of order")
        if step > latest + 1:
            raise StreamGapError("skipped steps")
    slot = step % store._capacity
    store._speed_data[seg, slot] = obs.speed_kmh
    store._event_data[seg, slot] = float(obs.event)
    store._count[seg] = min(int(store._count[seg]) + 1, store._capacity) if step == latest + 1 else 1
    store._latest[seg] = step
    legacy_context(store._context, obs)


def legacy_context(ctx, obs: Observation) -> None:
    if ctx.latest is not None and obs.step <= ctx.latest:
        if ctx.has(obs.step):
            row = ctx.value_at(obs.step)
            if obs.temperature is not None:
                row[_CTX_TEMP] = obs.temperature
            if obs.precipitation is not None:
                row[_CTX_PRECIP] = obs.precipitation
            if obs.day_type is not None:
                row[_CTX_DAY] = obs.day_type
        return
    if ctx.latest is not None and ctx.has(obs.step - 1):
        row = ctx.value_at(obs.step - 1).copy()
    else:
        row = np.array([0.0, 0.0, *_DEFAULT_DAY_TYPE])
    if obs.temperature is not None:
        row[_CTX_TEMP] = obs.temperature
    if obs.precipitation is not None:
        row[_CTX_PRECIP] = obs.precipitation
    if obs.day_type is not None:
        row[_CTX_DAY] = obs.day_type
    ctx.push(obs.step, row)


def state_of(store: SegmentStateStore) -> tuple:
    ctx = store._context
    return (
        store._speed_data.tobytes(),
        store._event_data.tobytes(),
        store._latest.tobytes(),
        store._count.tobytes(),
        ctx.data.tobytes(),
        ctx.latest,
        ctx.count,
    )


def fresh_windows(store: SegmentStateStore) -> list:
    """Every segment's window assembled from scratch, bypassing the memo.

    The oracle store's state moves under ``legacy_ingest`` without a store
    update, so every per-update cache (memo, readiness spans, scaled
    speed rows) is dropped as an update would drop it.
    """
    store._updated()
    return store.windows_many(list(range(store.num_segments)))


def assert_same_window(served, expected) -> None:
    if isinstance(expected, IncompleteWindowError):
        assert isinstance(served, IncompleteWindowError)
        assert str(served) == str(expected)
        return
    assert not isinstance(served, IncompleteWindowError), str(served)
    for field in dataclasses.fields(expected):
        a, b = getattr(served, field.name), getattr(expected, field.name)
        if isinstance(b, np.ndarray):
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


# ----------------------------------------------------------------------
# Geometries: the corridor and a small road graph
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph_case():
    city = grid_city(3, 3, seed=0)
    series = simulate_network(city, SimulationConfig(num_days=1, seed=11))
    return series, GraphFeatureConfig(layout=graph_window_layout(city, 2)), fit_scalers(series)


@pytest.fixture(params=["corridor", "graph"])
def case(request, tiny_series, tiny_dataset, graph_case):
    if request.param == "corridor":
        return tiny_series, tiny_dataset.config, tiny_dataset.features.scalers
    return graph_case


def new_store(case) -> SegmentStateStore:
    series, config, scalers = case
    return SegmentStateStore(series.num_segments, config, scalers)


def random_reading(rng, series, segment: int, step: int) -> Observation:
    """A series reading whose context fields are sometimes dropped or jittered."""
    obs = observation_at(series, segment, step % series.num_steps)
    obs = dataclasses.replace(obs, step=step)
    if rng.random() < 0.3:
        obs = dataclasses.replace(obs, temperature=None)
    elif rng.random() < 0.3:
        obs = dataclasses.replace(obs, temperature=obs.temperature + float(rng.normal()))
    if rng.random() < 0.3:
        obs = dataclasses.replace(obs, precipitation=None)
    if rng.random() < 0.2:
        obs = dataclasses.replace(obs, day_type=None)
    return obs


def random_session(rng, series, ticks: int, clean_ticks: int):
    """Seeded ingest/reset schedule: split ticks, lagging segments that catch
    up with two steps in one batch, restarts after resets.  The last
    ``clean_ticks`` ticks have no lags or resets, so windows end complete."""
    n = series.num_segments
    next_step = np.zeros(n, dtype=np.int64)
    for tick in range(ticks):
        clean = tick >= ticks - clean_ticks
        order = rng.permutation(n)
        readings = []
        for segment in order.tolist():
            if not clean and rng.random() < 0.08:
                continue  # lags this tick, catches up on a later one
            while next_step[segment] <= tick:
                readings.append(random_reading(rng, series, segment, int(next_step[segment])))
                next_step[segment] += 1
        cuts = sorted(rng.choice(len(readings) + 1, size=2).tolist())
        for lo, hi in zip([0, *cuts], [*cuts, len(readings)]):
            yield "ingest", readings[lo:hi]
        if not clean and rng.random() < 0.1:
            segment = int(rng.integers(n))
            next_step[segment] = tick + 1  # the feed restarts at the next tick
            yield "reset", segment


class TestBatchedIngestOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_state_and_windows_match_per_reading_ingest(self, case, seed):
        series, config, scalers = case
        rng = np.random.default_rng(seed)
        store, oracle = new_store(case), new_store(case)
        everything = list(range(series.num_segments))
        for op, arg in random_session(rng, series, ticks=3 * config.alpha, clean_ticks=config.alpha + 1):
            if op == "ingest":
                assert store.ingest_many(arg) == len(arg)
                for obs in arg:
                    legacy_ingest(oracle, obs)
            else:
                store.reset_segment(arg)
                oracle.reset_segment(arg)
            assert state_of(store) == state_of(oracle)
            # Query a random subset so the memo is partly filled between updates.
            store.windows_many(rng.choice(everything, size=4).tolist())
            if rng.random() < 0.3:
                for served, expected in zip(store.windows_many(everything), fresh_windows(oracle)):
                    assert_same_window(served, expected)
        served = store.windows_many(everything)
        assert sum(not isinstance(v, IncompleteWindowError) for v in served) > 0
        for served_view, expected in zip(served, fresh_windows(oracle)):
            assert_same_window(served_view, expected)

    def test_generator_input_is_accepted(self, tiny_series, tiny_dataset):
        store = SegmentStateStore(
            tiny_series.num_segments, tiny_dataset.config, tiny_dataset.features.scalers
        )
        count = store.ingest_many(observation_at(tiny_series, s, 0) for s in range(3))
        assert count == 3 and store.latest_step(2) == 0
        assert store.ingest_many([]) == 0


#: Which readiness rule an IncompleteWindowError message reports.
_REASONS = {
    "neighbours on each side": "edge",
    "consecutive observations": "count",
    "lags it": "lag",
    "context channels incomplete": "context",
}


def reason_of(error: IncompleteWindowError) -> str:
    return next(kind for text, kind in _REASONS.items() if text in str(error))


class TestReadinessMask:
    """The vectorised readiness mask against the per-segment diagnosis."""

    @pytest.mark.parametrize("seed", range(3))
    def test_mask_matches_per_segment_diagnosis(self, case, seed):
        series, config, _ = case
        rng = np.random.default_rng(seed)
        store = new_store(case)
        everything = list(range(series.num_segments))
        seen = set()

        def check() -> None:
            expected = [store._readiness_error(s) for s in everything]
            assert store._ready_mask(np.asarray(everything)).tolist() == [
                error is None for error in expected
            ]
            # Query in a shuffled order so the memo is filled out of order.
            order = rng.permutation(everything).tolist()
            for segment, served in zip(order, store.windows_many(order)):
                error = expected[segment]
                if error is None:
                    assert not isinstance(served, IncompleteWindowError), str(served)
                    seen.add("ready")
                else:
                    assert isinstance(served, IncompleteWindowError)
                    assert str(served) == str(error)  # word for word
                    seen.add(reason_of(error))

        check()  # an empty store: no context yet
        for op, arg in random_session(rng, series, ticks=2 * config.alpha, clean_ticks=config.alpha):
            if op == "ingest":
                store.ingest_many(arg)
            else:
                store.reset_segment(arg)
            check()
        # A context gap: one feed restarts three ticks ahead of the rest, so
        # the context ring no longer covers the others' windows.
        restarted = int(rng.integers(series.num_segments))
        ahead = int(store.latest_step(restarted)) + 3
        store.reset_segment(restarted)
        check()
        store.ingest(random_reading(rng, series, restarted, ahead))
        check()

        assert {"ready", "count", "lag", "context"} <= seen
        if isinstance(config, GraphFeatureConfig):
            assert (config.layout.rows_array < 0).any()  # padding rows were exercised
        else:
            assert "edge" in seen


class TestFill:
    """Padding-fill windows: listed by readiness, assembled as a block, memoised lazily."""

    @pytest.mark.parametrize("seed", range(3))
    def test_filled_views_equal_assembled_ones(self, case, seed):
        series, config, _ = case
        rng = np.random.default_rng(seed)
        store, oracle = new_store(case), new_store(case)
        everything = list(range(series.num_segments))
        filled = 0
        for op, arg in random_session(rng, series, ticks=3 * config.alpha, clean_ticks=config.alpha + 1):
            for target in (store, oracle):
                target.ingest_many(arg) if op == "ingest" else target.reset_segment(arg)
            store.windows_many(rng.choice(everything, size=3).tolist())  # read before the fill
            candidates = store.ready_segments(0, series.num_segments)
            assert candidates.tolist() == [s for s in everything if store._readiness_error(s) is None]
            chosen, _ = store.fill_windows(candidates[: int(rng.integers(1, 8))])
            filled += len(chosen)
            for served, expected in zip(store.windows_many(everything), fresh_windows(oracle)):
                assert_same_window(served, expected)  # fingerprints included
        assert filled > 0

    def test_fill_passes_over_read_windows(self, tiny_series, tiny_dataset):
        store = SegmentStateStore(
            tiny_series.num_segments, tiny_dataset.config, tiny_dataset.features.scalers
        )
        replay(store, tiny_series, range(tiny_dataset.config.alpha))
        first = store.window(3)
        candidates = store.ready_segments(0, tiny_series.num_segments)
        assert candidates.tolist() == [2, 3, 4, 5, 6]
        chosen, block = store.fill_windows(candidates[:3])
        assert (chosen.tolist(), len(block.flats)) == ([2, 4], 2)
        chosen, block = store.fill_windows(candidates)
        assert (chosen.tolist(), len(block.flats)) == ([5, 6], 2)
        chosen, block = store.fill_windows(candidates)
        assert chosen.tolist() == [] and block is None  # all read or filled
        before = store.stats()
        assert before["windows_assembled"] == 5 and before["windows_memoised"] == 5
        views = store.windows_many([2, 3, 2])
        assert views[1] is first and views[0] is views[2]
        after = store.stats()
        assert after["windows_assembled"] == before["windows_assembled"]  # a filled window is reused
        assert after["windows_reused"] - before["windows_reused"] == 3

    def test_ready_segments_avoid_windows_reading_a_segment(self, case):
        series, config, _ = case
        store = new_store(case)
        replay(store, series, range(config.alpha))
        everything = store.ready_segments(0, series.num_segments).tolist()
        avoid = 1
        if isinstance(config, GraphFeatureConfig):
            reads = {s for s in everything if avoid in config.layout.valid_rows(s)}
        else:
            reads = {s for s in everything if abs(s - avoid) <= config.m}
        assert reads and len(reads) < len(everything)
        kept = store.ready_segments(0, series.num_segments, np.array([avoid]))
        assert kept.tolist() == [s for s in everything if s not in reads]


class TestMemo:
    def test_same_view_until_the_next_update(self, case):
        series, config, _ = case
        store = new_store(case)
        replay(store, series, range(config.alpha))
        target = series.num_segments // 2
        first = store.window(target)
        assert store.window(target) is first
        assert store.windows_many([target, target])[1] is first
        replay(store, series, [config.alpha])
        after = store.window(target)
        assert after is not first and after.end_step == first.end_step + 1

    def test_generator_of_segments_is_accepted(self, tiny_series, tiny_dataset):
        store = SegmentStateStore(
            tiny_series.num_segments, tiny_dataset.config, tiny_dataset.features.scalers
        )
        replay(store, tiny_series, range(tiny_dataset.config.alpha))
        segments = range(2, 6)
        served = store.windows_many(s for s in segments)  # a cold memo reads it twice
        assert [v.segment_id for v in served] == list(segments)

    def test_counters_show_one_assembly_per_update(self, tiny_series, tiny_dataset):
        store = SegmentStateStore(
            tiny_series.num_segments, tiny_dataset.config, tiny_dataset.features.scalers
        )
        replay(store, tiny_series, range(tiny_dataset.config.alpha))
        segments = list(range(tiny_series.num_segments))
        before = store.stats()
        for _ in range(5):
            store.windows_many(segments)
        stats = store.stats()
        assert stats["windows_assembled"] - before["windows_assembled"] == len(segments)
        assert stats["windows_reused"] - before["windows_reused"] == 4 * len(segments)
        assert stats["windows_memoised"] == len(segments)
        store.ingest_many([observation_at(tiny_series, s, tiny_dataset.config.alpha) for s in segments])
        assert store.stats()["updates"] == stats["updates"] + 1
        assert store.stats()["windows_memoised"] == 0

    def test_views_are_read_only(self, tiny_series, tiny_dataset):
        store = SegmentStateStore(
            tiny_series.num_segments, tiny_dataset.config, tiny_dataset.features.scalers
        )
        replay(store, tiny_series, range(tiny_dataset.config.alpha))
        view = store.window(tiny_series.corridor.target_index)
        for array in (view.image, view.day_type, view.flat):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_memoised_errors_are_raised_fresh(self, tiny_series, tiny_dataset):
        store = SegmentStateStore(
            tiny_series.num_segments, tiny_dataset.config, tiny_dataset.features.scalers
        )
        replay(store, tiny_series, range(3))
        raised = []
        for _ in range(2):
            with pytest.raises(IncompleteWindowError, match="3/12 consecutive") as info:
                store.window(tiny_series.corridor.target_index)
            raised.append(info.value)
        assert raised[0] is not raised[1]
        memoised = store.windows_many([tiny_series.corridor.target_index])[0]
        assert memoised.__traceback__ is None

    def test_reset_segment_drops_the_memo(self, tiny_series, tiny_dataset):
        store = SegmentStateStore(
            tiny_series.num_segments, tiny_dataset.config, tiny_dataset.features.scalers
        )
        target = tiny_series.corridor.target_index
        replay(store, tiny_series, range(tiny_dataset.config.alpha))
        store.window(target)
        store.reset_segment(target + 1)  # a neighbour: the target's window is gone
        with pytest.raises(IncompleteWindowError, match="lags"):
            store.window(target)

    def test_scaler_swap_reassembles_every_window(self, tiny_series, tiny_dataset):
        scalers = tiny_dataset.features.scalers
        other = fit_scalers(tiny_series.slice_steps(0, 300))
        store = SegmentStateStore(tiny_series.num_segments, tiny_dataset.config, scalers)
        reference = SegmentStateStore(tiny_series.num_segments, tiny_dataset.config, other)
        replay(store, tiny_series, range(tiny_dataset.config.alpha))
        replay(reference, tiny_series, range(tiny_dataset.config.alpha))
        target = tiny_series.corridor.target_index
        before = store.window(target)
        store.scalers = other
        after = store.window(target)
        assert after.fingerprint != before.fingerprint
        assert_same_window(after, reference.window(target))


class TestWholeBatchValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"speed_kmh": math.nan},
            {"speed_kmh": math.inf},
            {"speed_kmh": -0.5},
            {"event": math.nan},
            {"temperature": math.inf},
            {"precipitation": -math.inf},
            {"day_type": (1.0, math.nan, 0.0, 0.0)},
        ],
    )
    def test_non_finite_or_negative_values_rejected(self, tiny_series, tiny_dataset, bad):
        store = SegmentStateStore(
            tiny_series.num_segments, tiny_dataset.config, tiny_dataset.features.scalers
        )
        obs = dataclasses.replace(observation_at(tiny_series, 3, 0), **bad)
        with pytest.raises(InvalidObservationError, match="segment 3 step 0"):
            store.ingest(obs)
        assert store.latest_step(3) is None

    def test_huge_finite_values_are_not_flagged(self, tiny_series, tiny_dataset):
        # The fast path sums fields; an overflowing sum must not reject.
        store = SegmentStateStore(
            tiny_series.num_segments, tiny_dataset.config, tiny_dataset.features.scalers
        )
        store.ingest(Observation(3, 0, 1e308, event=1e308, temperature=1e308))
        assert store.latest_step(3) == 0

    @pytest.mark.parametrize(
        "fault, error",
        [
            (lambda obs, step: dataclasses.replace(obs, speed_kmh=math.nan), InvalidObservationError),
            (lambda obs, step: dataclasses.replace(obs, step=step - 1), StaleObservationError),
            (lambda obs, step: dataclasses.replace(obs, step=step + 2), StreamGapError),
            (lambda obs, step: dataclasses.replace(obs, segment_id=99), UnknownSegmentError),
        ],
    )
    def test_a_faulty_reading_commits_nothing(self, tiny_series, tiny_dataset, fault, error):
        store = SegmentStateStore(
            tiny_series.num_segments, tiny_dataset.config, tiny_dataset.features.scalers
        )
        alpha = tiny_dataset.config.alpha
        replay(store, tiny_series, range(alpha))
        target = tiny_series.corridor.target_index
        view = store.window(target)
        before, updates = state_of(store), store.updates
        batch = [observation_at(tiny_series, s, alpha) for s in range(tiny_series.num_segments)]
        batch[-1] = fault(batch[-1], alpha)
        with pytest.raises(error):
            store.ingest_many(batch)
        assert state_of(store) == before and store.updates == updates
        assert store.window(target) is view  # the memo stays valid
        # The stream resumes exactly where it left off.
        replay(store, tiny_series, [alpha])
        assert store.window(target).end_step == alpha

    def test_first_fault_in_order_is_raised(self, tiny_series, tiny_dataset):
        store = SegmentStateStore(
            tiny_series.num_segments, tiny_dataset.config, tiny_dataset.features.scalers
        )
        replay(store, tiny_series, range(2))
        batch = [
            observation_at(tiny_series, 0, 1),  # stale
            dataclasses.replace(observation_at(tiny_series, 1, 2), speed_kmh=-1.0),
        ]
        with pytest.raises(StaleObservationError):
            store.ingest_many(batch)
