"""Rolling per-segment state: from an observation stream to model inputs.

The offline pipeline (:func:`repro.data.features.build_features`) sees a
whole :class:`~repro.traffic.types.TrafficSeries` at once and slides
windows over it.  Online, observations arrive one 5-minute tick at a
time, per segment.  :class:`SegmentStateStore` keeps fixed-capacity ring
buffers — speed and event flags consolidated into ``(num_segments,
capacity)`` arrays, plus one corridor-wide context ring (temperature,
precipitation, day-type bits) — and materialises, on demand, exactly
the ``(image, day_type, flat)`` arrays the predictors consume,
bit-for-bit identical to what ``build_features`` would produce for the
same steps (covered by ``tests/serving/test_state.py``).

Which segments feed a window is the model config's ``window_rows``
table, read once at construction: a corridor's ``±m`` rows or a road
graph's padded k-hop layout.  The store keeps it as one array of row
slots — segment ids, then the zero row for graph padding and a
never-ready slot for rows past a corridor end — and readiness, window
assembly and the gate's neighbourhood all index that array.

:meth:`SegmentStateStore.windows_many` assembles many segments' windows
with a handful of vectorised gathers instead of per-segment python
loops; it is the reason ``predict_many`` amortises not just the model
forward but the feature assembly as well.  The single-segment
:meth:`~SegmentStateStore.window` routes through the same code, so
batched and per-request assembly are identical by construction.

Windows are memoised per store update: a segment's window (or the
reason it has none) is assembled at most once between two updates —
an accepted ingest batch, a :meth:`~SegmentStateStore.reset_segment`
or a scaler swap — and every later request returns the same read-only
:class:`WindowView`.  Any update drops the whole memo, because one
tick's context row feeds every window.  Which requested windows are
complete is decided by one vectorised mask over per-row step ranges
that are also built once per update; only a rejected segment is
diagnosed one by one, for its degradation message.  Scaled speeds are
likewise computed once per update, for every row at once, and windows
gather their rows from them.

:meth:`SegmentStateStore.fill_windows` assembles a block of windows
nobody has asked for yet, for a forward's spare padding rows (see
:class:`repro.serving.service.PaddingFill`).  They join the memo
lazily: a filled window's :class:`WindowView` and fingerprint are built
only when a request reads it.

Observations arrive as an :class:`ObservationBatch` — one array per
field — or as a list of :class:`Observation`, converted once on entry.
They are validated strictly on ingest, a whole batch before any of it is
committed, with array masks: an observation that goes backwards raises
:class:`StaleObservationError`, one that skips ticks raises
:class:`StreamGapError` (a broken feed must be restarted with
:meth:`SegmentStateStore.reset_segment` rather than silently stitched),
and a non-finite field or a negative speed raises
:class:`InvalidObservationError`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from itertools import chain
from typing import NamedTuple

import numpy as np

from ..data.features import PADDING, FeatureConfig, FeatureScalers
from .errors import (
    IncompleteWindowError,
    InvalidObservationError,
    StaleObservationError,
    StreamGapError,
    UnknownSegmentError,
)

__all__ = ["Observation", "ObservationBatch", "WindowView", "SegmentStateStore", "check_batch"]

#: Context-ring column layout: temperature, precipitation, 4 day-type bits.
_CTX_TEMP, _CTX_PRECIP, _CTX_DAY = 0, 1, slice(2, 6)
_DEFAULT_DAY_TYPE = (1.0, 0.0, 0.0, 0.0)  # plain weekday


@dataclass(frozen=True)
class Observation:
    """One segment's reading for one 5-minute tick.

    ``step`` is the absolute tick index of the feed (consecutive integers).
    Corridor-wide context fields are optional; when ``None`` the store
    carries the previous tick's value forward (a weather feed typically
    updates much less often than the speed feed).
    """

    segment_id: int
    step: int
    speed_kmh: float
    event: float = 0.0
    temperature: float | None = None
    precipitation: float | None = None
    day_type: tuple[float, float, float, float] | None = None


@dataclass(frozen=True)
class WindowView:
    """A materialised model input window for one segment.

    ``fingerprint`` identifies the exact window contents (and end step),
    so it changes whenever a new observation advances the window — the
    forecast cache keys on it.  The arrays are read-only: the store hands
    the same view to every caller until its next update.
    """

    segment_id: int
    end_step: int
    target_step: int
    image: np.ndarray  # (image_rows, alpha) scaled
    day_type: np.ndarray  # (4,)
    flat: np.ndarray  # (flat_dim,)
    fingerprint: str
    last_speed_kmh: float


@dataclass(frozen=True, eq=False)
class ObservationBatch:
    """A batch of readings as columns: the ingest format of the store, service and fleet.

    Row ``i`` of every column is one reading.  A context field a reading
    leaves out (``None`` on an :class:`Observation`) is ``False`` in its
    presence mask and 0.0 in its column; NaN is a value, which
    :func:`check_batch` rejects, never a stand-in for "absent".
    """

    segment_ids: np.ndarray  # (N,) int64
    steps: np.ndarray  # (N,) int64
    speeds: np.ndarray  # (N,) float64, km/h
    events: np.ndarray  # (N,) float64
    temperature: np.ndarray  # (N,) float64
    precipitation: np.ndarray  # (N,) float64
    day_types: np.ndarray  # (N, 4) float64
    has_temperature: np.ndarray  # (N,) bool
    has_precipitation: np.ndarray  # (N,) bool
    has_day_type: np.ndarray  # (N,) bool

    def __len__(self) -> int:
        return len(self.segment_ids)

    @classmethod
    def from_observations(cls, observations) -> "ObservationBatch":
        """Columns of a sequence of :class:`Observation`, read in one pass."""
        segment_ids, steps, speeds, events, temperature, precipitation, day_types = (
            [], [], [], [], [], [], []
        )
        for obs in observations:
            segment_ids.append(obs.segment_id)
            steps.append(obs.step)
            speeds.append(obs.speed_kmh)
            events.append(obs.event)
            temperature.append(obs.temperature)
            precipitation.append(obs.precipitation)
            day_types.append(obs.day_type)
        n = len(segment_ids)
        has_temperature, temperature = _optional_column(temperature, n)
        has_precipitation, precipitation = _optional_column(precipitation, n)
        has_day_type = np.fromiter([d is not None for d in day_types], bool, n)
        present = day_types if has_day_type.all() else [
            (0.0, 0.0, 0.0, 0.0) if d is None else d for d in day_types
        ]
        if any(map((4).__ne__, map(len, present))):
            raise ValueError("day_type must hold 4 day-type bits")
        return cls(
            np.fromiter(segment_ids, np.int64, n),
            np.fromiter(steps, np.int64, n),
            np.fromiter(speeds, np.float64, n),
            np.fromiter(events, np.float64, n),
            temperature,
            precipitation,
            np.fromiter(chain.from_iterable(present), np.float64, 4 * n).reshape(n, 4),
            has_temperature,
            has_precipitation,
            has_day_type,
        )

    @classmethod
    def of(cls, observations) -> "ObservationBatch":
        """``observations`` if it is a batch already, else its columns."""
        if isinstance(observations, cls):
            return observations
        return cls.from_observations(observations)

    def take(self, index) -> "ObservationBatch":
        """The rows ``index`` selects (integer positions or a boolean mask), in order."""
        return ObservationBatch(*(getattr(self, f.name)[index] for f in fields(self)))


def _optional_column(values: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(presence mask, values with 0.0 for an absent one) of an optional float field."""
    present = np.fromiter([v is not None for v in values], bool, n)
    if not present.all():
        values = [0.0 if v is None else v for v in values]
    return present, np.fromiter(values, np.float64, n)


class BatchStreams(NamedTuple):
    """What :func:`check_batch` learnt of a valid batch, per touched segment."""

    segments: np.ndarray  # ascending
    first: np.ndarray  # the first step of each segment's readings
    last: np.ndarray  # the last; the steps between are consecutive
    last_rows: np.ndarray  # the batch row of each segment's last reading


def check_batch(batch: ObservationBatch, latest: np.ndarray) -> BatchStreams:
    """Validate a batch of readings against each segment's stream, committing nothing.

    ``latest[s]`` is segment ``s``'s latest ingested step (``-1`` when it
    has none).  Raises the first fault in batch order; within a reading,
    :class:`UnknownSegmentError`, then :class:`InvalidObservationError`
    (a negative or non-finite speed, then a non-finite event,
    temperature, precipitation or day-type bit), then
    :class:`StaleObservationError` (a step at or before the segment's
    previous one) or :class:`StreamGapError` (a skipped step).  A
    reading's previous step is that of the segment's last reading
    earlier in the batch, or ``latest`` for its first.
    """
    num_segments = len(latest)
    segments, steps, speeds = batch.segment_ids, batch.steps, batch.speeds
    known = (segments >= 0) & (segments < num_segments)
    faulty = ~known
    faulty |= ~(speeds >= 0.0)  # NaN fails the comparison too
    faulty |= ~np.isfinite(speeds)
    faulty |= ~np.isfinite(batch.events)
    faulty |= batch.has_temperature & ~np.isfinite(batch.temperature)
    faulty |= batch.has_precipitation & ~np.isfinite(batch.precipitation)
    faulty |= batch.has_day_type & ~np.isfinite(batch.day_types).all(axis=1)
    # Each reading's previous step: group readings by segment, keeping
    # batch order within a segment.  An unknown id is read as segment 0:
    # it is a fault itself, and it sorts after every earlier reading of
    # segment 0, so it moves no earlier reading's previous step.
    grouped = np.where(known, segments, 0)
    order = np.argsort(grouped, kind="stable")
    grouped = grouped[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = grouped[1:] != grouped[:-1]
    previous = np.empty(len(order), dtype=np.int64)
    previous[1:] = steps[order[:-1]]
    previous[starts] = latest[grouped[starts]]
    prev = np.empty_like(previous)
    prev[order] = previous
    faulty |= (prev >= 0) & (steps != prev + 1)
    if faulty.any():
        row = int(np.argmax(faulty))
        _raise_first(batch, row, num_segments, int(prev[row]))
    ends = np.ones_like(starts)  # a group ends where the next starts
    ends[:-1] = starts[1:]
    return BatchStreams(
        grouped[starts], steps[order[starts]], steps[order[ends]], order[ends]
    )


def _raise_first(batch: ObservationBatch, row: int, num_segments: int, latest: int) -> None:
    """Raise row ``row``'s highest-priority fault; see :func:`check_batch`."""
    seg, step = int(batch.segment_ids[row]), int(batch.steps[row])
    if not 0 <= seg < num_segments:
        raise UnknownSegmentError(f"segment {seg} outside corridor 0..{num_segments - 1}")
    speed = float(batch.speeds[row])
    if not (math.isfinite(speed) and speed >= 0.0):
        raise InvalidObservationError(
            f"segment {seg} step {step}: speed_kmh={speed!r} "
            f"is not a finite non-negative speed"
        )
    values = [("event", float(batch.events[row]))]
    if batch.has_temperature[row]:
        values.append(("temperature", float(batch.temperature[row])))
    if batch.has_precipitation[row]:
        values.append(("precipitation", float(batch.precipitation[row])))
    if batch.has_day_type[row]:
        values.extend(("day_type", value) for value in batch.day_types[row].tolist())
    for name, value in values:
        if not math.isfinite(value):
            raise InvalidObservationError(
                f"segment {seg} step {step}: {name}={value!r} is not finite"
            )
    if step <= latest:
        raise StaleObservationError(
            f"segment {seg}: observation for step {step} arrived after "
            f"step {latest} was already ingested (out of order)"
        )
    raise StreamGapError(
        f"segment {seg}: stream skipped steps {latest + 1}..{step - 1}; "
        f"call reset_segment({seg}) to restart the stream"
    )


class _ContextRing:
    """Fixed-capacity ring of context rows keyed by consecutive steps.

    ``count`` tracks the length of the *contiguous* run ending at
    ``latest``; a push that is not ``latest + 1`` restarts the run.
    """

    __slots__ = ("data", "capacity", "latest", "count")

    def __init__(self, capacity: int, width: int):
        self.data = np.zeros((capacity, width), dtype=np.float64)
        self.capacity = capacity
        self.latest: int | None = None
        self.count = 0

    def push(self, step: int, row: np.ndarray) -> None:
        if self.latest is not None and step == self.latest + 1:
            self.count = min(self.count + 1, self.capacity)
        else:
            self.count = 1
        self.data[step % self.capacity] = row
        self.latest = step

    def value_at(self, step: int) -> np.ndarray:
        return self.data[step % self.capacity]

    def has(self, step: int) -> bool:
        return self.latest is not None and self.latest - self.count < step <= self.latest

    def covers(self, end_step: int, n: int) -> bool:
        """Whether the ``n`` consecutive rows ending at ``end_step`` are held."""
        if self.latest is None or end_step > self.latest:
            return False
        return end_step - n + 1 > self.latest - self.count


class SegmentStateStore:
    """Ring-buffered rolling state for every segment of a corridor or road graph.

    Parameters
    ----------
    num_segments:
        Corridor length; observations and queries index into it.
    features:
        Window geometry of the model being served (alpha, m, mask and
        its ``window_rows`` table).
    scalers:
        The model's train-fitted scalers — raw km/h, degrees and mm go in,
        model-scaled features come out.
    interval_minutes:
        Tick length; used to derive the hour-of-day channel from steps.
    capacity:
        Ring capacity per segment (default: exactly ``alpha``).
    """

    def __init__(
        self,
        num_segments: int,
        features: FeatureConfig,
        scalers: FeatureScalers,
        interval_minutes: int = 5,
        capacity: int | None = None,
    ):
        if num_segments < 1:
            raise ValueError("num_segments must be positive")
        if (24 * 60) % interval_minutes != 0:
            raise ValueError("interval_minutes must divide a day evenly")
        self.num_segments = num_segments
        self.features = features
        self._scalers = scalers
        # Each segment's window rows as slots into the per-update arrays:
        # a segment id, n for a graph padding row (it reads the zero row
        # and never holds a window back) or n + 1 for a row past a
        # corridor end (a window that is never complete).
        table = features.window_rows(num_segments)
        self._rows = np.where(
            table >= 0, table, np.where(table == PADDING, num_segments, num_segments + 1)
        )
        self.interval_minutes = interval_minutes
        self.steps_per_day = (24 * 60) // interval_minutes
        capacity = features.alpha if capacity is None else capacity
        if capacity < features.alpha:
            raise ValueError(f"capacity {capacity} cannot hold an alpha={features.alpha} window")
        self._capacity = capacity
        self._speed_data = np.zeros((num_segments, capacity), dtype=np.float64)
        self._event_data = np.zeros((num_segments, capacity), dtype=np.float64)
        self._latest = np.full(num_segments, -1, dtype=np.int64)  # -1 = no data
        self._count = np.zeros(num_segments, dtype=np.int64)  # contiguous run length
        self._context = _ContextRing(capacity, width=6)
        self._window_offsets = np.arange(-(features.alpha - 1), 1)  # steps of a window, to its end
        self._spans: tuple[np.ndarray, np.ndarray] | None = None
        # Per-update window memo: segment -> WindowView | IncompleteWindowError,
        # plus the fill windows not read yet (segment -> block and row), and
        # which segments either holds.
        self._windows: dict[int, WindowView | IncompleteWindowError] = {}
        self._filled: dict[int, tuple[WindowBlock, int]] = {}
        self._memoised = np.zeros(num_segments, dtype=bool)
        self._scaled: dict[int, np.ndarray] = {}  # per update: end step -> scaled speed rows
        self.updates = 0  # accepted ingest batches, resets and scaler swaps
        self.windows_assembled = 0
        self.windows_reused = 0

    @property
    def scalers(self) -> FeatureScalers:
        return self._scalers

    @scalers.setter
    def scalers(self, scalers: FeatureScalers) -> None:
        """Swap the scalers (a checkpoint hot-swap); every window is re-scaled."""
        self._scalers = scalers
        self._updated()

    def _updated(self) -> None:
        """Drop every memoised window: the state they were assembled from moved."""
        self._windows.clear()
        self._filled.clear()
        self._memoised[:] = False
        self._scaled.clear()
        self._spans = None
        self.updates += 1

    def stats(self) -> dict:
        """Window-memo counters: how often assembly ran versus was reused."""
        return {
            "updates": self.updates,
            "windows_assembled": self.windows_assembled,
            "windows_reused": self.windows_reused,
            "windows_memoised": len(self._windows) + len(self._filled),
        }

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _check_segment(self, segment_id: int) -> None:
        if not 0 <= segment_id < self.num_segments:
            raise UnknownSegmentError(
                f"segment {segment_id} outside corridor 0..{self.num_segments - 1}"
            )

    def ingest(self, observation: Observation) -> None:
        """Validate and absorb one observation (see :meth:`ingest_many`)."""
        self.ingest_many((observation,))

    def ingest_many(self, observations) -> int:
        """Validate a whole batch, then absorb it; returns how many.

        Takes an :class:`ObservationBatch` or a sequence of
        :class:`Observation` (converted once, here).  Raises what
        :func:`check_batch` raises, and then nothing of the batch has
        been committed.  A batch may carry several consecutive steps of
        one segment.
        """
        batch = ObservationBatch.of(observations)
        if not len(batch):
            return 0
        streams = check_batch(batch, self._latest)
        steps, segments = batch.steps, batch.segment_ids
        slots = steps % self._capacity
        self._speed_data[segments, slots] = batch.speeds
        self._event_data[segments, slots] = batch.events
        # A segment's readings in a batch are consecutive steps; they extend
        # its contiguous run when the first one follows the stored latest.
        touched, first, last = streams.segments, streams.first, streams.last
        run = np.where(first == self._latest[touched] + 1, self._count[touched], 0)
        self._count[touched] = np.minimum(run + last - first + 1, self._capacity)
        self._latest[touched] = last
        # Context rows change only between runs of equal steps.
        bounds = [0, *(np.flatnonzero(np.diff(steps)) + 1).tolist(), len(batch)]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            self._ingest_context(int(steps[start]), batch, start, stop)
        self._updated()
        return len(batch)

    def _ingest_context(self, step: int, batch: ObservationBatch, start: int, stop: int) -> None:
        """Fold one run of same-step readings, rows ``[start, stop)``, into the context ring.

        Each field takes the last value the run provides, as if the
        readings were folded one by one.
        """

        def last_present(present: np.ndarray) -> int | None:
            rows = np.flatnonzero(present[start:stop])
            return start + int(rows[-1]) if len(rows) else None

        temperature = last_present(batch.has_temperature)
        precipitation = last_present(batch.has_precipitation)
        day_type = last_present(batch.has_day_type)
        ctx = self._context
        if ctx.latest is not None and step <= ctx.latest:
            # Another reading already opened this tick (or a later one);
            # only fold in explicitly provided fields.
            if not ctx.has(step):
                return
            row = ctx.value_at(step)
        elif ctx.latest is not None and ctx.has(step - 1):
            # New tick: start from the previous tick's values (carry-forward).
            row = ctx.value_at(step - 1).copy()
        else:
            row = np.array([0.0, 0.0, *_DEFAULT_DAY_TYPE])
        if temperature is not None:
            row[_CTX_TEMP] = batch.temperature[temperature]
        if precipitation is not None:
            row[_CTX_PRECIP] = batch.precipitation[precipitation]
        if day_type is not None:
            row[_CTX_DAY] = batch.day_types[day_type]
        if ctx.latest is None or step > ctx.latest:
            ctx.push(step, row)

    def reset_segment(self, segment_id: int) -> None:
        """Drop a segment's buffered stream (recovery after a gap)."""
        self._check_segment(segment_id)
        self._latest[segment_id] = -1
        self._count[segment_id] = 0
        self._speed_data[segment_id] = 0.0
        self._event_data[segment_id] = 0.0
        self._updated()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def latest_step(self, segment_id: int) -> int | None:
        self._check_segment(segment_id)
        latest = int(self._latest[segment_id])
        return None if latest < 0 else latest

    def neighbourhood(self, segment_id: int) -> list[int]:
        """The segments ``segment_id``'s window reads, itself included."""
        self._check_segment(segment_id)
        rows = self._rows[segment_id]
        return rows[rows < self.num_segments].tolist()

    def last_speed_kmh(self, segment_id: int) -> float:
        """Most recent raw speed; the naive-degradation forecast."""
        self._check_segment(segment_id)
        latest = int(self._latest[segment_id])
        if latest < 0:
            raise IncompleteWindowError(f"segment {segment_id} has no observations yet")
        return float(self._speed_data[segment_id, latest % self._capacity])

    # ------------------------------------------------------------------
    # Window assembly
    # ------------------------------------------------------------------
    def _hours(self, steps: np.ndarray) -> np.ndarray:
        """Hour of day per step, assuming step 0 is midnight."""
        minutes = (steps % self.steps_per_day) * self.interval_minutes
        return (minutes // 60).astype(np.float64)

    def _readiness_error(self, segment_id: int) -> IncompleteWindowError | None:
        """Why this segment's window cannot be assembled right now."""
        alpha, m = self.features.alpha, self.features.m
        rows = self._rows[segment_id]
        if (rows > self.num_segments).any():
            return IncompleteWindowError(
                f"segment {segment_id} needs {m} neighbours on each side "
                f"(corridor 0..{self.num_segments - 1}); edge segments are "
                f"served by the naive fallback"
            )
        end = int(self._latest[segment_id])
        if end < 0 or self._count[segment_id] < alpha:
            have = max(int(self._count[segment_id]), 0) if end >= 0 else 0
            return IncompleteWindowError(
                f"segment {segment_id} has {have}/{alpha} consecutive observations"
            )
        # Each adjacent row needs the alpha steps ending at `end`: its stream
        # must have reached `end` and its contiguous run must span back far
        # enough (a neighbour running ahead is fine while the ring holds on
        # to the older slots).  Padding rows constrain nothing.
        neighbours = rows[rows < self.num_segments]
        latest = self._latest[neighbours]
        count = self._count[neighbours]
        if not ((latest >= end) & (count >= latest - end + alpha)).all():
            return IncompleteWindowError(
                f"a neighbour of segment {segment_id} lags it "
                f"(no complete window ending at step {end})"
            )
        if not self._context.covers(end, alpha):
            return IncompleteWindowError(
                f"context channels incomplete for steps ending at {end}"
            )
        return None

    def _ready_mask(self, segments: np.ndarray) -> np.ndarray:
        """Per segment, whether :meth:`_readiness_error` would find nothing wrong.

        A window ending at ``end`` is complete exactly when every adjacent
        row's stream reached ``end`` and its contiguous run spans back
        ``alpha`` steps from it — ``latest - count + alpha <= end <=
        latest`` — and the context ring covers it, a range of the same
        form.  The segment's own row is one of its rows, so its own
        ``alpha`` observations are the same condition.  The per-row
        ranges, context folded in, are built once per update; a window
        is then ready when its end lies in the intersection of its rows'
        ranges.
        """
        span = self._spans
        if span is None:
            span = self._spans = self._row_spans()
        lo, hi = span
        rows = self._rows[segments]  # (B, R) slots into lo / hi
        ends = self._latest[segments]
        return (lo[rows].max(axis=1) <= ends) & (ends <= hi[rows].min(axis=1))

    def _row_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row slot, the window end steps it can serve: ``lo[r] <= end <= hi[r]``."""
        n, alpha = self.num_segments, self.features.alpha
        big = np.iinfo(np.int64).max
        lo = np.empty(n + 2, dtype=np.int64)
        hi = np.empty(n + 2, dtype=np.int64)
        ctx = self._context
        if ctx.latest is None:
            lo[:n], hi[:n] = big, -big  # no context yet: nothing is servable
        else:
            np.maximum(self._latest - self._count + alpha, ctx.latest - ctx.count + alpha, out=lo[:n])
            np.minimum(self._latest, ctx.latest, out=hi[:n])
        lo[n], hi[n] = -big, big  # graph padding row: no constraint
        lo[n + 1], hi[n + 1] = big, -big  # off a corridor end: never servable
        return lo, hi

    def window(self, segment_id: int) -> WindowView:
        """One segment's window, or raise :class:`IncompleteWindowError`."""
        result = self.windows_many([segment_id])[0]
        if isinstance(result, IncompleteWindowError):
            raise IncompleteWindowError(*result.args)  # the memoised instance stays unraised
        return result

    def windows_many(
        self, segment_ids
    ) -> list[WindowView | IncompleteWindowError]:
        """Many segments' windows, each assembled at most once per store update.

        Returns one entry per requested segment, in order: a
        :class:`WindowView`, or the :class:`IncompleteWindowError` that
        explains why the segment cannot be served by the model (callers
        degrade those to the naive forecast rather than failing the whole
        batch).  Unknown segment ids still raise — that is a caller bug,
        not a stream condition.  Segments not yet memoised since the last
        update are assembled together in one vectorised pass.
        """
        memo = self._windows
        segment_ids = list(segment_ids)  # read twice on a miss; may be a generator
        try:
            results = [memo[segment_id] for segment_id in segment_ids]
        except KeyError:
            missing = [s for s in dict.fromkeys(segment_ids) if s not in memo]
            if self._filled:
                missing = [s for s in missing if not self._build_filled(s)]
            if missing:
                self._assemble(missing)
                self.windows_assembled += len(missing)
            results = [memo[segment_id] for segment_id in segment_ids]
            self.windows_reused += len(results) - len(missing)
        else:
            self.windows_reused += len(results)
        return results

    def _assemble(self, segment_ids: list[int]) -> None:
        """Assemble distinct segments' windows with vectorised gathers into the memo."""
        memo = self._windows
        if min(segment_ids) < 0 or max(segment_ids) >= self.num_segments:
            for segment_id in segment_ids:
                self._check_segment(segment_id)
        requested = np.asarray(segment_ids, dtype=np.int64)
        self._memoised[requested] = True
        ready = self._ready_mask(requested)
        ready_segments = []
        for segment_id, servable in zip(segment_ids, ready.tolist()):
            if servable:
                ready_segments.append(segment_id)
                continue
            # Only a rejected segment pays for the per-segment diagnosis.
            error = self._readiness_error(segment_id)
            assert error is not None, f"readiness mask rejected servable segment {segment_id}"
            memo[segment_id] = error
        if not ready_segments:
            return
        block = self._gather(requested[ready])
        for row, segment_id in enumerate(ready_segments):
            memo[segment_id] = block.view(row, segment_id)

    def ready_segments(self, start: int, stop: int, avoid: np.ndarray | None = None) -> np.ndarray:
        """The segments of ``[start, stop)`` whose window is complete and reads none of ``avoid``.

        Ascending, from one readiness mask; valid until the next update.
        """
        segments = np.arange(start, stop, dtype=np.int64)
        ready = self._ready_mask(segments)
        if avoid is not None and len(avoid):
            ready &= ~np.isin(self._rows[segments], avoid).any(axis=1)
        return segments[ready]

    def fill_windows(self, candidates: np.ndarray) -> tuple[np.ndarray, "WindowBlock | None"]:
        """Assemble every one of ``candidates`` whose window nobody has read yet.

        A padding fill: the windows ride in a forward's spare rows and
        the fill-only forwards after it.  ``candidates`` come from
        :meth:`ready_segments` in the current update; those whose window
        has been read or assembled since the update are passed over.  The
        chosen windows are assembled in one vectorised pass, as a block,
        and memoised lazily: a window's :class:`WindowView` and
        fingerprint are built only when a request reads it, and equal
        what :meth:`windows_many` would have built.  Returns the chosen
        segments and their block (``None`` when there are none).
        """
        chosen = candidates[~self._memoised[candidates]]
        if not len(chosen):
            return chosen, None
        block = self._gather(chosen)
        self._memoised[chosen] = True
        self._filled.update(
            (segment_id, (block, row)) for row, segment_id in enumerate(chosen.tolist())
        )
        self.windows_assembled += len(chosen)
        return chosen, block

    def _build_filled(self, segment_id: int) -> bool:
        """Turn a lazily memoised fill window into its view; False if there is none."""
        entry = self._filled.pop(segment_id, None)
        if entry is None:
            return False
        block, row = entry
        self._windows[segment_id] = block.view(row, segment_id)
        return True

    def _gather(self, segments: np.ndarray) -> "WindowBlock":
        """Ready segments' windows, assembled together into one read-only block.

        Mirrors :func:`repro.data.features.build_features` exactly: the
        adjacent-speed rows are each segment's ``window_rows`` (padding
        reads the zero row), followed by the event / temperature /
        precipitation / hour rows, with the factor mask's zero-filling
        applied.
        """
        cfg = self.features
        alpha, m = cfg.alpha, cfg.m
        ends = self._latest[segments]  # (B,)
        steps = ends[:, None] + self._window_offsets  # (B, alpha)
        idx = steps % self._capacity
        rows = self._rows[segments]  # (B, num_roads)
        context = self._context.data.take(idx, axis=0)  # (B, alpha, 6)

        # One (B, flat_dim) allocation: each flat row is its image's rows
        # followed by the day-type bits, and the images are views into it.
        num_rows = rows.shape[1]
        flats = np.empty((len(segments), cfg.flat_dim))
        images = flats[:, : cfg.image_rows * alpha].reshape(-1, cfg.image_rows, alpha, copy=False)
        day_types = flats[:, cfg.image_rows * alpha :]  # (B, 4)
        adj = images[:, :num_rows]
        for end in np.unique(ends).tolist():
            at = ends == end
            adj[at] = self._scaled_speeds(end).take(rows[at], axis=0)
        images[:, num_rows] = self._event_data[segments[:, None], idx]
        images[:, num_rows + 1] = self.scalers.temperature.transform(context[:, :, _CTX_TEMP])
        images[:, num_rows + 2] = self.scalers.precipitation.transform(context[:, :, _CTX_PRECIP])
        images[:, num_rows + 3] = self._hours(steps) / 23.0
        day_types[:] = context[:, -1, _CTX_DAY]

        mask = cfg.mask
        if not mask.adjacent:
            keep = adj[:, m, :].copy()
            adj[:] = 0.0
            adj[:, m, :] = keep
        if not mask.event:
            images[:, num_rows] = 0.0
        if not mask.weather:
            images[:, num_rows + 1 : num_rows + 3] = 0.0
        if not mask.time:
            images[:, num_rows + 3] = 0.0
            day_types[:] = 0.0
        for array in (flats, images, day_types):
            array.flags.writeable = False  # shared by every caller until the next update
        last_speeds = self._speed_data[segments, idx[:, -1]].tolist()
        return WindowBlock(images, day_types, flats, ends.tolist(), last_speeds, cfg.beta)

    def _scaled_speeds(self, end: int) -> np.ndarray:
        """Every row's scaled speeds over the ``alpha`` steps ending at ``end``, and a zero row.

        Built once per update and end step, then shared by every window
        ending there.  Scaling is elementwise, so scaling the rows before
        gathering them gives the bits that scaling each window would;
        the appended zero row is the offline rule for graph padding, zero
        after scaling.  A row whose stream does not hold those steps
        holds garbage, which no complete window reads.  Complete windows
        end within ``capacity - alpha`` steps of the context's latest, so
        an update builds at most that many plus one of these.
        """
        scaled = self._scaled.get(end)
        if scaled is None:
            idx = (end + self._window_offsets) % self._capacity
            scaled = np.zeros((self.num_segments + 1, self.features.alpha))
            scaled[:-1] = self.scalers.speed.transform(self._speed_data[:, idx])
            self._scaled[end] = scaled
        return scaled


class WindowBlock:
    """Several segments' windows assembled together: row ``i`` of each array is one window.

    ``images`` and ``day_types`` are views into ``flats``, all read-only.
    """

    __slots__ = ("images", "day_types", "flats", "ends", "_last_speeds", "_beta")

    def __init__(self, images, day_types, flats, ends: list[int], last_speeds: list[float], beta: int):
        self.images, self.day_types, self.flats = images, day_types, flats
        self.ends = ends  # each window's end step
        self._last_speeds, self._beta = last_speeds, beta

    def view(self, row: int, segment_id: int) -> WindowView:
        """Row ``row`` as a :class:`WindowView`, fingerprint included."""
        end = self.ends[row]
        # The flat row is the image bytes then the day-type bytes.
        digest = hashlib.blake2b(end.to_bytes(8, "little", signed=True), digest_size=12)
        digest.update(self.flats[row])
        return WindowView(
            segment_id=int(segment_id),
            end_step=end,
            target_step=end + self._beta,
            image=self.images[row],
            day_type=self.day_types[row],
            flat=self.flats[row],
            fingerprint=digest.hexdigest(),
            last_speed_kmh=self._last_speeds[row],
        )
