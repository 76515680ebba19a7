"""The :class:`ForecastService` facade: store → batcher → model → cache.

Wiring (one instance serves one corridor):

* :meth:`ForecastService.ingest_many` feeds observations — an
  :class:`~repro.serving.state.ObservationBatch` of columns, or a list
  converted once — into the
  :class:`~repro.serving.state.SegmentStateStore`;
* :meth:`ForecastService.predict` / :meth:`~ForecastService.predict_many`
  answer "what is segment s's speed ``beta`` ticks from now?" — cache
  first, then one coalesced forward through the
  :class:`~repro.serving.batcher.MicroBatcher`, replayed from the
  model's compiled tape (:class:`~repro.serving.forward.ServedForward`);
  the first cached forward of a store update also forecasts the shard's
  other ready windows, in its spare padding rows and further full
  forwards (:class:`PaddingFill`), so later misses in the same update
  need no forward;
* :meth:`ForecastService.swap_checkpoint` hot-swaps the model mid-stream
  from a :mod:`repro.core.zoo` checkpoint (which carries the fitted
  scalers); cache entries are namespaced by the serving model's
  weight fingerprint so stale-champion values cannot outlive a swap.

Degradation policy (also documented in DESIGN.md): a query the model
cannot answer falls back to the *naive persistence forecast* — the
segment's last observed speed — and is flagged ``degraded`` with a
reason.  This covers segments whose window is still warming up or lags
its neighbours, corridor-edge segments whose window runs past a
corridor end, and horizons the model was not trained for.  Only a
segment with no observations at all is a hard
:class:`IncompleteWindowError`: there is nothing defensible to say
about it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ..attacks.defense import PerturbationGate
from ..core.model import APOTS
from ..core.zoo import load_model, model_fingerprint
from ..data.features import FeatureScalers
from .batcher import MicroBatcher
from .cache import ForecastCache
from .errors import IncompleteWindowError
from .forward import ServedForward
from .state import Observation, ObservationBatch, SegmentStateStore, WindowView
from ..obs.telemetry import Telemetry

__all__ = ["Forecast", "ForecastService", "ForecastTable"]


@dataclass(frozen=True)
class Forecast:
    """One answered query."""

    segment_id: int
    target_step: int
    horizon_steps: int
    speed_kmh: float
    source: str  # "model" | "naive"
    degraded: bool = False
    degraded_reason: str | None = None
    from_cache: bool = False
    #: Weight fingerprint of the model that produced this value
    #: (``repro.core.zoo.model_fingerprint``); ``None`` for naive
    #: persistence answers, which no model produced.
    model_fingerprint: str | None = None


@dataclass(frozen=True, eq=False)
class ForecastTable:
    """One store update's model forecasts at horizon ``beta``, as columns.

    Row ``i``: the window of segment ``segment_ids[i]`` ends at step
    ``end_steps[i]`` and its forecast is ``speeds_kmh[i]`` (target step
    ``end_steps[i] + beta``).  ``cached[i]`` says whether the service's
    cache holds that forecast, so that a cached read of it is a cache hit
    (``from_cache=True``); otherwise the read takes it from the update's
    fill (``from_cache=False``) and caches it.  Built by
    :meth:`ForecastService.forecast_table` for a caller that answers the
    update's later cached reads itself.
    """

    segment_ids: np.ndarray  # int64
    speeds_kmh: np.ndarray  # float64
    end_steps: np.ndarray  # int64
    cached: np.ndarray  # bool
    model_fingerprint: str


class PaddingFill:
    """Forecasts the shard's other ready windows once per store update, and keeps them.

    A cached flush of ``k`` requests forwards ``max_batch_size`` rows
    however small ``k`` is.  Because the padding makes each row's result
    independent of its co-riders at the batch sizes that are pinned (2,
    4, 8 and 64; see :mod:`repro.serving.batcher`), the spare rows may
    carry other windows instead, and their forecasts are bitwise what an
    on-demand forward would give.  The first cached flush of a store
    update takes, as one block, every owned window that is complete,
    reads no gate-quarantined segment and has not been read or assembled
    since the update (it was forecast or answered from the cache): one
    readiness mask lists them and the store assembles them in one pass.
    They fill the requests' spare rows and then as many further full
    forwards as they need.  The km/h forecasts land in a table that a
    later cache miss in the same update reads instead of queuing a
    forward.  The table belongs to one
    store update: later flushes in it take nothing, and the next update
    (or :meth:`reset`, on a checkpoint swap) starts afresh.  The same
    forecasts stay readable as columns (:meth:`entries`), for the
    update's :class:`ForecastTable`.

    Holds the store, the gate and the telemetry but not the service, so
    the service's objects form no reference cycle.
    """

    __slots__ = ("_store", "_gate", "_telemetry", "_range", "_update", "_kmh", "_taken", "_ends", "_entries")

    def __init__(
        self,
        store: SegmentStateStore,
        segment_range: tuple[int, int],
        gate: PerturbationGate | None,
        telemetry: Telemetry,
    ):
        self._store, self._gate, self._telemetry = store, gate, telemetry
        self._range = segment_range
        self._taken: list[int] = []
        self._ends: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Drop the table: the next cached flush fills afresh."""
        self._update: int | None = None  # the store update the table belongs to
        self._kmh: dict[int, float] = {}
        self._entries: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def lookup(self, segment_id: int) -> float | None:
        """The km/h forecast a fill made for this segment in the current update, if any."""
        if self._update != self._store.updates:
            return None
        return self._kmh.get(segment_id)

    def take(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """This update's fill windows as one ``(images, day_types, flat)`` block.

        ``None`` when there are none, or when this update's fill ran already.
        """
        if self._update == self._store.updates:
            return None
        self._update, self._kmh, self._entries = self._store.updates, {}, None
        self._telemetry.counter("fills").inc()
        # Quarantine moves only when an ingest is screened, a store update.
        quarantined = self._gate.quarantined_segments() if self._gate is not None else []
        avoid = np.asarray(quarantined, dtype=np.int64) if quarantined else None
        segments, block = self._store.fill_windows(self._store.ready_segments(*self._range, avoid))
        if block is None:
            return None
        self._taken, self._ends = segments.tolist(), block.ends
        self._telemetry.counter("fill_rows").inc(len(segments))
        return block.images, block.day_types, block.flats

    def give(self, kmh: np.ndarray) -> None:
        """Record the forecasts of the block :meth:`take` returned last."""
        self._kmh.update(zip(self._taken, kmh.tolist()))
        self._entries = (np.asarray(self._taken, dtype=np.int64), kmh, np.asarray(self._ends, dtype=np.int64))
        self._taken, self._ends = [], []

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """This update's fill as ``(segments, km/h, window end steps)`` columns, if it ran."""
        if self._update != self._store.updates:
            return None
        return self._entries


class ForecastService:
    """Online forecast serving for one corridor and one APOTS model.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.model.APOTS` whose ``scalers`` are
        set (``fit()`` sets them; so does loading a fitted model's checkpoint).
    num_segments:
        Corridor length the observation stream indexes into.
    max_batch_size, linger_seconds:
        Micro-batching knobs (see :mod:`repro.serving.batcher`); every
        forward runs on a batch padded to ``max_batch_size`` rows,
        replayed from the model's compiled tape (see
        :mod:`repro.serving.forward`).  With the cache on, the first
        forward of each store update also forecasts the owned windows
        nobody asked for yet, in its padding rows and up to
        ``ceil(ready / max_batch_size)`` forwards in all
        (:class:`PaddingFill`).
    cache_capacity, cache_ttl_seconds:
        Forecast cache sizing; TTL defaults to one 5-minute tick.
    interval_minutes, store_capacity:
        Stream geometry, forwarded to the state store.
    gate:
        An optional :class:`repro.attacks.defense.PerturbationGate`.
        When set, every ingested observation is screened for physical
        plausibility; forecasts for quarantined segments degrade to
        naive persistence of the last *trusted* speed instead of running
        the model on a possibly poisoned window.
    segment_range:
        The half-open ``[lo, hi)`` sub-range of segments this service
        *owns* when it runs as one shard replica of a
        :class:`repro.fleet.ForecastFleet` (it may still ingest halo
        observations outside the range so owned windows stay complete).
        Defaults to the whole corridor; surfaced in :meth:`snapshot` so
        fleet telemetry can aggregate replica snapshots without
        reaching into service internals.
    clock:
        Injectable monotonic clock (tests use a fake one).
    """

    def __init__(
        self,
        model: APOTS,
        num_segments: int,
        *,
        scalers: FeatureScalers | None = None,
        gate: PerturbationGate | None = None,
        segment_range: tuple[int, int] | None = None,
        max_batch_size: int = 64,
        linger_seconds: float = 0.0,
        cache_capacity: int = 4096,
        cache_ttl_seconds: float = 300.0,
        interval_minutes: int = 5,
        store_capacity: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        scalers = scalers if scalers is not None else model.scalers
        if scalers is None:
            raise ValueError(
                "model has no fitted feature scalers; fit() it on a dataset or "
                "load a checkpoint saved from a fitted model"
            )
        if segment_range is None:
            segment_range = (0, num_segments)
        lo, hi = segment_range
        if not (0 <= lo < hi <= num_segments):
            raise ValueError(
                f"segment_range {segment_range} is not a half-open sub-range "
                f"of the corridor 0..{num_segments}"
            )
        self._model = model
        self._fingerprint = model_fingerprint(model)
        self.gate = gate
        self.segment_range = (int(lo), int(hi))
        self.telemetry = Telemetry()
        self.store = SegmentStateStore(
            num_segments,
            model.features,
            scalers,
            interval_minutes=interval_minutes,
            capacity=store_capacity,
        )
        self.cache = ForecastCache(
            capacity=cache_capacity, ttl_seconds=cache_ttl_seconds, clock=clock
        )
        self._forward = ServedForward(model.predictor, telemetry=self.telemetry)
        self.batcher = MicroBatcher(
            self._forward,
            max_batch_size=max_batch_size,
            linger_seconds=linger_seconds,
            telemetry=self.telemetry,
            clock=clock,
            output=scalers.speed.inverse_transform,
        )
        self._fill = PaddingFill(self.store, self.segment_range, gate, self.telemetry)
        # Per segment, the highest window end step of a forecast cached
        # since the cache was last cleared: a window ending later cannot
        # be in the cache.
        self._cached_end = [-1] * num_segments

    @classmethod
    def from_checkpoint(cls, directory: str | Path, num_segments: int, **kwargs) -> "ForecastService":
        """Build a service straight from a zoo checkpoint directory."""
        return cls(load_model(directory), num_segments, **kwargs)

    # ------------------------------------------------------------------
    @property
    def model(self) -> APOTS:
        return self._model

    @property
    def fingerprint(self) -> str:
        """Weight fingerprint of the currently served model."""
        return self._fingerprint

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, observation: Observation) -> None:
        self.ingest_many((observation,))

    def ingest_many(self, observations: ObservationBatch | Iterable[Observation]) -> int:
        """Absorb a batch (all or nothing, see the store), then screen it.

        Takes an :class:`ObservationBatch` or observations, converted once here.
        """
        batch = ObservationBatch.of(observations)
        count = self.store.ingest_many(batch)
        self.telemetry.counter("observations").inc(count)
        if self.gate is not None:
            for reading in zip(batch.segment_ids.tolist(), batch.steps.tolist(), batch.speeds.tolist()):
                self._screen(*reading)
        return count

    def _screen(self, segment_id: int, step: int, speed_kmh: float) -> None:
        """Run the perturbation gate over one accepted reading."""
        decision = self.gate.screen(segment_id, step, speed_kmh)
        self.telemetry.counter("gate_checks").inc()
        if decision.suspect:
            self.telemetry.counter("gate_hits").inc()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _naive(self, segment_id: int, horizon: int, reason: str) -> Forecast:
        self.telemetry.counter("degraded_forecasts").inc()
        latest = self.store.latest_step(segment_id)
        return Forecast(
            segment_id=segment_id,
            target_step=(latest if latest is not None else 0) + horizon,
            horizon_steps=horizon,
            speed_kmh=self.store.last_speed_kmh(segment_id),
            source="naive",
            degraded=True,
            degraded_reason=reason,
        )

    def _gate_quarantined(self, segment_id: int) -> bool:
        """Whether the gate quarantines this segment's *window*.

        The model's window reads every segment of the store's
        :meth:`~SegmentStateStore.neighbourhood`, so a poisoned neighbour
        taints the forecast just as much as a poisoned target.
        """
        if self.gate is None:
            return False
        return any(map(self.gate.is_quarantined, self.store.neighbourhood(segment_id)))

    def _gate_naive(self, segment_id: int, horizon: int) -> Forecast:
        """Degrade a quarantined segment, persisting the last trusted speed.

        The store's last observation is exactly the reading the gate
        flagged, so plain naive persistence would echo the perturbed
        value; the gate remembers the last speed accepted outside
        quarantine and we persist that instead when it exists.
        """
        self.telemetry.counter("gate_degraded_forecasts").inc()
        forecast = self._naive(segment_id, horizon, "perturbation gate quarantine")
        assert self.gate is not None
        safe = self.gate.safe_speed(segment_id)
        if safe is not None:
            forecast = replace(forecast, speed_kmh=safe)
        return forecast

    def _resolve(
        self, segment_id: int, horizon: int, use_cache: bool
    ) -> tuple[Forecast | None, tuple | None, WindowView | None]:
        """Answer from cache/fill/degradation, or return the window to batch."""
        self.telemetry.counter("requests").inc()
        beta = self._model.features.beta
        if horizon < 1:
            raise ValueError("horizon_steps must be at least 1")
        if horizon != beta:
            return (
                self._naive(
                    segment_id,
                    horizon,
                    f"horizon {horizon} unsupported (model predicts beta={beta})",
                ),
                None,
                None,
            )
        if self._gate_quarantined(segment_id):
            return self._gate_naive(segment_id, horizon), None, None
        try:
            view = self.store.window(segment_id)
        except IncompleteWindowError as exc:
            return self._naive(segment_id, horizon, str(exc)), None, None
        key = (self._fingerprint, segment_id, horizon, view.fingerprint)
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                return cached, None, None
            filled = self._fill.lookup(segment_id)
            if filled is not None:
                self.telemetry.counter("fill_served").inc()
                return self._complete(key, view, filled, horizon, True), None, None
        return None, key, view

    def _complete(self, key: tuple, view: WindowView, kmh: float, horizon: int, use_cache: bool) -> Forecast:
        """The model's answer for a window; a cached call also caches it."""
        fields = dict(
            segment_id=view.segment_id,
            target_step=view.target_step,
            horizon_steps=horizon,
            speed_kmh=kmh,
            source="model",
            model_fingerprint=self._fingerprint,
        )
        if use_cache:
            # The cache holds the answer as every hit returns it: one
            # immutable Forecast, shared rather than copied per hit.
            self.cache.put(key, Forecast(**fields, from_cache=True))
            if view.end_step > self._cached_end[view.segment_id]:
                self._cached_end[view.segment_id] = view.end_step
        return Forecast(**fields)

    def predict(
        self, segment_id: int, horizon_steps: int | None = None, use_cache: bool = True
    ) -> Forecast:
        """Forecast one segment, flushing the batcher immediately."""
        start = time.perf_counter()
        horizon = horizon_steps if horizon_steps is not None else self._model.features.beta
        forecast, key, view = self._resolve(segment_id, horizon, use_cache)
        if forecast is None:
            pending = self.batcher.submit(view)
            self.batcher.flush(self._fill if use_cache else None)
            forecast = self._complete(key, view, pending.value, horizon, use_cache)
        self.telemetry.histogram("predict_latency_ms").observe(
            (time.perf_counter() - start) * 1e3
        )
        return forecast

    def predict_many(
        self,
        segment_ids: Sequence[int],
        horizon_steps: int | None = None,
        use_cache: bool = True,
    ) -> list[Forecast]:
        """Forecast many segments with one coalesced forward pass.

        Results are returned in request order; cache hits, forecasts a
        padding fill already made and degraded requests never enter the
        batcher.  A forecast served from a fill is a cache miss: it is
        returned with ``from_cache=False`` and then cached.
        """
        start = time.perf_counter()
        results = self._answer_many(segment_ids, horizon_steps, use_cache)
        self.telemetry.histogram("predict_many_latency_ms").observe(
            (time.perf_counter() - start) * 1e3
        )
        return results

    def replay(self, segment_ids: Sequence[int]) -> None:
        """Take cached reads at ``beta`` that were answered from this service's table elsewhere.

        A caller that answers reads from a :meth:`forecast_table` sends
        them back here, in read order, before anything else reaches the
        service: the cache, the fill and every counter then move exactly
        as ``predict_many(segment_ids)`` would have moved them at read
        time (a cache entry's TTL runs from now).  Nothing is returned,
        and the time goes to the ``replay_ms`` histogram rather than to
        ``predict_many_latency_ms``, which times calls only.
        """
        start = time.perf_counter()
        self._answer_many(segment_ids, None, True)
        self.telemetry.histogram("replay_ms").observe((time.perf_counter() - start) * 1e3)

    def forecast_table(self, answered: Sequence[Forecast]) -> ForecastTable | None:
        """This update's forecasts that a later cached read at ``beta`` takes without the model.

        Call it straight after the cached ``predict_many`` at ``beta``
        that ran this store update's fill, with what that call returned.
        The table holds the fill's forecasts whose first cached read
        takes them from the fill (not cached yet: a window ending no later
        than one already cached is left out, it may be a cache hit) and
        the call's own model answers it forwarded, now cached.  Other
        reads (degraded, horizons other than ``beta``, cache hits from an
        earlier update) are not in it.  ``None`` when the cache cannot
        hold one forecast per owned window, since then an entry could be
        evicted before the update's last read.
        """
        lo, hi = self.segment_range
        if self.cache.capacity < hi - lo:
            return None
        beta = self._model.features.beta
        forwarded = [f for f in answered if f.source == "model" and not f.from_cache]
        segments = [np.array([f.segment_id for f in forwarded], dtype=np.int64)]
        kmh = [np.array([f.speed_kmh for f in forwarded], dtype=np.float64)]
        ends = [np.array([f.target_step - beta for f in forwarded], dtype=np.int64)]
        cached = [np.ones(len(forwarded), dtype=bool)]
        filled = self._fill.entries()
        if filled is not None:
            fill_segments, fill_kmh, fill_ends = filled
            fresh = fill_ends > np.asarray(self._cached_end)[fill_segments]
            segments.append(fill_segments[fresh])
            kmh.append(fill_kmh[fresh])
            ends.append(fill_ends[fresh])
            cached.append(np.zeros(int(fresh.sum()), dtype=bool))
        return ForecastTable(
            np.concatenate(segments),
            np.concatenate(kmh),
            np.concatenate(ends),
            np.concatenate(cached),
            self._fingerprint,
        )

    def _answer_many(
        self, segment_ids: Sequence[int], horizon_steps: int | None, use_cache: bool
    ) -> list[Forecast]:
        """:meth:`predict_many` without its latency histogram."""
        horizon = horizon_steps if horizon_steps is not None else self._model.features.beta
        segment_ids = list(segment_ids)
        beta = self._model.features.beta
        if horizon < 1:
            raise ValueError("horizon_steps must be at least 1")
        self.telemetry.counter("requests").inc(len(segment_ids))
        results: list[Forecast | None] = [None] * len(segment_ids)
        queued: list[tuple[int, tuple, WindowView, PendingForecast]] = []
        if horizon != beta:
            reason = f"horizon {horizon} unsupported (model predicts beta={beta})"
            for position, segment_id in enumerate(segment_ids):
                results[position] = self._naive(segment_id, horizon, reason)
        else:
            # The store assembles each window once per update (one
            # vectorised pass over whatever is not memoised yet), so the
            # batch amortises feature assembly as well as the forward.
            windows = self.store.windows_many(segment_ids)
            fingerprint = self._fingerprint
            gated = self.gate is not None
            cache_get = self.cache.get
            filled_kmh = self._fill.lookup
            served_from_fill = 0
            for position, (segment_id, view) in enumerate(zip(segment_ids, windows)):
                if gated and self._gate_quarantined(segment_id):
                    results[position] = self._gate_naive(segment_id, horizon)
                    continue
                if isinstance(view, IncompleteWindowError):
                    results[position] = self._naive(segment_id, horizon, str(view))
                    continue
                key = (fingerprint, segment_id, horizon, view.fingerprint)
                if use_cache:
                    cached = cache_get(key)
                    if cached is not None:
                        results[position] = cached
                        continue
                    filled = filled_kmh(segment_id)
                    if filled is not None:
                        results[position] = self._complete(key, view, filled, horizon, True)
                        served_from_fill += 1
                        continue
                queued.append((position, key, view, self.batcher.submit(view)))
            if served_from_fill:
                self.telemetry.counter("fill_served").inc(served_from_fill)
        # A call that forwards anything (maybe in an automatic full flush
        # already) brings the update's fill; one that forwards nothing does not.
        self.batcher.flush(self._fill if use_cache and queued else None)
        for position, key, view, pending in queued:
            results[position] = self._complete(key, view, pending.value, horizon, use_cache)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Model lifecycle
    # ------------------------------------------------------------------
    def swap_checkpoint(self, directory: str | Path) -> APOTS:
        """Hot-swap the served model from a checkpoint, mid-stream.

        The incoming model must match the current feature geometry (the
        state store's windows are shaped by it) and must carry scalers.
        Cache entries are keyed by the serving model's weight
        fingerprint, so old-champion values can never satisfy a
        post-swap lookup even if they survived; the cache is cleared
        anyway — every old entry is dead weight.  The old model's
        compiled forward tape is dropped and the new model records its
        own.  Returns the new model.
        """
        model = load_model(directory)
        if model.features != self._model.features:
            raise ValueError(
                f"checkpoint feature geometry {model.features} does not match "
                f"the serving geometry {self._model.features}"
            )
        if model.scalers is None:
            raise ValueError(
                "checkpoint lacks scaler state (saved unfitted); online serving "
                "needs the fitted scalers to transform raw observations"
            )
        self._model = model
        self._fingerprint = model_fingerprint(model)
        self._forward.load(model.predictor)  # the old tape goes with the old model
        self.batcher.output = model.scalers.speed.inverse_transform
        self.store.scalers = model.scalers
        self._fill.reset()  # the old model's fill forecasts go too
        self.cache.clear()
        self._cached_end = [-1] * self.store.num_segments
        self.telemetry.counter("checkpoint_swaps").inc()
        return model

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One dict with everything an operator dashboard would scrape.

        Shard-aware fields (``segment_range``, ``gate_quarantined_count``)
        let a fleet aggregate many replica snapshots without reaching
        into service internals.
        """
        snap = self.telemetry.snapshot()
        snap["cache"] = self.cache.stats()
        snap["windows"] = self.store.stats()
        snap["forward"] = self._forward.snapshot()
        rows = int(snap["counters"].get("fill_rows", 0))
        served = int(snap["counters"].get("fill_served", 0))
        snap["fill"] = {"rows": rows, "served": served, "served_ratio": served / rows if rows else 0.0}
        snap["model"] = self._model.name
        snap["model_fingerprint"] = self._fingerprint
        snap["pending_requests"] = len(self.batcher)
        snap["segment_range"] = list(self.segment_range)
        snap["owned_segments"] = self.segment_range[1] - self.segment_range[0]
        if self.gate is not None:
            snap["gate"] = self.gate.snapshot()
            snap["gate_quarantined_count"] = len(snap["gate"]["quarantined_segments"])
        else:
            snap["gate_quarantined_count"] = 0
        return snap
