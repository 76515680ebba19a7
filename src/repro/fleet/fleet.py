"""The :class:`ForecastFleet` facade: sharded, load-shedding serving.

One fleet shards a corridor across ``shards`` persistent replica
processes (each a full :class:`repro.serving.ForecastService`, built
from the same zoo checkpoint inside a
:class:`repro.parallel.WorkerGroup` of one), routes ``ingest`` /
``predict`` by the deterministic :class:`repro.fleet.router.ShardMap`,
and scatter/gathers cross-shard ``predict_many`` calls with the group's
pipelined ``start_call`` / ``finish_call`` so every shard computes
concurrently.

Determinism contract (pinned by ``tests/fleet`` and
``tools/fleet_smoke.py``): with full-corridor per-tick ingestion,
``predict_many`` results are **bitwise identical across shard counts**
— ``shards=1`` runs process-free in the parent (the
:mod:`repro.parallel` convention), ``shards=N`` splits the same batch
across replicas whose padded micro-batches are already pinned
batch/single-equivalent, and halo ingestion keeps every owned window's
neighbour rows complete at shard boundaries.

Steady calls are answered in the parent.  The replica call that runs a
store update's fill returns the update's forecast table
(:class:`repro.serving.service.ForecastTable`); the parent keeps one per
shard and answers a cached call at horizon ``beta`` from it whenever it
holds every read of the shard-batch: a segment's first read
``from_cache=False``, later ones ``True``, exactly as the replica would.
It sends the reads it answered to the shard ahead of its next message,
and the replica replays them (:meth:`ShardReplica.replay`) so its cache,
fill and counters end up as if it had served them.  A table goes with
any message that can update its shard's store (ingest, reset, swap),
with the shard's loss, and once the replica's cache TTL has run from
the call that brought it.

Failure and overload policy — *shed to naive persistence, never drop
silently*:

* a replica that dies is detected on the next call that reads its
  shard (by the pipe round trip, or a liveness check when the parent
  answers from the shard's table), marked lost (``fleet_shard_lost``
  event), and every subsequent
  request for its segments is answered with degraded naive persistence
  from the parent's own last-speed bookkeeping while the other shards
  keep serving at full quality;
* open-loop requests (:meth:`submit` / :meth:`drain`) pass through the
  bounded per-shard :class:`repro.fleet.admission.AdmissionController`;
  a request that finds its queue full is shed the same way, counted,
  and observable as a ``fleet_shed`` event.  Closed-loop
  :meth:`predict_many` bypasses admission — the caller *is* the
  back-pressure — which is also what keeps it shard-count invariant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..attacks.defense import GateConfig, PerturbationGate
from ..core.zoo import load_model, model_fingerprint
from ..obs.telemetry import Telemetry
from ..parallel.group import WorkerGroup, WorkerGroupError
from ..serving.errors import IncompleteWindowError, ServingError
from ..serving.service import Forecast, ForecastService, ForecastTable
from ..serving.state import Observation, ObservationBatch, check_batch
from .admission import AdmissionController
from .errors import FleetClosedError, FleetError
from .replica import ReplicaSpec
from .router import ShardMap

__all__ = ["FleetRequest", "ForecastFleet"]


@dataclass
class FleetRequest:
    """One open-loop request ticket (see :meth:`ForecastFleet.submit`).

    ``arrival_s`` and ``completed_s`` are in the fleet clock's domain;
    a shed ticket resolves immediately with a degraded forecast and a
    ``shed_reason``.
    """

    segment_id: int
    horizon_steps: int
    use_cache: bool
    arrival_s: float
    shard: int
    forecast: Forecast | None = None
    completed_s: float | None = None
    shed_reason: str | None = None

    @property
    def done(self) -> bool:
        return self.forecast is not None

    @property
    def shed(self) -> bool:
        return self.shed_reason is not None


#: Replica methods that can update the shard's store; each drops the
#: shard's forecast table in the parent.
_STORE_UPDATES = frozenset({"ingest_batch", "reset_segment", "swap_checkpoint"})


class _ShardTable:
    """One shard's :class:`ForecastTable` in the parent, read a row at a time."""

    __slots__ = ("index", "kmh", "targets", "cached", "fingerprint", "expires")

    def __init__(self, table: ForecastTable, beta: int, expires: float):
        self.index = dict(zip(table.segment_ids.tolist(), range(len(table.segment_ids))))
        self.kmh = table.speeds_kmh.tolist()
        self.targets = (table.end_steps + beta).tolist()
        self.cached = table.cached.tolist()
        self.fingerprint = table.model_fingerprint
        self.expires = expires  # the replica's cache TTL, from before the call that brought it

    def holds(self, segments: list[int]) -> bool:
        index = self.index
        return all(segment in index for segment in segments)

    def read(self, segments: list[int], horizon: int) -> list[Forecast]:
        """The forecasts the replica would return for these cached reads, in order."""
        forecasts = []
        for segment in segments:
            row = self.index[segment]
            forecasts.append(
                Forecast(
                    segment_id=segment,
                    target_step=self.targets[row],
                    horizon_steps=horizon,
                    speed_kmh=self.kmh[row],
                    source="model",
                    from_cache=self.cached[row],
                    model_fingerprint=self.fingerprint,
                )
            )
            self.cached[row] = True
        return forecasts

    def mark_cached(self, segments: list[int]) -> None:
        """The replica served these cached reads itself: each is in its cache now."""
        for segment in segments:
            row = self.index.get(segment)
            if row is not None:
                self.cached[row] = True


class ForecastFleet:
    """Sharded forecast serving for one corridor and one checkpoint.

    Parameters
    ----------
    checkpoint_dir:
        A :mod:`repro.core.zoo` checkpoint directory; every
        replica loads the same weights and scalers from it.
    num_segments:
        Corridor length the observation stream indexes into.
    shards:
        Replica count.  ``shards=1`` hosts the service in-process (no
        worker processes at all); ``shards>=2`` spawns one single-worker
        :class:`WorkerGroup` per shard so one replica's death never
        takes down another.
    shard_starts:
        Optional explicit cut positions for the contiguous partition
        (``starts[0] == 0``, strictly increasing) — how graph-aware
        partitions (``repro.network.sharding.partition_starts``) reach
        the fleet as plain data.  ``None`` keeps the balanced layout.
    gate_config:
        Optional :class:`repro.attacks.defense.GateConfig`; each replica
        builds its own :class:`PerturbationGate` over its halo stream.
    max_queue_per_shard:
        Admission bound for the open-loop :meth:`submit` path.
    max_batch_size, cache_capacity, cache_ttl_seconds, interval_minutes,
    store_capacity:
        Forwarded to every replica's :class:`ForecastService`.
    recorder:
        Optional :class:`repro.obs.RunRecorder`; the fleet emits
        schema-validated ``fleet_*`` events (shard loss, sheds, drains).
    clock:
        Injectable monotonic clock shared by admission latency
        accounting and the load generator.
    """

    def __init__(
        self,
        checkpoint_dir: str | Path,
        num_segments: int,
        *,
        shards: int = 1,
        shard_starts: tuple[int, ...] | None = None,
        gate_config: GateConfig | None = None,
        max_queue_per_shard: int = 256,
        max_batch_size: int = 64,
        cache_capacity: int = 4096,
        cache_ttl_seconds: float = 300.0,
        interval_minutes: int = 5,
        store_capacity: int | None = None,
        recorder=None,
        context: str | Any | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        model = load_model(checkpoint_dir)
        self.features = model.features
        self.num_segments = num_segments
        self.shard_map = ShardMap(num_segments, shards, starts=shard_starts)
        # Which shards read each segment's observations, from the
        # checkpoint's window_rows table, as one (shards, segments) mask.
        # One shard serves in-process: nothing to route.
        self._routes: np.ndarray | None = None
        if shards > 1:
            self._routes = np.zeros((shards, num_segments), dtype=bool)
            covering = self.shard_map.covering_shards(self.features.window_rows(num_segments))
            for segment, covering_shards in enumerate(covering):
                self._routes[list(covering_shards), segment] = True
        self.admission = AdmissionController(shards, max_queue_per_shard)
        self.telemetry = Telemetry()
        self._recorder = recorder
        self._clock = clock
        self._closed = False
        self._lost: dict[int, str] = {}
        self._beta = self.features.beta
        self._table_ttl = cache_ttl_seconds
        # Per shard: the forecast table answering its cached reads here,
        # the reads answered from it that the replica has not been sent,
        # and how many replay calls it was sent that are not answered yet.
        self._tables: dict[int, _ShardTable] = {}
        self._replays: dict[int, list[int]] = {}
        self._replaying: dict[int, int] = {}
        # Parent-side naive-persistence bookkeeping: shed answers must
        # not depend on any replica being alive.
        self._last_speed = np.full(num_segments, np.nan, dtype=np.float64)
        self._latest_step = np.full(num_segments, -1, dtype=np.int64)

        service_kwargs = dict(
            max_batch_size=max_batch_size,
            cache_capacity=cache_capacity,
            cache_ttl_seconds=cache_ttl_seconds,
            interval_minutes=interval_minutes,
            store_capacity=store_capacity,
        )
        if shards == 1:
            gate = PerturbationGate(gate_config) if gate_config is not None else None
            self._local: ForecastService | None = ForecastService(
                model,
                num_segments,
                gate=gate,
                segment_range=(0, num_segments),
                **service_kwargs,
            )
            self._groups: list[WorkerGroup] = []
        else:
            self._local = None
            self._groups = []
            try:
                for shard in range(shards):
                    spec = ReplicaSpec(
                        checkpoint_dir=str(checkpoint_dir),
                        num_segments=num_segments,
                        shard=shard,
                        num_shards=shards,
                        shard_starts=self.shard_map.starts,
                        gate_config=gate_config,
                        **service_kwargs,  # type: ignore[arg-type]
                    )
                    self._groups.append(WorkerGroup(spec, workers=1, context=context))
            except BaseException:
                for group in self._groups:
                    group.close()
                raise
            blas = self._scatter_call({shard: ("blas", ()) for shard in range(shards)})
            unpinned = {state["library"] for state in blas.values() if state and state["threads"] is None}
            for library in sorted(unpinned):
                self._emit("blas_threads_unpinned", library=library)

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.shard_map.num_shards

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    @property
    def lost_shards(self) -> list[int]:
        return sorted(self._lost)

    def _check_open(self) -> None:
        if self._closed:
            raise FleetClosedError("fleet is closed")

    def _emit(self, kind: str, **fields) -> None:
        if self._recorder is not None:
            self._recorder.event(kind, **fields)

    # ------------------------------------------------------------------
    # Scatter plumbing
    # ------------------------------------------------------------------
    def _mark_lost(self, shard: int, method: str, error: WorkerGroupError) -> None:
        if shard in self._lost:
            return
        reason = str(error).splitlines()[0]
        self._lost[shard] = reason
        self._tables.pop(shard, None)
        self._replays.pop(shard, None)
        self._replaying.pop(shard, None)
        self.telemetry.counter("shards_lost").inc()
        self._emit("fleet_shard_lost", shard=shard, method=method, reason=reason)

    def _send_replays(self, shards: Iterable[int]) -> None:
        """Send each shard the reads answered from its table, as a pipelined ``replay`` call.

        Its reply is collected ahead of the shard's next reply (see
        :meth:`_scatter_call`), so the replica takes the reads before the
        next message whenever they were sent.
        """
        for shard in shards:
            replay = self._replays.pop(shard, None)
            if not replay or shard in self._lost:
                continue
            try:
                self._groups[shard].start_call(0, "replay", (replay,))
            except WorkerGroupError as error:
                self._mark_lost(shard, "replay", error)
            else:
                self._replaying[shard] = self._replaying.get(shard, 0) + 1

    def _scatter_call(self, calls: dict[int, tuple[str, tuple]]) -> dict[int, Any]:
        """Start every shard's call before gathering any reply.

        A shard's reads answered from its table go first (see
        :meth:`_send_replays`).  Returns shard → result, with ``None``
        for shards that were (or became) lost; the caller sheds those.
        """
        self._send_replays(calls)
        results: dict[int, Any] = {}
        started: list[int] = []
        for shard, (method, args) in calls.items():
            if shard in self._lost:
                results[shard] = None
                continue
            if method in _STORE_UPDATES:
                self._tables.pop(shard, None)
            try:
                self._groups[shard].start_call(0, method, args)
            except WorkerGroupError as error:
                self._mark_lost(shard, method, error)
                results[shard] = None
            else:
                started.append(shard)
        for shard in started:
            method = calls[shard][0]
            group = self._groups[shard]
            try:
                for _ in range(self._replaying.pop(shard, 0)):
                    group.finish_call(0)
                results[shard] = group.finish_call(0)
            except WorkerGroupError as error:
                self._mark_lost(shard, method, error)
                results[shard] = None
        return results

    def _alive(self, shard: int) -> bool:
        """Whether the shard's replica process lives; marks it lost if not."""
        group = self._groups[shard]
        if group.alive()[0]:
            return True
        self._mark_lost(shard, "predict_batch", WorkerGroupError("replica process is not alive"))
        group.close()
        return False

    def _answer(
        self, batches: dict[int, list[int]], horizon: int, use_cache: bool
    ) -> dict[int, list[Forecast] | None]:
        """Each shard's forecasts for its batch of owned segments, ``None`` if the shard is lost.

        A cached batch at ``beta`` whose every read is in the shard's
        table is answered here, after a liveness check; the rest go to
        the replicas in one scatter/gather.  The one answer path of
        :meth:`predict_many` and :meth:`drain`.
        """
        answers: dict[int, list[Forecast] | None] = {}
        calls: dict[int, tuple[str, tuple]] = {}
        tabled = use_cache and horizon == self._beta
        for shard, segments in batches.items():
            table = self._tables.get(shard) if tabled else None
            if table is not None and time.monotonic() >= table.expires:
                del self._tables[shard]
                table = None
            if table is not None and table.holds(segments):
                if self._alive(shard):
                    answers[shard] = table.read(segments, horizon)
                    self._replays.setdefault(shard, []).extend(segments)
                    self.telemetry.counter("answered_in_parent").inc(len(segments))
                else:
                    answers[shard] = None
                continue
            calls[shard] = ("predict_batch", (segments, horizon, use_cache))
        if not calls:
            return answers
        sent = time.monotonic()
        for shard, reply in self._scatter_call(calls).items():
            if reply is None:
                answers[shard] = None
                continue
            answers[shard], fresh = reply
            if fresh is not None:
                self._tables[shard] = _ShardTable(fresh, self._beta, sent + self._table_ttl)
            elif tabled and shard in self._tables:
                self._tables[shard].mark_cached(calls[shard][1][0])
        return answers

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, observation: Observation) -> None:
        self.ingest_many([observation])

    def ingest_many(self, observations: ObservationBatch | Iterable[Observation]) -> int:
        """Route one batch of observations to every covering shard's halo.

        Takes an :class:`ObservationBatch` or observations, converted once
        here.  The batch is validated against the parent's bookkeeping
        with the store's whole-batch rule before any state moves, so
        parent and replicas stay consistent on error; a rejected batch
        emits ``fleet_ingest_rejected`` and bumps ``ingest_rejected``
        before the error propagates.  Each covering shard is sent its
        rows as a batch of columns.
        """
        self._check_open()
        # The replicas take their replayed reads while the batch is checked here.
        self._send_replays(list(self._replays))
        batch = ObservationBatch.of(observations)
        if not len(batch):
            return 0
        try:
            streams = check_batch(batch, self._latest_step)
        except ServingError as error:
            self.telemetry.counter("ingest_rejected").inc()
            self._emit("fleet_ingest_rejected", reason=str(error), count=len(batch))
            raise
        # Parent bookkeeping first: shed answers must stay fresh even if
        # a replica dies inside this very scatter.
        self._last_speed[streams.segments] = batch.speeds[streams.last_rows]
        self._latest_step[streams.segments] = streams.last
        self.telemetry.counter("observations").inc(len(batch))
        if self._local is not None:
            self._local.ingest_many(batch)
        else:
            covered = self._routes[:, batch.segment_ids]
            self._scatter_call(
                {
                    shard: ("ingest_batch", (batch.take(rows),))
                    for shard, rows in enumerate(covered)
                    if rows.any()
                }
            )
        return len(batch)

    def reset_segment(self, segment_id: int) -> None:
        """Drop a segment's buffered stream everywhere (gap recovery)."""
        self._check_open()
        self.shard_map.check_segment(segment_id)
        self._latest_step[segment_id] = -1
        self._last_speed[segment_id] = np.nan
        if self._local is not None:
            self._local.store.reset_segment(segment_id)
        else:
            self._scatter_call(
                {
                    shard: ("reset_segment", (segment_id,))
                    for shard in np.flatnonzero(self._routes[:, segment_id]).tolist()
                }
            )

    # ------------------------------------------------------------------
    # Prediction: closed-loop scatter/gather
    # ------------------------------------------------------------------
    def _resolve_horizon(self, horizon_steps: int | None) -> int:
        horizon = (
            horizon_steps if horizon_steps is not None else self.features.beta
        )
        if horizon < 1:
            raise ValueError("horizon_steps must be at least 1")
        return horizon

    def _shed_forecast(self, segment_id: int, horizon: int, reason: str) -> Forecast:
        latest = int(self._latest_step[segment_id])
        return Forecast(
            segment_id=segment_id,
            target_step=(latest if latest >= 0 else 0) + horizon,
            horizon_steps=horizon,
            speed_kmh=float(self._last_speed[segment_id]),
            source="naive",
            degraded=True,
            degraded_reason=f"load shed: {reason}",
        )

    def _check_served_before(self, segment_id: int) -> None:
        self.shard_map.check_segment(segment_id)
        if int(self._latest_step[segment_id]) < 0:
            raise IncompleteWindowError(
                f"segment {segment_id} has no observations yet"
            )

    def predict_many(
        self,
        segment_ids: Sequence[int],
        horizon_steps: int | None = None,
        use_cache: bool = True,
    ) -> list[Forecast]:
        """Forecast many segments with one scatter/gather across shards.

        Results come back in request order.  Segments owned by a lost
        shard are shed to naive persistence (never dropped); everything
        else is answered by its owner replica exactly as a
        single-process :class:`ForecastService` would answer it.
        """
        self._check_open()
        started = time.perf_counter()
        horizon = self._resolve_horizon(horizon_steps)
        segment_ids = [int(s) for s in segment_ids]
        self.telemetry.counter("offered_requests").inc(len(segment_ids))
        for segment_id in segment_ids:
            self._check_served_before(segment_id)

        results: list[Forecast | None] = [None] * len(segment_ids)
        shed_counts: dict[int, int] = {}
        if self._local is not None:
            forecasts = self._local.predict_many(
                segment_ids, horizon_steps=horizon, use_cache=use_cache
            )
            results = list(forecasts)
        else:
            positions: dict[int, list[int]] = {}
            for position, segment_id in enumerate(segment_ids):
                positions.setdefault(self.shard_map.shard_of(segment_id), []).append(
                    position
                )
            gathered = self._answer(
                {
                    shard: [segment_ids[p] for p in shard_positions]
                    for shard, shard_positions in positions.items()
                },
                horizon,
                use_cache,
            )
            for shard, shard_positions in positions.items():
                forecasts = gathered[shard]
                if forecasts is None:
                    for position in shard_positions:
                        results[position] = self._shed_forecast(
                            segment_ids[position], horizon, f"shard {shard} lost"
                        )
                    shed_counts[shard] = len(shard_positions)
                else:
                    for position, forecast in zip(shard_positions, forecasts):
                        results[position] = forecast
        shed_total = sum(shed_counts.values())
        self.telemetry.counter("served_requests").inc(len(segment_ids) - shed_total)
        if shed_total:
            self.telemetry.counter("shed_requests").inc(shed_total)
            self.telemetry.counter("shed_shard_lost").inc(shed_total)
            for shard, count in shed_counts.items():
                self._emit(
                    "fleet_shed",
                    shard=shard,
                    count=count,
                    queue_depth=self.admission.depth(shard),
                    reason=f"shard {shard} lost",
                )
        self.telemetry.histogram("predict_latency_ms").observe(
            (time.perf_counter() - started) * 1e3
        )
        return results  # type: ignore[return-value]

    def predict(
        self, segment_id: int, horizon_steps: int | None = None, use_cache: bool = True
    ) -> Forecast:
        return self.predict_many([segment_id], horizon_steps, use_cache)[0]

    # ------------------------------------------------------------------
    # Prediction: open-loop submit/drain with admission control
    # ------------------------------------------------------------------
    def submit(
        self,
        segment_ids: Sequence[int],
        horizon_steps: int | None = None,
        use_cache: bool = True,
        arrival_s: float | None = None,
    ) -> list[FleetRequest]:
        """Enqueue open-loop requests; sheds immediately on overflow.

        Returns one :class:`FleetRequest` per segment in request order.
        Tickets for lost shards or full queues resolve immediately with
        a degraded naive forecast; the rest resolve on a later
        :meth:`drain`.
        """
        self._check_open()
        horizon = self._resolve_horizon(horizon_steps)
        arrival = arrival_s if arrival_s is not None else self._clock()
        tickets: list[FleetRequest] = []
        shed_full: dict[int, int] = {}
        shed_lost: dict[int, int] = {}
        for segment_id in segment_ids:
            segment_id = int(segment_id)
            self._check_served_before(segment_id)
            shard = self.shard_map.shard_of(segment_id)
            ticket = FleetRequest(segment_id, horizon, use_cache, arrival, shard)
            if shard in self._lost:
                self._resolve_shed(ticket, f"shard {shard} lost")
                shed_lost[shard] = shed_lost.get(shard, 0) + 1
            elif not self.admission.try_admit(shard, ticket):
                self._resolve_shed(
                    ticket,
                    f"shard {shard} queue full "
                    f"({self.admission.max_queue_per_shard} pending)",
                )
                shed_full[shard] = shed_full.get(shard, 0) + 1
            tickets.append(ticket)
        self.telemetry.counter("offered_requests").inc(len(tickets))
        for reason_counts, counter, reason in (
            (shed_full, "shed_queue_full", "queue full"),
            (shed_lost, "shed_shard_lost", "shard lost"),
        ):
            for shard, count in reason_counts.items():
                self.telemetry.counter(counter).inc(count)
                self._emit(
                    "fleet_shed",
                    shard=shard,
                    count=count,
                    queue_depth=self.admission.depth(shard),
                    reason=reason,
                )
        total_shed = sum(shed_full.values()) + sum(shed_lost.values())
        if total_shed:
            self.telemetry.counter("shed_requests").inc(total_shed)
        return tickets

    def _resolve_shed(self, ticket: FleetRequest, reason: str) -> None:
        ticket.forecast = self._shed_forecast(
            ticket.segment_id, ticket.horizon_steps, reason
        )
        ticket.shed_reason = reason
        ticket.completed_s = self._clock()

    def drain(self) -> list[FleetRequest]:
        """Process everything admitted since the last drain.

        One scatter/gather round per distinct ``(horizon, use_cache)``
        combination; tickets of a shard that dies mid-drain are shed.
        Returns the tickets resolved by this call.
        """
        self._check_open()
        started = time.perf_counter()
        per_shard: dict[int, list[FleetRequest]] = {}
        max_depth = 0
        for shard in range(self.num_shards):
            depth = self.admission.depth(shard)
            if depth == 0:
                continue
            max_depth = max(max_depth, depth)
            self.telemetry.histogram("queue_depth_at_drain").observe(depth)
            per_shard[shard] = self.admission.drain_shard(shard)
        if not per_shard:
            return []

        resolved: list[FleetRequest] = []
        served = 0
        shed = 0
        rounds: dict[tuple[int, bool], dict[int, list[FleetRequest]]] = {}
        for shard, tickets in per_shard.items():
            for ticket in tickets:
                key = (ticket.horizon_steps, ticket.use_cache)
                rounds.setdefault(key, {}).setdefault(shard, []).append(ticket)
        for (horizon, use_cache), batches in rounds.items():
            if self._local is not None:
                tickets = batches.get(0, [])
                forecasts = self._local.predict_many(
                    [t.segment_id for t in tickets],
                    horizon_steps=horizon,
                    use_cache=use_cache,
                )
                gathered: dict[int, Any] = {0: forecasts}
            else:
                gathered = self._answer(
                    {shard: [t.segment_id for t in tickets] for shard, tickets in batches.items()},
                    horizon,
                    use_cache,
                )
            completion = self._clock()
            for shard, tickets in batches.items():
                forecasts = gathered[shard]
                if forecasts is None:
                    for ticket in tickets:
                        self._resolve_shed(ticket, f"shard {shard} lost")
                    shed += len(tickets)
                    self.telemetry.counter("shed_shard_lost").inc(len(tickets))
                    self.telemetry.counter("shed_requests").inc(len(tickets))
                    self._emit(
                        "fleet_shed",
                        shard=shard,
                        count=len(tickets),
                        queue_depth=0,
                        reason=f"shard {shard} lost",
                    )
                else:
                    for ticket, forecast in zip(tickets, forecasts):
                        ticket.forecast = forecast
                        ticket.completed_s = completion
                        self.telemetry.histogram("request_latency_ms").observe(
                            (completion - ticket.arrival_s) * 1e3
                        )
                    served += len(tickets)
                resolved.extend(tickets)
        self.telemetry.counter("served_requests").inc(served)
        duration_s = time.perf_counter() - started
        self.telemetry.histogram("drain_duration_ms").observe(duration_s * 1e3)
        self._emit(
            "fleet_drain",
            served=served,
            shed=shed,
            max_queue_depth=max_depth,
            duration_s=duration_s,
        )
        return resolved

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def swap_checkpoint(self, directory: str | Path) -> str:
        """Hot-swap every live replica to a new checkpoint; returns its fingerprint.

        The checkpoint is validated parent-side first (feature geometry
        against the fleet's, scaler presence), then broadcast to every
        non-lost shard in one scatter/gather round.  The broadcast runs
        between batches on the fleet's single-threaded control loop, so
        no in-flight ``predict_many`` batch ever mixes champions: a batch
        is answered entirely by whichever model each replica holds when
        its call starts, and after this method returns every live shard
        holds the new weights.  A replica that dies mid-swap is marked
        lost exactly like any other scatter casualty (its segments shed
        to naive persistence).  Emits one ``fleet_swap`` event.  A
        checkpoint the parent-side checks refuse (``load_model``'s
        fingerprint check, geometry, scalers) reaches no replica: the
        ``ValueError`` re-raises after a ``fleet_swap_refused`` event and
        a ``swap_refused`` count.
        """
        self._check_open()
        try:
            model = load_model(directory)
            if model.features != self.features:
                raise ValueError(
                    f"checkpoint feature geometry {model.features} does not match "
                    f"the fleet geometry {self.features}"
                )
            if model.scalers is None:
                raise ValueError(
                    "checkpoint lacks scaler state (saved unfitted); fleet serving "
                    "needs the fitted scalers to transform raw observations"
                )
        except ValueError as error:
            # Refused before any replica saw it: every shard keeps its model and table.
            self.telemetry.counter("swap_refused").inc()
            self._emit("fleet_swap_refused", reason=str(error))
            raise
        fingerprint = model_fingerprint(model)
        if self._local is not None:
            self._local.swap_checkpoint(directory)
            swapped = 1
        else:
            gathered = self._scatter_call(
                {
                    shard: ("swap_checkpoint", (str(directory),))
                    for shard in range(self.num_shards)
                    if shard not in self._lost
                }
            )
            swapped = sum(1 for result in gathered.values() if result is not None)
        self.telemetry.counter("checkpoint_swaps").inc()
        self._emit("fleet_swap", shards_swapped=swapped, fingerprint=fingerprint)
        return fingerprint

    def kill_replica(self, shard: int, exit_code: int = 21) -> None:
        """Fault-injection hook: hard-kill one replica process.

        The loss is *not* marked here — discovery happens on the next
        call that touches the shard, exactly as a real crash would be
        discovered.  Raises :class:`FleetError` on a process-free
        (``shards=1``) fleet.
        """
        self._check_open()
        if not self._groups:
            raise FleetError(
                "shards=1 runs process-free in the parent; there is no replica "
                "process to kill"
            )
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} outside fleet 0..{self.num_shards - 1}")
        group = self._groups[shard]
        try:
            group.start_call(0, "die", (exit_code,))
        except WorkerGroupError:
            return  # already dead; discovery still happens on next use
        deadline = time.monotonic() + 5.0
        while any(group.alive()) and time.monotonic() < deadline:
            time.sleep(0.01)

    def snapshot(self) -> dict:
        """Fleet-wide operator view: parent telemetry + replica snapshots."""
        self._check_open()
        snap: dict[str, Any] = {
            "shards": self.num_shards,
            "segments": self.num_segments,
            "lost_shards": self.lost_shards,
            "telemetry": self.telemetry.snapshot(),
            "admission": self.admission.snapshot(),
        }
        if self._local is not None:
            replicas: list[dict | None] = [self._local.snapshot()]
        else:
            gathered = self._scatter_call(
                {
                    shard: ("snapshot", ())
                    for shard in range(self.num_shards)
                    if shard not in self._lost
                }
            )
            replicas = [gathered.get(shard) for shard in range(self.num_shards)]
        snap["replicas"] = replicas
        snap["gate_quarantined_total"] = sum(
            r.get("gate_quarantined_count", 0) for r in replicas if r is not None
        )
        return snap

    def close(self) -> None:
        """Shut every replica down; idempotent."""
        if self._closed:
            return
        self._closed = True
        for group in self._groups:
            group.close()

    def __enter__(self) -> "ForecastFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
