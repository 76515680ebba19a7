"""The object living inside each fleet worker process.

A :class:`ShardReplica` hosts one full :class:`repro.serving.ForecastService`
built from a zoo checkpoint.  The service spans the *whole* corridor's
segment index space (so window geometry, edge-degradation messages and
cache keys are identical to a single-process deployment), but only the
shard's halo ever receives observations — the parent routes them via
:class:`repro.fleet.router.ShardMap`.

The replica is deliberately a thin batch adapter: ``ingest_batch`` /
``predict_batch`` exist so one pipe round trip carries one shard-batch
instead of one request, and ``snapshot`` rides the service's shard-aware
snapshot (segment range, gate quarantine count) so the parent can
aggregate telemetry without extra calls.

:class:`ReplicaSpec` is the picklable factory handed to
:class:`repro.parallel.WorkerGroup` — everything needed to rebuild the
replica inside a spawned child is plain data plus the checkpoint
directory path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from ..attacks.defense import GateConfig, PerturbationGate
from ..serving.service import Forecast, ForecastService
from ..serving.state import ObservationBatch
from .router import ShardMap

__all__ = ["ReplicaSpec", "ShardReplica"]


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything a child process needs to build its :class:`ShardReplica`.

    Picklable by construction (paths and plain numbers only); calling
    the spec builds the replica, so it doubles as the ``WorkerGroup``
    factory.
    """

    checkpoint_dir: str
    num_segments: int
    shard: int
    num_shards: int
    shard_starts: tuple[int, ...] | None = None
    gate_config: GateConfig | None = None
    max_batch_size: int = 64
    cache_capacity: int = 4096
    cache_ttl_seconds: float = 300.0
    interval_minutes: int = 5
    store_capacity: int | None = None

    def __call__(self) -> "ShardReplica":
        return ShardReplica(self)


class ShardReplica:
    """One shard's serving state: a full :class:`ForecastService` plus ids."""

    def __init__(self, spec: ReplicaSpec):
        self.spec = spec
        shard_map = ShardMap(spec.num_segments, spec.num_shards, starts=spec.shard_starts)
        self.owned = shard_map.owned_range(spec.shard)
        gate = PerturbationGate(spec.gate_config) if spec.gate_config is not None else None
        self.service = ForecastService.from_checkpoint(
            spec.checkpoint_dir,
            num_segments=spec.num_segments,
            gate=gate,
            segment_range=self.owned,
            max_batch_size=spec.max_batch_size,
            cache_capacity=spec.cache_capacity,
            cache_ttl_seconds=spec.cache_ttl_seconds,
            interval_minutes=spec.interval_minutes,
            store_capacity=spec.store_capacity,
        )

    # ------------------------------------------------------------------
    def ingest_batch(self, batch: ObservationBatch) -> int:
        """Absorb one routed halo batch; returns how many were ingested.

        The service's store validates it again, with the same array
        masks: one validation path, so a replica never commits unchecked
        readings.
        """
        return self.service.ingest_many(batch)

    def predict_batch(
        self,
        segment_ids: Sequence[int],
        horizon_steps: int | None,
        use_cache: bool,
    ) -> list[Forecast]:
        """Answer one shard-batch of owned-segment queries, in order."""
        return self.service.predict_many(
            list(segment_ids), horizon_steps=horizon_steps, use_cache=use_cache
        )

    def reset_segment(self, segment_id: int) -> None:
        self.service.store.reset_segment(segment_id)

    def swap_checkpoint(self, directory: str) -> str:
        """Hot-swap the replica's served model; returns the new fingerprint."""
        self.service.swap_checkpoint(directory)
        return self.service.fingerprint

    def snapshot(self) -> dict:
        snap = self.service.snapshot()
        snap["shard"] = self.spec.shard
        return snap

    def ping(self) -> int:
        return self.spec.shard

    # ------------------------------------------------------------------
    def die(self, exit_code: int = 21) -> None:
        """Fault-injection hook: hard-exit the replica process.

        Simulates a segfault/OOM kill (no exception, no reply) so tests
        and chaos drills can exercise the fleet's shard-loss path; see
        :meth:`repro.fleet.ForecastFleet.kill_replica`.
        """
        os._exit(exit_code)
