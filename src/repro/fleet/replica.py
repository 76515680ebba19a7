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
aggregate telemetry without extra calls.  The ``predict_batch`` that runs
a store update's fill also returns the update's
:class:`~repro.serving.service.ForecastTable`, from which the parent
answers later cached reads itself; ``replay`` takes those reads back, in
read order, ahead of the parent's next message, so the replica's cache,
fill and counters end up as if it had served them.

At start a replica pins numpy's bundled OpenBLAS to one thread (the
parent and every replica share the host's cores; forked replicas would
otherwise inherit the parent's BLAS threading and spin against each
other).  ``blas`` reports the outcome; the parent process stays its
caller's to configure.

:class:`ReplicaSpec` is the picklable factory handed to
:class:`repro.parallel.WorkerGroup` — everything needed to rebuild the
replica inside a spawned child is plain data plus the checkpoint
directory path.
"""

from __future__ import annotations

import ctypes
import glob
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..attacks.defense import GateConfig, PerturbationGate
from ..serving.service import Forecast, ForecastService, ForecastTable
from ..serving.state import ObservationBatch
from .router import ShardMap

__all__ = ["ReplicaSpec", "ShardReplica"]

#: The thread setter numpy's bundled (scipy-openblas, 64-bit int) OpenBLAS exports.
_BLAS_SET_THREADS = "scipy_openblas_set_num_threads64_"
_BLAS_GET_THREADS = "scipy_openblas_get_num_threads64_"


def _pin_blas_threads() -> tuple[int | None, str]:
    """Pin numpy's bundled OpenBLAS to one thread; returns ``(threads, library)``.

    ``threads`` is the count read back after pinning, or ``None`` when
    no bundled library exporting the setter was found (``library`` then
    names what was looked for).  Opening the library numpy already
    loaded hands back the same handle, so the setting reaches numpy.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            library = ctypes.CDLL(path)
            setter = getattr(library, _BLAS_SET_THREADS)
            getter = getattr(library, _BLAS_GET_THREADS)
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter(1)
        return getter(), os.path.basename(path)
    return None, f"{_BLAS_SET_THREADS} in {libs}"


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
        self.blas_threads, self.blas_library = _pin_blas_threads()
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
        if self.blas_threads is None:
            self.service.telemetry.counter("blas_threads_unpinned").inc()
        self._fills = self.service.telemetry.counter("fills")

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
    ) -> tuple[list[Forecast], ForecastTable | None]:
        """Answer one shard-batch of owned-segment queries, in order.

        Returns the forecasts and, when this call ran the store update's
        fill, the update's forecast table (see
        :meth:`ForecastService.forecast_table`), else ``None``.
        """
        fills = self._fills.value
        forecasts = self.service.predict_many(
            list(segment_ids), horizon_steps=horizon_steps, use_cache=use_cache
        )
        if self._fills.value == fills:
            return forecasts, None
        return forecasts, self.service.forecast_table(forecasts)

    def replay(self, segment_ids: Sequence[int]) -> None:
        """Take the cached reads at ``beta`` the parent answered from this replica's table."""
        self.service.replay(segment_ids)

    def blas(self) -> dict:
        """The BLAS pinning outcome: ``threads`` (``None`` if unpinned) and ``library``."""
        return {"threads": self.blas_threads, "library": self.blas_library}

    def reset_segment(self, segment_id: int) -> None:
        self.service.store.reset_segment(segment_id)

    def swap_checkpoint(self, directory: str) -> str:
        """Hot-swap the replica's served model; returns the new fingerprint."""
        self.service.swap_checkpoint(directory)
        return self.service.fingerprint

    def snapshot(self) -> dict:
        snap = self.service.snapshot()
        snap["shard"] = self.spec.shard
        snap["blas_threads"] = self.blas_threads
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
