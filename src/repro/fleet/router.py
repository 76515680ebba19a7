"""Deterministic segment → shard routing for the forecast fleet.

:class:`ShardMap` partitions a corridor or road graph of
``num_segments`` into ``num_shards`` *contiguous* balanced ranges, and
each shard answers queries for the segments it owns.  A shard also
needs the observations of every segment its owned windows read, its
*halo*: :meth:`ShardMap.covering_shards` names, from the model's
``window_rows`` table, the shards that read each segment, and the fleet
routes every observation to them, so sharded serving stays
bitwise-equal to a single service.

The map is a pure function of ``(num_segments, num_shards)``: no
hashing, no registration order, no randomness.  Two processes that
agree on those two integers agree on every routing decision, which is
what lets the fleet parent and each replica derive the same ownership
independently.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from ..serving.errors import UnknownSegmentError

__all__ = ["ShardMap"]


@dataclass(frozen=True)
class ShardMap:
    """Balanced contiguous partition of ``range(num_segments)``.

    Shard ``i`` owns the half-open range
    ``[floor(i * n / k), floor((i + 1) * n / k))`` — sizes differ by at
    most one, and the layout for ``k`` shards refines deterministically
    as ``k`` grows.

    ``starts`` overrides the balanced cut positions with explicit ones
    (``starts[0] == 0``, strictly increasing, all below
    ``num_segments``) — how graph-aware partitions from
    ``repro.network.sharding`` reach the fleet as plain data.
    Contiguous ownership holds for any valid ``starts``.
    """

    num_segments: int
    num_shards: int
    starts: tuple[int, ...] | None = None
    _starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_segments < 1:
            raise ValueError("num_segments must be positive")
        if self.num_shards < 1:
            raise ValueError("num_shards must be positive")
        if self.num_shards > self.num_segments:
            raise ValueError(
                f"cannot spread {self.num_segments} segments over "
                f"{self.num_shards} shards (shards would own nothing)"
            )
        if self.starts is not None:
            starts = tuple(int(s) for s in self.starts)
            if len(starts) != self.num_shards:
                raise ValueError(
                    f"starts must have one entry per shard "
                    f"({self.num_shards}), got {len(starts)}"
                )
            if starts[0] != 0:
                raise ValueError("starts[0] must be 0")
            for a, b in zip(starts, starts[1:]):
                if b <= a:
                    raise ValueError("starts must be strictly increasing")
            if starts[-1] >= self.num_segments:
                raise ValueError("starts must stay below num_segments")
        else:
            starts = tuple(
                (i * self.num_segments) // self.num_shards for i in range(self.num_shards)
            )
        object.__setattr__(self, "_starts", starts)

    # ------------------------------------------------------------------
    def check_segment(self, segment_id: int) -> None:
        if not 0 <= segment_id < self.num_segments:
            raise UnknownSegmentError(
                f"segment {segment_id} outside corridor 0..{self.num_segments - 1}"
            )

    def shard_of(self, segment_id: int) -> int:
        """The shard that owns (answers queries for) ``segment_id``."""
        self.check_segment(segment_id)
        return bisect_right(self._starts, segment_id) - 1

    def owned_range(self, shard: int) -> tuple[int, int]:
        """Half-open ``[lo, hi)`` segment range owned by ``shard``."""
        self._check_shard(shard)
        lo = self._starts[shard]
        hi = (
            self._starts[shard + 1]
            if shard + 1 < self.num_shards
            else self.num_segments
        )
        return lo, hi

    def covering_shards(self, window_rows) -> list[tuple[int, ...]]:
        """Per segment, the shards whose owned windows read it, ascending.

        ``window_rows`` is the model's ``(num_segments, rows)`` table:
        row ``t`` lists the segments window ``t`` reads, itself included,
        and a negative entry reads nothing.  Shard ``r`` needs segment
        ``s``'s observations iff it owns some ``t`` whose row holds ``s``,
        so every segment's list holds its owner.
        """
        covering: list[set[int]] = [set() for _ in range(self.num_segments)]
        for t, rows in enumerate(window_rows.tolist()):
            shard = self.shard_of(t)
            for s in rows:
                if s >= 0:
                    covering[s].add(shard)
        return [tuple(sorted(shards)) for shards in covering]

    # ------------------------------------------------------------------
    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"shard {shard} outside fleet 0..{self.num_shards - 1}")
