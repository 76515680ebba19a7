"""Graph-neighbourhood window geometry: the city-scale generalisation
of the corridor's ``±m`` rows.

The corridor's adjacent-speed matrix (Eq 5/6) reads rows ``target - m ..
target + m`` — index arithmetic that doubles as adjacency because a
corridor is a path.  On a :class:`repro.network.graph.RoadGraph` the
analogue of the ``±m`` window is the ``k_hop_neighbourhood``: the sorted
set of segments within ``k`` undirected hops.  This module fixes a
**canonical, padded layout** of those neighbourhoods, and
:class:`GraphFeatureConfig` hands it to the one window builder
(:func:`repro.data.features.build_features`) as its ``window_rows``
table.  The layout is chosen so that:

* every target's image has the same shape (predictors keep their fixed
  ``flat_dim``), with absent rows zero-filled after scaling and marked
  in the layout's row mask;
* the target road always sits at the same row (``target_row``), so the
  persistence baseline (``images[:, m, -1]``), the discriminator
  condition (``np.delete(images, m, axis=1)``) and the serving gate all
  work unchanged through the duck-typed ``m`` property;
* on a :func:`repro.network.graph.from_corridor` path graph with the
  target ``k`` hops from both ends, the layout row of the target is
  exactly the corridor's ``±k`` row — the windows reduce **bitwise** to
  the corridor's (pinned by tests).

Layout rule (per target ``s`` with sorted k-hop set ``N(s)``): split
``N(s)`` into ``lower = [t < s]`` and ``upper = [t > s]``.  With
``p = max_s |lower(s)|`` and ``q = max_s |upper(s)|`` over all segments,
the image has ``p + 1 + q`` speed rows; ``lower`` is right-aligned
ending at row ``p - 1``, the target occupies row ``p`` and ``upper`` is
left-aligned from row ``p + 1``.  Unused rows carry ``PADDING`` (-1).
Because BFS ids are contiguous within a neighbourhood block, a corridor
interior neighbourhood has exactly ``k`` lower and ``k`` upper ids and
the rule reproduces ``[s-k .. s+k]`` in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .dataset import TrafficDataset
from .features import PADDING, FactorMask

__all__ = ["GraphWindowLayout", "GraphFeatureConfig"]


@dataclass(frozen=True)
class GraphWindowLayout:
    """Canonical padded neighbour layout of every segment's input image.

    ``rows[s]`` lists, for target segment ``s``, the segment id feeding
    each speed row of its image, with ``PADDING`` (-1) marking padding
    rows.  The target id ``s`` always sits at index ``target_row``.
    """

    num_segments: int
    k: int
    target_row: int
    num_rows: int
    rows: tuple[tuple[int, ...], ...]
    _rows_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_segments < 1:
            raise ValueError("layout needs at least one segment")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if not 0 <= self.target_row < self.num_rows:
            raise ValueError("target_row outside 0..num_rows-1")
        if len(self.rows) != self.num_segments:
            raise ValueError("rows must have one entry per segment")
        for s, row in enumerate(self.rows):
            if len(row) != self.num_rows:
                raise ValueError(f"rows[{s}] has {len(row)} entries, expected {self.num_rows}")
            if row[self.target_row] != s:
                raise ValueError(f"rows[{s}] does not place the target at target_row")
            for t in row:
                if t != PADDING and not 0 <= t < self.num_segments:
                    raise ValueError(f"rows[{s}] references unknown segment {t}")
        rows_array = np.array(self.rows, dtype=np.int64)
        object.__setattr__(self, "_rows_array", rows_array)

    @property
    def rows_array(self) -> np.ndarray:
        """(num_segments, num_rows) int64 row->segment map, ``PADDING`` = padding."""
        return self._rows_array

    def valid_rows(self, segment_id: int) -> tuple[int, ...]:
        """The real (non-padding) segment ids in ``segment_id``'s image."""
        return tuple(t for t in self.rows[segment_id] if t >= 0)

    @staticmethod
    def from_neighbourhoods(
        neighbourhoods: Mapping[int, Sequence[int]] | Sequence[Sequence[int]],
        num_segments: int,
        k: int,
    ) -> "GraphWindowLayout":
        """Build the canonical layout from per-segment k-hop sets.

        ``neighbourhoods[s]`` must be the sorted id list within ``k``
        hops of ``s`` **including ``s`` itself** (the contract of
        ``RoadGraph.k_hop_neighbourhood``).
        """
        lowers: list[list[int]] = []
        uppers: list[list[int]] = []
        for s in range(num_segments):
            hood = list(neighbourhoods[s])
            if s not in hood:
                raise ValueError(f"neighbourhood of {s} must include itself")
            if hood != sorted(set(hood)):
                raise ValueError(f"neighbourhood of {s} must be sorted and unique")
            lowers.append([t for t in hood if t < s])
            uppers.append([t for t in hood if t > s])
        p = max(len(lo) for lo in lowers)
        q = max(len(up) for up in uppers)
        num_rows = p + 1 + q
        rows = []
        for s in range(num_segments):
            row = [PADDING] * num_rows
            lo, up = lowers[s], uppers[s]
            row[p - len(lo) : p] = lo
            row[p] = s
            row[p + 1 : p + 1 + len(up)] = up
            rows.append(tuple(row))
        return GraphWindowLayout(
            num_segments=num_segments,
            k=k,
            target_row=p,
            num_rows=num_rows,
            rows=tuple(rows),
        )


@dataclass(frozen=True)
class GraphFeatureConfig:
    """Graph analogue of :class:`FeatureConfig` (same duck-typed surface).

    The geometry properties (``m``, ``num_roads``, ``image_rows``,
    ``flat_dim``, ``condition_dim``) mirror ``FeatureConfig`` exactly,
    with the layout's ``target_row`` playing the role of ``m``: every
    consumer that indexes the target row via ``features.m`` — the
    persistence baselines, the discriminator condition — works
    unchanged, and ``window_rows`` returns the layout's row table.
    """

    layout: GraphWindowLayout
    alpha: int = 12
    beta: int = 1
    mask: FactorMask = field(default_factory=FactorMask)

    def __post_init__(self):
        if self.alpha < 2:
            raise ValueError("alpha must be at least 2")
        if self.beta < 1:
            raise ValueError("beta must be at least 1")

    @property
    def m(self) -> int:
        """Row index of the target road (the corridor's ``m``)."""
        return self.layout.target_row

    @property
    def num_roads(self) -> int:
        return self.layout.num_rows

    @property
    def image_rows(self) -> int:
        return self.num_roads + 4

    @property
    def flat_dim(self) -> int:
        return self.image_rows * self.alpha + 4

    @property
    def condition_dim(self) -> int:
        return (self.num_roads - 1 + 4) * self.alpha + 4

    def window_rows(self, num_segments: int) -> np.ndarray:
        """The layout's row table; see :meth:`FeatureConfig.window_rows`."""
        if self.layout.num_segments != num_segments:
            raise ValueError(
                f"layout covers {self.layout.num_segments} segments, not {num_segments}"
            )
        return self.layout.rows_array

    def with_mask(self, mask: FactorMask) -> "GraphFeatureConfig":
        return replace(self, mask=mask)


#: The one dataset class serves graph configs too; the name stays for its importers.
GraphTrafficDataset = TrafficDataset
