"""Directed road graphs: the city-scale generalisation of the corridor.

The corridor is a *path*: segment ``s`` feeds segment ``s + 1`` and the
``±m`` index arithmetic of the feature pipeline doubles as its adjacency
structure.  A :class:`RoadGraph` keeps the same per-segment vocabulary
(:class:`~repro.traffic.types.RoadSegment`) but joins segments at
:class:`Junction` nodes — merges, diverges, signal-controlled arterial
crossings, ramps — so congestion can propagate through a network instead
of along a line.

**Segment ids are BFS-ordered by construction.**  Every generator
relabels its segments in breadth-first discovery order over the
undirected segment-adjacency graph, so a *contiguous id range is a
BFS block*: graph-local segments get nearby ids.  That single invariant
is what lets the downstream stack stay unchanged —

* the feature pipeline's ``±m`` index windows read graph-local context,
* :class:`repro.fleet.router.ShardMap` keeps its contiguous-range
  partition (graph partitioning reduces to choosing the cut *positions*,
  see :mod:`repro.network.sharding`), and
* a corridor is exactly the degenerate case: :func:`from_corridor`
  embeds it as a path graph whose BFS order is the identity.

Determinism: generators draw all attributes from one seeded
``np.random.default_rng`` in construction order, and the BFS relabelling
breaks ties by ascending raw id — the same call always yields the same
graph, bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..traffic.types import Corridor, RoadSegment

__all__ = [
    "Junction",
    "RoadGraph",
    "grid_city",
    "ring_and_spokes",
    "from_corridor",
]


@dataclass(frozen=True)
class Junction:
    """A node where segments meet.

    ``kind`` is a descriptive label derived from the junction's degree
    ("signal" for full arterial crossings, "merge"/"diverge" for
    three-way branches, "ramp" for two-way corners, "source"/"sink"/
    "through" for path endpoints and interiors).
    """

    junction_id: int
    kind: str
    x: float
    y: float


_JUNCTION_KINDS = ("source", "sink", "through", "ramp", "merge", "diverge", "signal")


@dataclass(frozen=True)
class RoadGraph:
    """Directed segments joined at junctions, with BFS-ordered ids.

    ``tails[i]`` / ``heads[i]`` are the junctions segment ``i`` leaves
    from and flows into.  ``zone_of[i]`` assigns each segment to a
    demand zone (see :mod:`repro.network.demand`).  ``corridor`` is set
    only by :func:`from_corridor` and marks the graph as an embedded
    corridor: :meth:`as_corridor` returns it, and the network simulator
    runs no queue spillback on it when it has no scenario and no demand
    weights, so its output equals the corridor simulator's bitwise.
    """

    segments: tuple[RoadSegment, ...]
    junctions: tuple[Junction, ...]
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    zone_of: tuple[int, ...]
    num_zones: int
    target_index: int
    corridor: Corridor | None = None
    _downstream: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _upstream: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.segments)
        if n < 1:
            raise ValueError("graph needs at least one segment")
        if not (len(self.tails) == len(self.heads) == len(self.zone_of) == n):
            raise ValueError("tails/heads/zone_of must align with segments")
        for index, segment in enumerate(self.segments):
            if segment.segment_id != index:
                raise ValueError(
                    f"segment at position {index} carries id {segment.segment_id}; "
                    f"ids must equal positions (BFS order)"
                )
        num_junctions = len(self.junctions)
        for i in range(n):
            if not (0 <= self.tails[i] < num_junctions and 0 <= self.heads[i] < num_junctions):
                raise ValueError(f"segment {i} references an unknown junction")
            if self.tails[i] == self.heads[i]:
                raise ValueError(f"segment {i} is a self-loop")
        if self.num_zones < 1:
            raise ValueError("num_zones must be positive")
        if any(not 0 <= z < self.num_zones for z in self.zone_of):
            raise ValueError("zone_of entries must be in 0..num_zones-1")
        if not 0 <= self.target_index < n:
            raise ValueError("target_index out of range")

        by_tail: dict[int, list[int]] = {}
        by_head: dict[int, list[int]] = {}
        for i in range(n):
            by_tail.setdefault(self.tails[i], []).append(i)
            by_head.setdefault(self.heads[i], []).append(i)
        downstream = []
        upstream = []
        for i in range(n):
            # Exclude the reverse carriageway of a two-way link: a
            # queue on the eastbound side neither receives from nor
            # spills onto the westbound side, and routes must not
            # U-turn at the far junction.
            down = tuple(
                s
                for s in sorted(by_tail.get(self.heads[i], ()))
                if not (self.tails[s] == self.heads[i] and self.heads[s] == self.tails[i])
            )
            up = tuple(
                s
                for s in sorted(by_head.get(self.tails[i], ()))
                if not (self.tails[s] == self.heads[i] and self.heads[s] == self.tails[i])
            )
            downstream.append(down)
            upstream.append(up)
        object.__setattr__(self, "_downstream", tuple(downstream))
        object.__setattr__(self, "_upstream", tuple(upstream))

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.segments)

    def downstream_of(self, segment_id: int) -> tuple[int, ...]:
        """Segments fed by ``segment_id`` (sorted; excludes the reverse lane)."""
        return self._downstream[segment_id]

    def upstream_of(self, segment_id: int) -> tuple[int, ...]:
        """Segments feeding ``segment_id`` (sorted; excludes the reverse lane)."""
        return self._upstream[segment_id]

    def neighbours(self, segment_id: int) -> tuple[int, ...]:
        """Undirected adjacency: upstream ∪ downstream, sorted."""
        return tuple(
            sorted(set(self._downstream[segment_id]) | set(self._upstream[segment_id]))
        )

    def k_hop_neighbourhood(self, segment_id: int, k: int) -> list[int]:
        """Sorted segment ids within ``k`` undirected hops (incl. itself).

        The graph replacement for the corridor's ``±m`` index window:
        on a :func:`from_corridor` graph this is exactly
        ``[segment_id - k, ..., segment_id + k]`` clipped to the ends.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        if not 0 <= segment_id < len(self.segments):
            raise ValueError(f"segment {segment_id} outside graph 0..{len(self.segments) - 1}")
        seen = {segment_id}
        frontier = [segment_id]
        for _ in range(k):
            nxt = []
            for seg in frontier:
                for other in self.neighbours(seg):
                    if other not in seen:
                        seen.add(other)
                        nxt.append(other)
            frontier = nxt
        return sorted(seen)

    def adjacency(self) -> dict[int, tuple[tuple[int, float], ...]]:
        """Weighted digraph for :mod:`repro.routing` shortest paths.

        The weight of edge ``i -> j`` is the free-flow traversal time of
        ``j`` in minutes, so a path's cost is the free-flow travel time
        of everything after its first segment.
        """
        return {
            i: tuple(
                (j, self.segments[j].length_km / self.segments[j].free_flow_kmh * 60.0)
                for j in self._downstream[i]
            )
            for i in range(len(self.segments))
        }

    def segment_positions(self) -> np.ndarray:
        """(num_segments, 2) midpoint coordinates in km."""
        positions = np.empty((len(self.segments), 2))
        for i in range(len(self.segments)):
            tail = self.junctions[self.tails[i]]
            head = self.junctions[self.heads[i]]
            positions[i] = ((tail.x + head.x) / 2.0, (tail.y + head.y) / 2.0)
        return positions

    def is_bfs_ordered(self) -> bool:
        """Whether ids follow BFS discovery order (the pinned invariant)."""
        return _bfs_order(len(self.segments), self.neighbours) == list(
            range(len(self.segments))
        )

    # ------------------------------------------------------------------
    # Corridor views
    # ------------------------------------------------------------------
    def as_corridor(self) -> Corridor:
        """The corridor container the :class:`TrafficSeries` rides on.

        For a :func:`from_corridor` graph this is the original corridor;
        otherwise it wraps the BFS-ordered segments so the existing
        pipeline (which only needs segment count, lengths and a target
        index) consumes network output unchanged.
        """
        if self.corridor is not None:
            return self.corridor
        return Corridor(segments=self.segments, target_index=self.target_index)

    def path_corridor(self, path: list[int] | tuple[int, ...]) -> Corridor:
        """Embed a route (consecutive connected segments) as a corridor.

        Used to train corridor-shaped models on a subgraph: the path's
        segments are renumbered 0..len-1 in traversal order with the
        target in the middle.  Raises when consecutive entries are not
        connected tail-to-head.
        """
        if len(path) < 1:
            raise ValueError("path must contain at least one segment")
        for a, b in zip(path, path[1:]):
            if b not in self._downstream[a]:
                raise ValueError(f"segments {a} -> {b} are not connected")
        renumbered = tuple(
            RoadSegment(
                segment_id=pos,
                name=self.segments[seg].name,
                length_km=self.segments[seg].length_km,
                free_flow_kmh=self.segments[seg].free_flow_kmh,
                capacity_vph=self.segments[seg].capacity_vph,
            )
            for pos, seg in enumerate(path)
        )
        return Corridor(segments=renumbered, target_index=len(path) // 2)


# ----------------------------------------------------------------------
# BFS relabelling
# ----------------------------------------------------------------------
def _bfs_order(num_segments: int, neighbours) -> list[int]:
    """BFS discovery order over ``neighbours`` (ascending-id tie-break).

    Disconnected components are appended in ascending root order, so the
    result always covers every segment.
    """
    order: list[int] = []
    seen: set[int] = set()
    for root in range(num_segments):
        if root in seen:
            continue
        seen.add(root)
        queue: deque[int] = deque([root])
        while queue:
            node = queue.popleft()
            order.append(node)
            for nxt in neighbours(node):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return order


def _assemble(
    names: list[str],
    lengths: list[float],
    free_flows: list[float],
    capacities: list[float],
    tails: list[int],
    heads: list[int],
    junctions: list[Junction],
    zone_of: list[int],
    num_zones: int,
    target_raw: int,
    corridor: Corridor | None = None,
) -> RoadGraph:
    """Relabel raw segments into BFS order and build the graph.

    The BFS runs over the *flow* adjacency (upstream ∪ downstream,
    reverse lane excluded) — the same relation
    :meth:`RoadGraph.neighbours` exposes — so re-running BFS on the
    relabelled graph reproduces the identity (``is_bfs_ordered``):
    both passes process parents in discovery order and append each
    parent's unseen neighbours in the order that assigned their labels.
    """

    def build(order: list[int]) -> RoadGraph:
        new_of_old = {old: new for new, old in enumerate(order)}
        segments = tuple(
            RoadSegment(
                segment_id=new,
                name=names[old],
                length_km=lengths[old],
                free_flow_kmh=free_flows[old],
                capacity_vph=capacities[old],
            )
            for new, old in enumerate(order)
        )
        return RoadGraph(
            segments=segments,
            junctions=tuple(junctions),
            tails=tuple(tails[old] for old in order),
            heads=tuple(heads[old] for old in order),
            zone_of=tuple(zone_of[old] for old in order),
            num_zones=num_zones,
            target_index=new_of_old[target_raw],
            corridor=corridor,
        )

    provisional = build(list(range(len(names))))
    order = _bfs_order(len(names), provisional.neighbours)
    if order == list(range(len(names))):
        return provisional
    return build(order)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def grid_city(
    rows: int,
    cols: int,
    *,
    zone_rows: int = 2,
    zone_cols: int = 2,
    spacing_km: float = 1.8,
    seed: int = 0,
) -> RoadGraph:
    """A signal-controlled arterial grid of ``rows x cols`` junctions.

    Every neighbouring junction pair is linked by a two-way street (two
    directed segments), giving ``2 * (rows*(cols-1) + cols*(rows-1))``
    segments.  Zones tile the junction lattice as a ``zone_rows x
    zone_cols`` grid; a segment belongs to its tail junction's zone.
    The target is the segment nearest the city centre.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid_city needs at least 2x2 junctions")
    if zone_rows < 1 or zone_cols < 1:
        raise ValueError("zone grid must be at least 1x1")
    rng = np.random.default_rng(seed)

    junctions: list[Junction] = []
    for r in range(rows):
        for c in range(cols):
            degree = sum((r > 0, r < rows - 1, c > 0, c < cols - 1))
            kind = {2: "ramp", 3: "merge", 4: "signal"}[degree]
            junctions.append(
                Junction(junction_id=r * cols + c, kind=kind, x=c * spacing_km, y=r * spacing_km)
            )

    def zone_of_junction(r: int, c: int) -> int:
        return (r * zone_rows // rows) * zone_cols + (c * zone_cols // cols)

    names: list[str] = []
    lengths: list[float] = []
    free_flows: list[float] = []
    capacities: list[float] = []
    tails: list[int] = []
    heads: list[int] = []
    zone_of: list[int] = []

    def add_two_way(ra: int, ca: int, rb: int, cb: int) -> None:
        a, b = ra * cols + ca, rb * cols + cb
        length = float(spacing_km * rng.uniform(0.85, 1.15))
        free_flow = float(rng.uniform(52.0, 68.0))
        capacity = float(rng.uniform(1500.0, 2100.0))
        for tail, head in ((a, b), (b, a)):
            tr, tc = divmod(tail, cols)
            names.append(f"grid-{tail:03d}-{head:03d}")
            lengths.append(length)
            free_flows.append(free_flow)
            capacities.append(capacity)
            tails.append(tail)
            heads.append(head)
            zone_of.append(zone_of_junction(tr, tc))

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                add_two_way(r, c, r, c + 1)
            if r + 1 < rows:
                add_two_way(r, c, r + 1, c)

    centre = np.array([(cols - 1) * spacing_km / 2.0, (rows - 1) * spacing_km / 2.0])
    midpoints = np.array(
        [
            (
                (junctions[t].x + junctions[h].x) / 2.0,
                (junctions[t].y + junctions[h].y) / 2.0,
            )
            for t, h in zip(tails, heads)
        ]
    )
    target_raw = int(np.argmin(np.linalg.norm(midpoints - centre, axis=1)))

    return _assemble(
        names,
        lengths,
        free_flows,
        capacities,
        tails,
        heads,
        junctions,
        zone_of,
        num_zones=zone_rows * zone_cols,
        target_raw=target_raw,
    )


def ring_and_spokes(
    num_spokes: int = 6,
    *,
    ring_radius_km: float = 3.0,
    outer_radius_km: float = 6.0,
    seed: int = 0,
) -> RoadGraph:
    """An orbital expressway with radial feeders: hub, ring, outer spurs.

    Junctions: one hub (the CBD), ``num_spokes`` ring interchanges, and
    ``num_spokes`` outer terminals.  Two-way links: hub↔ring spokes
    (on/off-ramp arterials), consecutive ring arcs (fast orbital), and
    ring↔outer spurs (feeder roads) — ``6 * num_spokes`` segments.
    Zone 0 is the hub; ring/outer sector ``k`` forms zone ``k + 1``.
    """
    if num_spokes < 3:
        raise ValueError("ring_and_spokes needs at least 3 spokes")
    rng = np.random.default_rng(seed)

    junctions = [Junction(junction_id=0, kind="signal", x=0.0, y=0.0)]
    for k in range(num_spokes):
        angle = 2.0 * np.pi * k / num_spokes
        junctions.append(
            Junction(
                junction_id=1 + k,
                kind="merge",
                x=float(ring_radius_km * np.cos(angle)),
                y=float(ring_radius_km * np.sin(angle)),
            )
        )
    for k in range(num_spokes):
        angle = 2.0 * np.pi * k / num_spokes
        junctions.append(
            Junction(
                junction_id=1 + num_spokes + k,
                kind="ramp",
                x=float(outer_radius_km * np.cos(angle)),
                y=float(outer_radius_km * np.sin(angle)),
            )
        )

    names: list[str] = []
    lengths: list[float] = []
    free_flows: list[float] = []
    capacities: list[float] = []
    tails: list[int] = []
    heads: list[int] = []
    zone_of: list[int] = []

    def sector_zone(junction_id: int) -> int:
        if junction_id == 0:
            return 0
        return 1 + (junction_id - 1) % num_spokes

    def add_two_way(a: int, b: int, length: float, ff_lo: float, ff_hi: float, cap_lo: float, cap_hi: float, label: str) -> None:
        length = float(length * rng.uniform(0.9, 1.1))
        free_flow = float(rng.uniform(ff_lo, ff_hi))
        capacity = float(rng.uniform(cap_lo, cap_hi))
        for tail, head in ((a, b), (b, a)):
            names.append(f"{label}-{tail:02d}-{head:02d}")
            lengths.append(length)
            free_flows.append(free_flow)
            capacities.append(capacity)
            tails.append(tail)
            heads.append(head)
            zone_of.append(sector_zone(tail))

    arc = 2.0 * ring_radius_km * np.sin(np.pi / num_spokes)
    for k in range(num_spokes):
        add_two_way(1 + k, 1 + (k + 1) % num_spokes, arc, 95.0, 105.0, 3600.0, 4400.0, "ring")
    for k in range(num_spokes):
        add_two_way(0, 1 + k, ring_radius_km, 62.0, 78.0, 2200.0, 2800.0, "spoke")
    for k in range(num_spokes):
        add_two_way(
            1 + k, 1 + num_spokes + k, outer_radius_km - ring_radius_km, 50.0, 66.0, 1400.0, 1900.0, "spur"
        )

    # Target: the first ring arc (the busy orbital near sector 0).
    return _assemble(
        names,
        lengths,
        free_flows,
        capacities,
        tails,
        heads,
        junctions,
        zone_of,
        num_zones=num_spokes + 1,
        target_raw=0,
    )


def from_corridor(corridor: Corridor) -> RoadGraph:
    """Embed a corridor as a degenerate path graph.

    Junction ``i`` sits at the cumulative length of the first ``i``
    segments; segment ``i`` runs junction ``i -> i + 1``.  The BFS order
    of a path from segment 0 is the identity, so ids, adjacency and the
    ``±m`` window semantics coincide exactly with the corridor's index
    arithmetic, and ``upstream_of``/``neighbours`` equal the corridor's
    own.  The returned graph carries ``corridor``, which tells
    :class:`repro.network.waves.NetworkSimulator` to skip queue
    spillback on a plain run, so the one engine produces the corridor
    simulator's output bitwise (pinned by tests).
    """
    n = len(corridor)
    junctions = []
    x = 0.0
    for i in range(n + 1):
        kind = "source" if i == 0 else ("sink" if i == n else "through")
        junctions.append(Junction(junction_id=i, kind=kind, x=x, y=0.0))
        if i < n:
            x += corridor.segments[i].length_km
    return _assemble(
        names=[s.name for s in corridor.segments],
        lengths=[s.length_km for s in corridor.segments],
        free_flows=[s.free_flow_kmh for s in corridor.segments],
        capacities=[s.capacity_vph for s in corridor.segments],
        tails=list(range(n)),
        heads=list(range(1, n + 1)),
        junctions=junctions,
        zone_of=[0] * n,
        num_zones=1,
        target_raw=corridor.target_index,
        corridor=corridor,
    )
