"""Graph shortest paths for routing over arbitrary road networks.

:mod:`repro.routing` predates the city-network work and used to assume
the corridor's linear segment ordering.  This module is the
graph-agnostic core the network layer builds on: plain Dijkstra over an
adjacency mapping ``{node: ((neighbour, weight), ...)}``.  Nothing here
knows about :class:`~repro.network.graph.RoadGraph` — the caller
supplies whatever weighted adjacency it wants (free-flow travel time,
length, live congested time), so routing stays below the network layer
in the import DAG.

Determinism: ties are broken by node id (the heap orders on
``(distance, node)``), so two processes computing routes over the same
adjacency agree on every path.
"""

from __future__ import annotations

import heapq
from typing import Mapping, Sequence

__all__ = ["dijkstra"]

#: adjacency type: node -> sequence of (neighbour, edge weight) pairs.
Adjacency = Mapping[int, Sequence[tuple[int, float]]]


def dijkstra(
    adjacency: Adjacency, source: int
) -> tuple[dict[int, float], dict[int, int]]:
    """Single-source shortest paths over a weighted digraph.

    Returns ``(distance, parent)``: distance from ``source`` to every
    reachable node, and each reached node's predecessor on its shortest
    path (the source has no entry in ``parent``).  Edge weights must be
    non-negative.
    """
    distance: dict[int, float] = {source: 0.0}
    parent: dict[int, int] = {}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        dist, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for neighbour, weight in adjacency.get(node, ()):
            if weight < 0:
                raise ValueError(
                    f"negative edge weight {weight} on {node}->{neighbour}"
                )
            candidate = dist + weight
            if candidate < distance.get(neighbour, float("inf")):
                distance[neighbour] = candidate
                parent[neighbour] = node
                heapq.heappush(heap, (candidate, neighbour))
    return distance, parent
