"""Neighbourhood export: from a :class:`RoadGraph` to a window layout.

The bridge between the network engine and the feature pipeline: collect
every segment's ``k_hop_neighbourhood`` and hand the sorted sets to
:meth:`repro.data.GraphWindowLayout.from_neighbourhoods`, which fixes
the canonical padded row layout (lower ids right-aligned below the
target row, upper ids left-aligned above, ``-1`` padding elsewhere).

Determinism: ``k_hop_neighbourhood`` returns sorted ids and the layout
rule is a pure function of those sets, so the same graph and ``k``
always produce the same layout, bit for bit (pinned by the property
suite in ``tests/data/test_graph_features.py``).
"""

from __future__ import annotations

from ..data.graph_features import GraphFeatureConfig, GraphWindowLayout
from .graph import RoadGraph

__all__ = ["graph_window_layout", "graph_feature_config"]


def graph_window_layout(graph: RoadGraph, k: int) -> GraphWindowLayout:
    """The canonical k-hop window layout of ``graph``.

    On a :func:`from_corridor` path graph with ``len >= 2k + 1`` the
    layout has ``target_row == k`` and ``num_rows == 2k + 1``, and every
    interior segment's row list is ``[s - k, ..., s + k]`` — exactly its
    row of the corridor's ``FeatureConfig(m=k).window_rows``.
    """
    n = len(graph)
    hoods = [graph.k_hop_neighbourhood(s, k) for s in range(n)]
    return GraphWindowLayout.from_neighbourhoods(hoods, num_segments=n, k=k)


def graph_feature_config(
    graph: RoadGraph,
    k: int,
    *,
    alpha: int = 12,
    beta: int = 1,
) -> GraphFeatureConfig:
    """Convenience: layout + window geometry in one call."""
    return GraphFeatureConfig(layout=graph_window_layout(graph, k), alpha=alpha, beta=beta)
