"""The road-graph entry point to the one speed-field engine.

:class:`NetworkSimulator` runs
:func:`repro.traffic.simulator.run_speed_field` over a
:class:`~repro.network.graph.RoadGraph`.  The engine reads the graph's
adjacency where a corridor's path would be, so on a graph:

* incident shockwaves spread **upstream through junctions**, damped by
  ``upstream_propagation_decay`` per hop and split across incoming
  branches (a merge divides the queue);
* flash congestion spills onto *all* upstream branches;
* spatial smoothing averages over graph neighbours.

On top of the corridor's physics a graph run adds per-segment demand
weights (an OD assignment), a compiled :class:`Scenario` and the
per-tick **queue spillback** pass, which lets congestion accumulated on
a segment propagate backwards across junctions over time (the
LWR-flavoured behaviour a static mask cannot express).

**Spillback rule.**  Spillback runs on every graph except a
:func:`~repro.network.graph.from_corridor` graph with no scenario and no
demand weights: that run is the corridor itself, bitwise equal to
:class:`~repro.traffic.simulator.TrafficSimulator` on the embedded
corridor, and a test pins it.

Output is an ordinary :class:`~repro.traffic.types.TrafficSeries` (the
graph wrapped via :meth:`RoadGraph.as_corridor`), so the feature
pipeline, trainers, serving and fleet consume network scenarios
unchanged.
"""

from __future__ import annotations

import numpy as np

from ..traffic.simulator import run_speed_field
from ..traffic.types import SimulationConfig, TrafficSeries
from .graph import RoadGraph
from .scenarios import Scenario, compile_scenario

__all__ = ["NetworkSimulator", "simulate_network"]


class NetworkSimulator:
    """Generates a :class:`TrafficSeries` over a :class:`RoadGraph`."""

    def __init__(
        self,
        graph: RoadGraph,
        config: SimulationConfig | None = None,
        *,
        demand_weights: np.ndarray | None = None,
        scenario: Scenario | None = None,
    ):
        self.graph = graph
        self.config = config if config is not None else SimulationConfig()
        if demand_weights is not None:
            demand_weights = np.asarray(demand_weights, dtype=np.float64)
            if demand_weights.shape != (len(graph),):
                raise ValueError(
                    f"demand_weights must be ({len(graph)},), got {demand_weights.shape}"
                )
            if (demand_weights <= 0).any():
                raise ValueError("demand_weights must be positive")
        self.demand_weights = demand_weights
        self.scenario = scenario

    def run(self) -> TrafficSeries:
        """Generate the network speed field and auxiliary channels."""
        graph = self.graph
        schedule = None
        if self.scenario is not None:
            schedule = compile_scenario(self.scenario, graph, self.config.total_steps)
        plain_corridor = (
            graph.corridor is not None and schedule is None and self.demand_weights is None
        )
        return run_speed_field(
            graph,
            graph.as_corridor(),
            self.config,
            demand_weights=self.demand_weights,
            schedule=schedule,
            spillback=not plain_corridor,
        )


def simulate_network(
    graph: RoadGraph,
    config: SimulationConfig | None = None,
    *,
    demand_weights: np.ndarray | None = None,
    scenario: Scenario | None = None,
) -> TrafficSeries:
    """One-call convenience wrapper: build a network simulator and run it."""
    return NetworkSimulator(
        graph, config, demand_weights=demand_weights, scenario=scenario
    ).run()
