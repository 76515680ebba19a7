"""``repro.network`` — city-scale road-graph scenario engine.

Generalises the linear corridor to a directed road graph: junction
topology (:mod:`~repro.network.graph`), gravity-model OD demand
(:mod:`~repro.network.demand`), the graph entry point to the speed-field
engine (:mod:`~repro.network.waves`), declarative scenario configs
(:mod:`~repro.network.scenarios`), network KPIs
(:mod:`~repro.network.kpis`) and graph-aware fleet shard boundaries
(:mod:`~repro.network.sharding`).

The graph runs the corridor's own speed-field engine
(:func:`repro.traffic.simulator.run_speed_field`) over junction
adjacency, and emits ordinary :class:`~repro.traffic.types.TrafficSeries`
objects, so the existing feature pipeline, trainers, serving stack and
fleet consume network scenarios unchanged; a corridor embedded via
:func:`from_corridor` reproduces the corridor simulator bitwise.
"""

from .demand import (
    Zone,
    assign_od_to_segments,
    day_demand_scale,
    gravity_od_matrix,
    segment_demand_weights,
    zones_from_graph,
)
from .features import graph_feature_config, graph_window_layout
from .graph import Junction, RoadGraph, from_corridor, grid_city, ring_and_spokes
from .kpis import NetworkKpis, compare_kpis, compute_kpis, invert_congestion_demand
from .scenarios import (
    EventPulse,
    IncidentCascade,
    ModifierSchedule,
    Scenario,
    WeatherFront,
    compile_scenario,
)
from .sharding import crossing_edges, partition_starts
from .stress import StressPhase, degradation_table, phase_error_table, scenario_phases
from .waves import NetworkSimulator, simulate_network

__all__ = [
    "Junction",
    "RoadGraph",
    "grid_city",
    "ring_and_spokes",
    "from_corridor",
    "Zone",
    "zones_from_graph",
    "gravity_od_matrix",
    "day_demand_scale",
    "assign_od_to_segments",
    "segment_demand_weights",
    "IncidentCascade",
    "EventPulse",
    "WeatherFront",
    "Scenario",
    "ModifierSchedule",
    "compile_scenario",
    "NetworkSimulator",
    "simulate_network",
    "NetworkKpis",
    "invert_congestion_demand",
    "compute_kpis",
    "compare_kpis",
    "crossing_edges",
    "partition_starts",
    "graph_window_layout",
    "graph_feature_config",
    "StressPhase",
    "scenario_phases",
    "phase_error_table",
    "degradation_table",
]
