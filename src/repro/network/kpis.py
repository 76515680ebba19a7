"""Network-level KPIs over a simulated speed field.

The corridor experiments score *forecasts* (MAE, abrupt-change recall);
a scenario engine needs to score the *traffic state itself* so that a
baseline run and a scenario run can be compared in operational terms.
This module computes the standard network measures:

* **VKT / VHT** — vehicle-kilometres and vehicle-hours travelled,
  reconstructed by inverting the congestion law back to a demand
  fraction and scaling by segment capacity (the engine's flow proxy);
* **mean speed by regime** — free-flow (``v/v_free ≥ 0.8``),
  congested (``≤ 0.5``) and transitional shares;
* **bottleneck ranking** — segments by total vehicle-hours of delay
  versus free flow;
* **spillback counts** — onsets where congestion crosses the queue
  threshold the wave engine spills at.

Everything is a pure function of a :class:`TrafficSeries` plus the
graph, so KPIs apply identically to baseline and scenario output, and
:func:`compare_kpis` reports the deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..traffic.simulator import SPILL_ONSET
from ..traffic.types import SimulationConfig, TrafficSeries
from .graph import RoadGraph

__all__ = ["NetworkKpis", "invert_congestion_demand", "compute_kpis", "compare_kpis"]

_FREE_RATIO = 0.8
_CONGESTED_RATIO = 0.5


def invert_congestion_demand(config: SimulationConfig, speed_ratio: np.ndarray) -> np.ndarray:
    """Recover the demand fraction from an observed ``v / v_free`` ratio.

    Inverts :func:`repro.traffic.simulator.congestion_speed_factor`:
    ``f = 1 / (1 + (d/knee)^gamma * 0.9)`` ⇒
    ``d = knee * ((1/f - 1) / 0.9)^(1/gamma)``.  Ratios are clipped away
    from 0 and 1 so the inversion stays finite; the result is the
    engine's flow proxy (fraction of capacity) for KPI purposes.
    """
    ratio = np.clip(speed_ratio, 1e-3, 0.999)
    return config.congestion_knee * ((1.0 / ratio - 1.0) / 0.9) ** (1.0 / config.congestion_gamma)


@dataclass(frozen=True)
class NetworkKpis:
    """Aggregate network KPIs for one simulated run."""

    vkt: float  # vehicle-kilometres travelled
    vht: float  # vehicle-hours travelled
    mean_speed_kmh: float
    free_flow_share: float
    congested_share: float
    mean_speed_free_kmh: float
    mean_speed_congested_kmh: float
    total_delay_vh: float  # vehicle-hours lost vs free flow
    spillback_onsets: int
    bottlenecks: tuple[tuple[int, float], ...]  # (segment_id, delay_vh) desc

    def render(self) -> str:
        lines = [
            f"VKT                {self.vkt:,.0f} veh-km",
            f"VHT                {self.vht:,.0f} veh-h",
            f"mean speed         {self.mean_speed_kmh:.1f} km/h",
            f"free-flow share    {self.free_flow_share:.1%} @ {self.mean_speed_free_kmh:.1f} km/h",
            f"congested share    {self.congested_share:.1%} @ {self.mean_speed_congested_kmh:.1f} km/h",
            f"total delay        {self.total_delay_vh:,.0f} veh-h",
            f"spillback onsets   {self.spillback_onsets}",
        ]
        if self.bottlenecks:
            ranked = ", ".join(f"#{seg} ({delay:,.0f} veh-h)" for seg, delay in self.bottlenecks)
            lines.append(f"top bottlenecks    {ranked}")
        return "\n".join(lines)


def compute_kpis(
    graph: RoadGraph,
    series: TrafficSeries,
    config: SimulationConfig | None = None,
    *,
    top_k: int = 5,
) -> NetworkKpis:
    """Compute the KPI bundle for one run over ``graph``."""
    config = config if config is not None else SimulationConfig()
    speeds = series.speeds
    if speeds.shape[0] != len(graph):
        raise ValueError(
            f"series has {speeds.shape[0]} segments but graph has {len(graph)}"
        )
    free_flow = np.array([s.free_flow_kmh for s in graph.segments])[:, None]
    lengths = np.array([s.length_km for s in graph.segments])[:, None]
    capacity = np.array([s.capacity_vph for s in graph.segments])[:, None]
    interval_hours = series.interval_minutes / 60.0

    ratio = speeds / free_flow
    demand = invert_congestion_demand(config, ratio)
    flow_vph = demand * capacity  # vehicles per hour on each segment

    vkt_field = flow_vph * lengths * interval_hours  # veh-km per cell
    vht_field = vkt_field / np.maximum(speeds, 1e-6)  # veh-h per cell
    delay_field = vkt_field * (1.0 / np.maximum(speeds, 1e-6) - 1.0 / free_flow)
    delay_per_segment = delay_field.sum(axis=1)

    free_mask = ratio >= _FREE_RATIO
    congested_mask = ratio <= _CONGESTED_RATIO

    # Spillback onsets: upward crossings of the wave engine's queue
    # threshold, counted per segment-transition.
    congestion = 1.0 - ratio
    above = congestion > SPILL_ONSET
    onsets = int(np.sum(above[:, 1:] & ~above[:, :-1]) + np.sum(above[:, 0]))

    order = np.argsort(delay_per_segment)[::-1][:top_k]
    bottlenecks = tuple(
        (int(seg), float(delay_per_segment[seg])) for seg in order if delay_per_segment[seg] > 0
    )

    return NetworkKpis(
        vkt=float(vkt_field.sum()),
        vht=float(vht_field.sum()),
        mean_speed_kmh=float(speeds.mean()),
        free_flow_share=float(free_mask.mean()),
        congested_share=float(congested_mask.mean()),
        mean_speed_free_kmh=float(speeds[free_mask].mean()) if free_mask.any() else 0.0,
        mean_speed_congested_kmh=float(speeds[congested_mask].mean())
        if congested_mask.any()
        else 0.0,
        total_delay_vh=float(delay_field.sum()),
        spillback_onsets=onsets,
        bottlenecks=bottlenecks,
    )


def compare_kpis(baseline: NetworkKpis, scenario: NetworkKpis) -> dict[str, float]:
    """Scenario-minus-baseline deltas for the scalar KPIs.

    Because scenario compilation is deterministic and both runs share
    every random draw at the same seed, these deltas isolate the
    scenario's causal effect.
    """
    return {
        "vkt_delta": scenario.vkt - baseline.vkt,
        "vht_delta": scenario.vht - baseline.vht,
        "mean_speed_delta_kmh": scenario.mean_speed_kmh - baseline.mean_speed_kmh,
        "congested_share_delta": scenario.congested_share - baseline.congested_share,
        "total_delay_delta_vh": scenario.total_delay_vh - baseline.total_delay_vh,
        "spillback_onsets_delta": float(scenario.spillback_onsets - baseline.spillback_onsets),
    }
