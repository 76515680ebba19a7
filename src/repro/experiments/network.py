"""The ``network`` experiment: city-scale scenario engine, end to end.

Exercises the full :mod:`repro.network` stack on a deterministic grid
city:

1. build the BFS-ordered arterial grid and its gravity-model OD demand;
2. simulate a **baseline** day set and a **stress scenario** (incident
   cascade at the target road, stadium-event demand pulse, sweeping
   weather front) at the *same seed* — scenario compilation is rng-free,
   so every random draw is shared and the KPI deltas are causal;
3. score both runs with the network KPIs and report the deltas;
4. route the longest free-flow shortest path through the grid and
   compare its time-expanded travel time under baseline vs scenario
   (:func:`repro.routing.traverse_path_minutes` on explicit paths);
5. **train graph-neighbourhood models** (supervised F and adversarial
   APOTS_F) on the baseline stream's k-hop windows
   (:class:`repro.data.TrafficDataset` over several targets), then replay the stressed
   stream through them and report per-regime errors and per-phase MAE
   degradation — does the model see the cascade coming?

Everything is seeded; ``fingerprint`` hashes both speed fields, and a
test pins that two runs at the same preset/seed agree bitwise.  Emits
``network_build`` / ``network_simulate`` / ``network_kpis`` /
``network_train`` / ``network_stress`` events when an ambient recorder
is installed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.zoo import model_fingerprint
from ..data.dataset import TrafficDataset
from ..data.graph_features import GraphFeatureConfig
from ..data.split import SplitIndices
from ..network.demand import gravity_od_matrix, segment_demand_weights, zones_from_graph
from ..network.features import graph_window_layout
from ..network.graph import RoadGraph, grid_city
from ..network.kpis import NetworkKpis, compare_kpis, compute_kpis
from ..network.scenarios import EventPulse, IncidentCascade, Scenario, WeatherFront
from ..network.stress import degradation_table, phase_error_table, scenario_phases
from ..network.waves import NetworkSimulator
from ..obs import current_recorder
from ..routing.paths import dijkstra
from ..routing.travel_time import traverse_path_minutes
from ..traffic.types import SimulationConfig, TrafficSeries
from .scenario import DEFAULT_SEED, EXPERIMENT_BETA, resolve_preset, train_model

__all__ = [
    "NetworkResult",
    "build_city",
    "stress_scenario",
    "train_targets",
    "NEIGHBOURHOOD_HOPS",
    "run",
]

#: k-hop radius of the graph training windows — the network analogue of
#: the corridor's ``m = 2``.
NEIGHBOURHOOD_HOPS = 2


@dataclass
class NetworkResult:
    """Everything the network experiment produced."""

    num_segments: int
    num_junctions: int
    num_zones: int
    scenario_name: str
    baseline: NetworkKpis
    scenario: NetworkKpis
    deltas: dict[str, float]
    path: tuple[int, ...]
    path_travel_baseline_min: float
    path_travel_scenario_min: float
    fingerprint: str
    #: k-hop radius of the graph training windows.
    k: int = NEIGHBOURHOOD_HOPS
    #: Segments the graph models were trained to forecast.
    targets: tuple[int, ...] = ()
    #: Per model name: training fingerprint, per-regime errors on the
    #: baseline and stressed streams, per-phase error tables and the
    #: per-phase MAE degradation ratios.
    training: dict[str, dict] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"network experiment — {self.num_segments} segments, "
            f"{self.num_junctions} junctions, {self.num_zones} zones",
            "",
            "baseline KPIs",
            self.baseline.render(),
            "",
            f"scenario '{self.scenario_name}' KPIs",
            self.scenario.render(),
            "",
            "deltas (scenario - baseline)",
        ]
        lines.extend(f"  {key:<24} {value:+,.2f}" for key, value in self.deltas.items())
        lines.extend(
            [
                "",
                f"route of {len(self.path)} segments: "
                f"{self.path_travel_baseline_min:.1f} min baseline -> "
                f"{self.path_travel_scenario_min:.1f} min under scenario",
                f"fingerprint {self.fingerprint[:16]}",
            ]
        )
        if self.training:
            lines.extend(
                [
                    "",
                    f"graph-neighbourhood training (k={self.k}, "
                    f"{len(self.targets)} targets)",
                ]
            )
            for name, info in self.training.items():
                lines.append(
                    f"  {name:<10} fingerprint {info['fingerprint']} "
                    f"baseline MAE {info['baseline_overall']['mae']:.2f} km/h"
                )
                for phase, ratio in info["degradation"].items():
                    lines.append(f"    {phase:<8} stress/baseline MAE x{ratio:.2f}")
        return "\n".join(lines)


def build_city(num_days: int, seed: int) -> RoadGraph:
    """The experiment's grid city, sized to the preset.

    Short presets get a 4x4 junction grid (48 segments); longer ones a
    6x6 grid (120 segments) so the KPI aggregates cover a denser
    network.
    """
    size = 4 if num_days <= 10 else 6
    return grid_city(size, size, seed=seed)


def stress_scenario(graph: RoadGraph, total_steps: int) -> Scenario:
    """Incident cascade + stadium pulse + weather front, preset-scaled."""
    pulse_zone = graph.zone_of[graph.target_index]
    return Scenario(
        name="stress",
        elements=(
            IncidentCascade(segment=graph.target_index, start_step=total_steps // 4),
            EventPulse(
                zone=pulse_zone,
                start_step=total_steps // 2,
                duration_steps=min(36, max(8, total_steps // 8)),
            ),
            WeatherFront(
                start_step=(3 * total_steps) // 5,
                duration_steps=min(48, max(8, total_steps // 6)),
            ),
        ),
    )


def train_targets(graph: RoadGraph) -> tuple[int, ...]:
    """The segments the graph models learn to forecast.

    The city target plus three BFS-spread segments, so the stress table
    mixes roads directly under the incident cascade with roads that only
    see it arrive through their neighbourhood rows.
    """
    n = len(graph)
    return tuple(sorted({graph.target_index, n // 6, n // 2, (5 * n) // 6}))


def _all_test_split(num_windows: int) -> SplitIndices:
    """Evaluation-only split: every window is a test window."""
    empty = np.array([], dtype=np.int64)
    return SplitIndices(train=empty, validation=empty, test=np.arange(num_windows))


def _train_and_stress(
    graph: RoadGraph,
    baseline: TrafficSeries,
    stressed: TrafficSeries,
    scenario: Scenario,
    preset,
    seed: int,
    recorder,
) -> tuple[tuple[int, ...], dict[str, dict]]:
    """Fit graph models on the baseline stream; score them under stress.

    Both runs share every random draw (scenario compilation is rng-free),
    so the per-phase error ratio isolates what the scenario itself does
    to the forecast — "does the model see the cascade coming?".
    """
    targets = train_targets(graph)
    config = GraphFeatureConfig(
        layout=graph_window_layout(graph, NEIGHBOURHOOD_HOPS), beta=EXPERIMENT_BETA
    )
    train_ds = TrafficDataset(baseline, config, seed=seed, targets=targets)
    scalers = train_ds.features.scalers
    block = train_ds.features.num_windows // len(targets)
    eval_split = _all_test_split(block)
    eval_sets = {
        name: TrafficDataset(
            series, config, split=eval_split, seed=seed, scalers=scalers, targets=targets
        )
        for name, series in (("baseline", baseline), ("stress", stressed))
    }
    phases = scenario_phases(scenario, baseline.num_steps)

    training: dict[str, dict] = {}
    for kind, adversarial in (("F", False), ("F", True)):
        started = time.perf_counter()
        model = train_model(kind, train_ds, preset, adversarial=adversarial, seed=seed)
        fingerprint = model_fingerprint(model)
        if recorder is not None:
            recorder.event(
                "network_train",
                model=model.name,
                targets=len(targets),
                windows=train_ds.features.num_windows,
                k=NEIGHBOURHOOD_HOPS,
                duration_s=time.perf_counter() - started,
                fingerprint=fingerprint,
            )
        reports = {name: model.evaluate(ds) for name, ds in eval_sets.items()}
        tables = {}
        for name, ds in eval_sets.items():
            indices = ds.subset("test")
            tables[name] = phase_error_table(
                phases,
                ds.features.target_steps[indices],
                model.predict(ds),
                ds.features.targets_kmh[indices],
            )
        degradation = degradation_table(tables["baseline"], tables["stress"])
        if recorder is not None:
            for phase_name, ratio in degradation.items():
                recorder.event(
                    "network_stress",
                    model=model.name,
                    phase=phase_name,
                    samples=tables["stress"][phase_name]["samples"],
                    baseline_mae=tables["baseline"][phase_name]["mae"],
                    stressed_mae=tables["stress"][phase_name]["mae"],
                    degradation=ratio,
                )
        training[model.name] = {
            "fingerprint": fingerprint,
            "baseline_overall": reports["baseline"].overall,
            "stress_overall": reports["stress"].overall,
            "baseline_by_regime": reports["baseline"].by_regime,
            "stress_by_regime": reports["stress"].by_regime,
            "baseline_phases": tables["baseline"],
            "stress_phases": tables["stress"],
            "degradation": degradation,
        }
    return targets, training


def _longest_shortest_path(graph: RoadGraph) -> tuple[int, ...]:
    """The farthest-reaching free-flow shortest path from segment 0."""
    adjacency = graph.adjacency()
    distance, parent = dijkstra(adjacency, 0)
    farthest = max(distance, key=lambda seg: (distance[seg], seg))
    path = [farthest]
    while path[-1] != 0:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def _path_minutes(graph: RoadGraph, series: TrafficSeries, path: tuple[int, ...]) -> float:
    lengths = np.array([s.length_km for s in graph.segments])
    return traverse_path_minutes(
        lengths, series.speeds, list(path), start_step=0,
        interval_minutes=series.interval_minutes,
    )


def run(preset: str = "medium", seed: int = DEFAULT_SEED) -> NetworkResult:
    """Run the network scenario experiment for one preset."""
    preset = resolve_preset(preset)
    recorder = current_recorder()
    config = SimulationConfig(num_days=preset.num_days, seed=seed)
    graph = build_city(preset.num_days, seed)
    if recorder is not None:
        recorder.event(
            "network_build",
            segments=len(graph),
            junctions=len(graph.junctions),
            zones=graph.num_zones,
            bfs_ordered=graph.is_bfs_ordered(),
        )

    zones = zones_from_graph(graph, seed=seed)
    weights = segment_demand_weights(graph, gravity_od_matrix(zones))
    scenario = stress_scenario(graph, config.total_steps)

    runs: dict[str, TrafficSeries] = {}
    for name, element_set in (("baseline", None), (scenario.name, scenario)):
        started = time.perf_counter()
        runs[name] = NetworkSimulator(
            graph, config, demand_weights=weights, scenario=element_set
        ).run()
        if recorder is not None:
            recorder.event(
                "network_simulate",
                scenario=name,
                segments=len(graph),
                steps=runs[name].num_steps,
                duration_s=time.perf_counter() - started,
            )

    kpis = {name: compute_kpis(graph, series, config) for name, series in runs.items()}
    if recorder is not None:
        for name, k in kpis.items():
            recorder.event(
                "network_kpis",
                scenario=name,
                vkt=k.vkt,
                vht=k.vht,
                mean_speed_kmh=k.mean_speed_kmh,
                congested_share=k.congested_share,
                spillback_onsets=k.spillback_onsets,
            )

    path = _longest_shortest_path(graph)
    fingerprint = hashlib.sha256(
        runs["baseline"].speeds.tobytes() + runs[scenario.name].speeds.tobytes()
    ).hexdigest()

    targets, training = _train_and_stress(
        graph, runs["baseline"], runs[scenario.name], scenario, preset, seed, recorder
    )

    return NetworkResult(
        num_segments=len(graph),
        num_junctions=len(graph.junctions),
        num_zones=graph.num_zones,
        scenario_name=scenario.name,
        baseline=kpis["baseline"],
        scenario=kpis[scenario.name],
        deltas=compare_kpis(kpis["baseline"], kpis[scenario.name]),
        path=path,
        path_travel_baseline_min=_path_minutes(graph, runs["baseline"], path),
        path_travel_scenario_min=_path_minutes(graph, runs[scenario.name], path),
        fingerprint=fingerprint,
        k=NEIGHBOURHOOD_HOPS,
        targets=targets,
        training=training,
    )
