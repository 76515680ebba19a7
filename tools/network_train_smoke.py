#!/usr/bin/env python
"""CI smoke test for graph-neighbourhood training (run by ``tools/ci.sh``).

Three checks, all in seconds:

1. **Corridor-reduction pin** — training on a :func:`from_corridor`
   graph layout must produce weights bitwise-identical to the corridor
   training path (equal ``model_fingerprint``), and re-running the graph
   fit must reproduce its own fingerprint exactly.
2. **Micro graph fit + stress eval** — a model fitted on a small grid
   city is scored per scenario phase against an incident-cascade run;
   the table must cover every phase with finite errors and the pre-
   scenario phase must show ~no degradation (causal attribution).
3. **Obs schema** — the ``network_train`` / ``network_stress`` events
   emitted by the ``network`` experiment validate against the schema.

Run directly::

    PYTHONPATH=src python tools/network_train_smoke.py
"""

from __future__ import annotations

import math
import sys
import tempfile

import numpy as np

from repro.core.config import ScalePreset
from repro.core.model import APOTS
from repro.core.zoo import model_fingerprint
from repro.data import FeatureConfig, TrafficDataset
from repro.data.graph_features import GraphFeatureConfig
from repro.data.split import SplitIndices
from repro.network import (
    IncidentCascade,
    NetworkSimulator,
    Scenario,
    degradation_table,
    from_corridor,
    graph_window_layout,
    grid_city,
    phase_error_table,
    scenario_phases,
)
from repro.obs import RunRecorder, use_recorder, validate_run_dir
from repro.traffic.simulator import simulate
from repro.traffic.types import SimulationConfig

MICRO = ScalePreset(
    name="micro",
    num_days=2,
    width_factor=0.05,
    epochs=2,
    adversarial_epochs=1,
    batch_size=64,
    adversarial_batch_size=8,
    max_steps_per_epoch=6,
)


def check_corridor_reduction_pin() -> None:
    series = simulate(SimulationConfig(num_days=MICRO.num_days, seed=3))
    corridor_config = FeatureConfig()
    graph_config = GraphFeatureConfig(
        layout=graph_window_layout(from_corridor(series.corridor), corridor_config.m)
    )
    corridor_ds = TrafficDataset(series, corridor_config, seed=5)
    graph_ds = TrafficDataset(series, graph_config, seed=5)

    def fit(features, dataset) -> str:
        model = APOTS(
            predictor="F", adversarial=False, features=features, preset=MICRO, seed=1
        )
        return model_fingerprint(model.fit(dataset))

    corridor_print = fit(corridor_config, corridor_ds)
    graph_print = fit(graph_config, graph_ds)
    assert graph_print == corridor_print, (
        f"from_corridor graph training must be bitwise-identical to the "
        f"corridor path (corridor {corridor_print}, graph {graph_print})"
    )
    assert fit(graph_config, graph_ds) == graph_print, (
        "graph training must reproduce its own fingerprint on a re-run"
    )
    print(f"network_train_smoke: corridor-reduction pin OK ({graph_print})")


def check_graph_fit_and_stress() -> None:
    graph = grid_city(3, 3, seed=0)
    config = SimulationConfig(num_days=1, seed=3)
    scenario = Scenario(
        "cascade",
        (IncidentCascade(segment=graph.target_index, start_step=config.total_steps // 3),),
    )
    baseline = NetworkSimulator(graph, config).run()
    stressed = NetworkSimulator(graph, config, scenario=scenario).run()

    feature_config = GraphFeatureConfig(layout=graph_window_layout(graph, 2))
    dataset = TrafficDataset(baseline, feature_config, seed=0)
    model = APOTS(
        predictor="F", adversarial=False, features=feature_config, preset=MICRO, seed=0
    ).fit(dataset)

    phases = scenario_phases(scenario, baseline.num_steps)
    num_windows = dataset.features.num_windows
    all_test = SplitIndices(
        train=np.array([], dtype=np.int64),
        validation=np.array([], dtype=np.int64),
        test=np.arange(num_windows),
    )
    tables = {}
    for name, series in (("baseline", baseline), ("stress", stressed)):
        eval_ds = TrafficDataset(
            series, feature_config, split=all_test, seed=0,
            scalers=dataset.features.scalers,
        )
        indices = eval_ds.subset("test")
        tables[name] = phase_error_table(
            phases,
            eval_ds.features.target_steps[indices],
            model.predict(eval_ds),
            eval_ds.features.targets_kmh[indices],
        )
    degradation = degradation_table(tables["baseline"], tables["stress"])
    assert set(degradation) == {"pre", "cascade"}, f"phases: {sorted(degradation)}"
    for phase, ratio in degradation.items():
        assert math.isfinite(ratio), f"phase {phase} degradation is {ratio}"
    assert abs(degradation["pre"] - 1.0) < 0.05, (
        f"pre-scenario phase must not degrade (got x{degradation['pre']:.3f})"
    )
    summary = ", ".join(f"{p} x{r:.2f}" for p, r in sorted(degradation.items()))
    print(f"network_train_smoke: graph fit + stress eval OK ({summary})")


def check_obs_schema() -> None:
    from repro.experiments.registry import run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        with RunRecorder(tmp) as recorder, use_recorder(recorder):
            result = run_experiment("network", preset="smoke")
        errors = validate_run_dir(recorder.directory)
        assert not errors, f"network_* events failed schema validation: {errors}"
    assert set(result.training) == {"F", "APOTS_F"}
    worst = max(
        (ratio, f"{name}:{phase}")
        for name, info in result.training.items()
        for phase, ratio in info["degradation"].items()
        if not np.isnan(ratio)
    )
    print(
        f"network_train_smoke: experiment obs OK "
        f"(worst degradation {worst[1]} x{worst[0]:.2f})"
    )


def main() -> int:
    check_corridor_reduction_pin()
    check_graph_fit_and_stress()
    check_obs_schema()
    print("network_train_smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
