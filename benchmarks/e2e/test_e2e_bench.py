"""Self-test of the end-to-end benchmark (run from the repository root)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload at a shrunk size, asserts that each metric
BENCHMARK.json names is emitted with its unit, and that each
correctness check rejects a perturbed reference.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import workloads
from workloads import WORKLOADS, Stages

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SHRUNK = dict(setup_repeats=1, mae_ops=2, open_loop_seconds=1.0, train_epochs=1, train_steps=2)
SEED = 7


def bumped(value: float) -> float:
    """The next float above ``value``: the smallest possible perturbation."""
    return float(np.nextafter(value, math.inf))


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"])
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    result = workloads.run_workload(workload, SEED, 0.3, False, tmp_path, **SHRUNK)
    assert result.correct, result.checks
    assert result.attempted > 0 and result.failed == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m.unit for name, m in result.end_to_end.items()} == expected
    for name, metric in result.end_to_end.items():
        assert math.isfinite(metric.value) and metric.value > 0, name
        assert metric.samples > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    result = workloads.run_workload(workload, SEED, 0.6, True, tmp_path, **SHRUNK)
    assert result.correct, result.checks
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m.unit for name, m in result.per_layer.items()} == expected
    assert all(math.isfinite(m.value) for m in result.per_layer.values())
    assert (tmp_path / f"{workload}.trace.jsonl").stat().st_size > 0
    if workload != "train_apots_h":
        assert result.per_layer["trace.coverage"].value >= 0.9


# ----------------------------------------------------------------------
# Each check rejects a perturbed reference
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corridor(tmp_path_factory):
    rig = workloads.CorridorRig(Stages(), SEED, tmp_path_factory.mktemp("corridor"))
    yield rig
    rig.close()


def test_forward_check_rejects_perturbed_reference(corridor):
    forecasts = corridor.service.predict_many(workloads.SERVABLE, use_cache=False)
    served = [f.speed_kmh for f in forecasts]
    reference = workloads.reference_forecasts(corridor.service, workloads.SERVABLE)
    assert served == reference
    reference[5] = bumped(reference[5])
    assert served != reference


def test_dashboard_checks_reject_perturbed_reference(corridor):
    calls = [corridor.service.predict_many(workloads.SERVABLE) for _ in range(workloads.DASHBOARD_USERS)]
    reference = [f.speed_kmh for f in corridor.service.predict_many(workloads.SERVABLE, use_cache=False)]
    assert workloads.dashboard_tick_ok(calls, reference)
    perturbed = list(reference)
    perturbed[0] = bumped(perturbed[0])
    assert not workloads.dashboard_tick_ok(calls, perturbed)
    # A hit reported as a miss breaks the hit-then-miss pattern.
    calls[3][0] = dataclasses.replace(calls[3][0], from_cache=False)
    assert not workloads.dashboard_tick_ok(calls, reference)
    assert workloads.hit_ratio_ok(23 * 64, 64)
    assert not workloads.hit_ratio_ok(23 * 64 - 1, 64)


def test_city_check_rejects_perturbed_reference(tmp_path):
    rig = workloads.CityRig(Stages(), SEED, tmp_path)
    try:
        workloads.measure_city(rig, 0.0, 1, 0)
        served, expected = workloads.city_boundary_answers(rig)
    finally:
        rig.close()
    assert served == expected
    assert {f.source for f in served} == {"model"}
    expected[0] = dataclasses.replace(expected[0], speed_kmh=bumped(expected[0].speed_kmh))
    assert served != expected
    assert workloads.open_loop_ok(offered=100, served=97, shed=3)
    assert not workloads.open_loop_ok(offered=100, served=97, shed=2)


def test_training_check_rejects_perturbed_reference():
    assert workloads.training_ok([0.5, 0.25], ["a1", "a1"])
    assert not workloads.training_ok([0.5, math.nan], ["a1", "a1"])
    assert not workloads.training_ok([0.5, 0.25], ["a1", "a2"])
