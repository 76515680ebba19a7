"""Shared benchmark configuration.

Benchmarks run each experiment once (``pedantic(rounds=1)``) at the
``smoke`` scale: the goal is to regenerate every paper artefact's rows
end-to-end and time the full pipeline, not to micro-profile training.
Set ``REPRO_BENCH_PRESET=medium`` for paper-shaped numbers (slower).

Each run leaves two artefacts next to this file:

* ``last_run_report.txt`` — the rendered paper artefacts (human-readable);
* ``BENCH_<preset>.json`` — a ledger of machine-readable per-test
  timings (from pytest-benchmark's stats) plus any custom metrics
  benches record via :func:`record_metric`.  A run merges its entries
  into the existing file by test name, so running one bench file keeps
  every other bench's last figures.  Each entry is stamped with the git
  commit it ran at (``-dirty`` when the tree had uncommitted changes)
  and its timestamp, so the perf trajectory across commits can be
  diffed and plotted.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

import pytest

#: Preset used by the experiment benchmarks (override via environment).
BENCH_PRESET = os.environ.get("REPRO_BENCH_PRESET", "smoke")

#: Seed shared by every benchmark.
BENCH_SEED = 2018


@pytest.fixture(scope="session")
def bench_preset() -> str:
    return BENCH_PRESET


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return it."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


#: Rendered tables/series from each bench land here (pytest's fd-level
#: capture discards stdout of passing tests, but the whole point of the
#: harness is to show the rows each paper artefact reports).
REPORT_PATH = Path(__file__).with_name("last_run_report.txt")

#: Machine-readable sibling of the report, keyed by test name.
JSON_PATH = Path(__file__).with_name(f"BENCH_{BENCH_PRESET}.json")

#: test name -> custom metrics recorded via :func:`record_metric`.
_CUSTOM_METRICS: dict[str, dict] = {}


def record_metric(test_name: str, **metrics) -> None:
    """Attach custom numbers (throughput, speedup, …) to one test's JSON entry."""
    _CUSTOM_METRICS.setdefault(test_name, {}).update(metrics)


def _stats_of(bench) -> dict:
    """Timing stats from one pytest-benchmark entry (a Metadata whose
    ``stats`` attribute is the Stats accumulator), defensively."""
    out: dict = {}
    stats = getattr(bench, "stats", None)
    for field in ("min", "max", "mean", "stddev", "rounds"):
        value = getattr(stats, field, None)
        if isinstance(value, (int, float)):
            out[field if field == "rounds" else f"{field}_s"] = value
    return out


def _git_revision() -> str | None:
    """The checkout's commit (``-dirty`` if modified), or None outside git."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=Path(__file__).parent, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _merge_ledger(path: Path, tests: dict[str, dict]) -> dict:
    """The ledger at ``path`` with ``tests`` replacing same-named entries."""
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    merged = dict(ledger.get("tests", {}))
    merged.update(tests)
    return {
        "preset": BENCH_PRESET,
        "seed": BENCH_SEED,
        "timestamp": time.time(),
        "tests": merged,
    }


@pytest.fixture(scope="session", autouse=True)
def _fresh_report(request):
    REPORT_PATH.write_text(
        f"# Rendered paper artefacts from the last benchmark run "
        f"(preset={BENCH_PRESET}, seed={BENCH_SEED})\n"
    )
    yield
    tests: dict[str, dict] = {}
    session = getattr(request.config, "_benchmarksession", None)
    for bench in getattr(session, "benchmarks", []) or []:
        name = getattr(bench, "name", None)
        if name:
            tests[name] = _stats_of(bench)
    for name, metrics in _CUSTOM_METRICS.items():
        tests.setdefault(name, {}).update(metrics)
    if not tests:
        return
    stamp = {"git_sha": _git_revision(), "timestamp": time.time()}
    for entry in tests.values():
        entry.update(stamp)
    ledger = _merge_ledger(JSON_PATH, tests)
    JSON_PATH.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")


def report(text: str) -> None:
    """Record a rendered artefact (also printed for ``pytest -s`` runs)."""
    with REPORT_PATH.open("a") as stream:
        stream.write("\n" + text + "\n")
    print("\n" + text)
