#!/usr/bin/env python
"""CI smoke test for :mod:`repro.network` (run by ``tools/ci.sh``).

Four checks, all in seconds:

1. **Corridor invariant** — a :func:`from_corridor` graph run through
   :class:`NetworkSimulator` must reproduce :class:`TrafficSimulator`
   output bitwise (both run the one engine; a plain corridor graph
   runs no queue spillback).
2. **Determinism** — building the same grid city twice gives identical
   graphs (BFS-ordered), and two scenario runs at one seed give
   identical speed fields.
3. **Sharding** — graph-aware partition starts are valid ShardMap
   inputs, never sever more edges than the balanced layout, and keep
   every routing property (ownership partition, contiguous halos).
4. **Experiment + obs** — the ``network`` experiment runs end to end at
   smoke scale under a recorder and its ``network_*`` events validate
   against the schema.

Run directly::

    PYTHONPATH=src python tools/network_smoke.py
"""

from __future__ import annotations

import sys
import tempfile

import numpy as np

from repro.experiments.registry import run_experiment
from repro.fleet.router import ShardMap
from repro.network import (
    NetworkSimulator,
    Scenario,
    WeatherFront,
    crossing_edges,
    from_corridor,
    grid_city,
    partition_starts,
)
from repro.obs import RunRecorder, use_recorder, validate_run_dir
from repro.traffic.simulator import simulate
from repro.traffic.types import Corridor, SimulationConfig


def check_corridor_invariant() -> None:
    config = SimulationConfig(num_days=2)
    corridor = Corridor.gyeongbu(rng=np.random.default_rng(config.seed))
    graph = from_corridor(corridor)
    assert graph.is_bfs_ordered(), "from_corridor graph must be BFS-ordered"
    reference = simulate(config, corridor)
    network = NetworkSimulator(graph, config).run()
    assert np.array_equal(reference.speeds, network.speeds), (
        "from_corridor network run must reproduce the corridor simulator bitwise"
    )
    assert np.array_equal(reference.events, network.events)
    print("network_smoke: corridor bitwise invariant OK")


def check_determinism() -> None:
    first, second = grid_city(4, 4, seed=7), grid_city(4, 4, seed=7)
    assert first.segments == second.segments and first.tails == second.tails
    assert first.is_bfs_ordered(), "grid_city must be BFS-ordered"
    config = SimulationConfig(num_days=1)
    scenario = Scenario("front", (WeatherFront(start_step=60, duration_steps=48),))
    runs = [
        NetworkSimulator(first, config, scenario=scenario).run().speeds for _ in range(2)
    ]
    assert np.array_equal(runs[0], runs[1]), "scenario runs must be deterministic"
    print("network_smoke: graph + scenario determinism OK")


def check_sharding() -> None:
    graph = grid_city(6, 6, seed=0)
    for shards in (2, 3, 4):
        starts = partition_starts(graph, shards)
        balanced = tuple((i * len(graph)) // shards for i in range(shards))
        assert crossing_edges(graph, starts) <= crossing_edges(graph, balanced)
        shard_map = ShardMap(len(graph), shards, starts=starts)
        covered = [shard_map.shard_of(seg) for seg in range(len(graph))]
        assert covered == sorted(covered), "ownership must stay contiguous"
        ranges = [shard_map.owned_range(k) for k in range(shards)]
        assert ranges[0][0] == 0 and ranges[-1][1] == len(graph)
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo, "owned ranges must tile the segment space"
    print("network_smoke: graph-aware sharding OK")


def check_experiment_and_obs() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        with RunRecorder(tmp) as recorder, use_recorder(recorder):
            result = run_experiment("network", preset="smoke")
        errors = validate_run_dir(recorder.directory)
        assert not errors, f"network_* events failed schema validation: {errors}"
    repeat = run_experiment("network", preset="smoke")
    assert result.fingerprint == repeat.fingerprint, (
        "network experiment must be bitwise-reproducible at a fixed preset/seed"
    )
    print(
        f"network_smoke: experiment OK ({result.num_segments} segments, "
        f"delay delta {result.deltas['total_delay_delta_vh']:+,.0f} veh-h, "
        f"fingerprint {result.fingerprint[:12]})"
    )


def main() -> int:
    check_corridor_invariant()
    check_determinism()
    check_sharding()
    check_experiment_and_obs()
    print("network_smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
