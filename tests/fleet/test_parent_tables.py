"""The fleet parent's per-shard forecast tables.

After the replica call that runs a store update's fill, the parent
answers a shard's cached reads at ``beta`` from that update's table and
replays them to the replica ahead of its next message.  Pinned here: the
replicas end in exactly the state of in-process services fed the same
routed batches and the same per-shard reads; a replica killed between
calls is found by the next read of its shard even when the parent would
have answered it; a refused swap leaves every table in place; and each
replica runs on one BLAS thread.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.fleet import ForecastFleet
from repro.obs import RunRecorder, validate_run_dir
from repro.serving import ForecastService, ObservationBatch

from tests.fleet.conftest import observation_at, replay_ticks

WARM_TICKS = 13


def tick(series, step: int) -> ObservationBatch:
    return ObservationBatch.from_observations(
        [observation_at(series, segment, step) for segment in range(series.num_segments)]
    )


def answered_in_parent(fleet) -> float:
    return fleet.telemetry.counter("answered_in_parent").value


def test_replicas_end_as_in_process_services(fleet_checkpoint, tiny_series):
    n = tiny_series.num_segments
    with ForecastFleet(fleet_checkpoint, n, shards=2) as fleet:
        shards = range(fleet.num_shards)
        services = [
            ForecastService.from_checkpoint(
                fleet_checkpoint, n, segment_range=fleet.shard_map.owned_range(shard)
            )
            for shard in shards
        ]
        covering = fleet.shard_map.covering_shards(fleet.features.window_rows(n))
        beta = fleet.features.beta
        rng = np.random.default_rng(11)
        for step in range(WARM_TICKS + 4):
            batch = tick(tiny_series, step)
            fleet.ingest_many(batch)
            for shard, service in zip(shards, services):
                service.ingest_many(batch.take([shard in covering[s] for s in range(n)]))
            if step < WARM_TICKS:
                continue
            for _ in range(12):
                query = rng.integers(0, n, size=rng.integers(1, 6)).tolist()
                horizon = beta + int(rng.random() < 0.15)
                use_cache = bool(rng.random() < 0.85)
                served = fleet.predict_many(query, horizon, use_cache)
                for shard, service in zip(shards, services):
                    owned = [p for p, s in enumerate(query) if fleet.shard_map.shard_of(s) == shard]
                    if owned:
                        expected = service.predict_many([query[p] for p in owned], horizon, use_cache)
                        assert [served[p] for p in owned] == expected
        assert answered_in_parent(fleet) > 0
        for replica, service in zip(fleet.snapshot()["replicas"], services):
            expected = service.snapshot()
            for field in ("hits", "misses", "size"):
                assert replica["cache"][field] == expected["cache"][field], field
            for counter in ("requests", "fill_rows", "fill_served", "fills"):
                assert replica["counters"].get(counter) == expected["counters"].get(counter), counter
            assert replica["windows"] == expected["windows"]


def test_a_read_the_replica_served_is_cached_in_the_table(fleet_checkpoint, tiny_series):
    n = tiny_series.num_segments
    with ForecastFleet(fleet_checkpoint, n, shards=1) as single, ForecastFleet(
        fleet_checkpoint, n, shards=2
    ) as fleet:
        for one in (single, fleet):
            replay_ticks(one, tiny_series, range(WARM_TICKS))
        for call in ([2, 5], [6, 8]):  # 8, a corridor edge, is in no table: the call crosses the pipe
            assert fleet.predict_many(call) == single.predict_many(call)
        answered = answered_in_parent(fleet)
        again = fleet.predict_many([6])
        assert again == single.predict_many([6]) and again[0].from_cache
        assert answered_in_parent(fleet) == answered + 1


def test_a_replica_killed_between_table_reads_is_lost_once(fleet_checkpoint, tiny_series, tmp_path):
    recorder = RunRecorder(tmp_path, manifest={"test": "table-kill"})
    n = tiny_series.num_segments
    with ForecastFleet(fleet_checkpoint, n, shards=2, recorder=recorder) as fleet:
        replay_ticks(fleet, tiny_series, range(WARM_TICKS))
        lost = 1
        lo, hi = fleet.shard_map.owned_range(lost)
        assert all(lo <= s < hi for s in (5, 6)) and not lo <= 2 < hi
        fleet.predict_many([2, 5])  # each replica fills and hands its table back
        fleet.predict_many([6])
        answered = answered_in_parent(fleet)
        assert answered == 1  # segment 6 came from shard 1's table
        fleet.kill_replica(lost)
        for _ in range(2):
            shed = fleet.predict_many([5, 6])  # the table holds both reads
            assert all(f.source == "naive" and "shard 1 lost" in f.degraded_reason for f in shed)
        assert fleet.lost_shards == [lost]
        assert answered_in_parent(fleet) == answered
        assert fleet.predict_many([3])[0].source == "model"  # shard 0 still answers
    recorder.close()
    assert validate_run_dir(tmp_path) == []
    events = [json.loads(line) for line in (tmp_path / "events.jsonl").read_text().splitlines()]
    lost_events = [e for e in events if e["kind"] == "fleet_shard_lost"]
    assert len(lost_events) == 1 and lost_events[0]["shard"] == lost


def test_a_refused_swap_keeps_every_table(fleet_checkpoint, tiny_series, tmp_path):
    torn = tmp_path / "torn"
    shutil.copytree(fleet_checkpoint, torn)
    manifest = json.loads((torn / "manifest.json").read_text())
    manifest["fingerprint"] = "0" * len(manifest["fingerprint"])
    (torn / "manifest.json").write_text(json.dumps(manifest))
    recorder = RunRecorder(tmp_path / "run", manifest={"test": "swap-refused"})
    n = tiny_series.num_segments
    with ForecastFleet(fleet_checkpoint, n, shards=1) as single, ForecastFleet(
        fleet_checkpoint, n, shards=2, recorder=recorder
    ) as fleet:
        for one in (single, fleet):
            replay_ticks(one, tiny_series, range(WARM_TICKS))
        assert fleet.predict_many([2, 5]) == single.predict_many([2, 5])
        with pytest.raises(ValueError, match="fingerprints"):
            fleet.swap_checkpoint(torn)
        assert fleet.telemetry.counter("swap_refused").value == 1
        answered = answered_in_parent(fleet)
        assert fleet.predict_many([3, 6, 5]) == single.predict_many([3, 6, 5])
        assert answered_in_parent(fleet) == answered + 3
    recorder.close()
    assert validate_run_dir(tmp_path / "run") == []
    kinds = [json.loads(line)["kind"] for line in (tmp_path / "run" / "events.jsonl").read_text().splitlines()]
    assert kinds.count("fleet_swap_refused") == 1 and "fleet_swap" not in kinds


def test_replicas_pin_one_blas_thread(fleet_checkpoint, tiny_series):
    with ForecastFleet(fleet_checkpoint, tiny_series.num_segments, shards=2) as fleet:
        for replica in fleet.snapshot()["replicas"]:
            assert replica["blas_threads"] == 1
            assert "blas_threads_unpinned" not in replica["counters"]
