"""Tests for :class:`repro.fleet.ForecastFleet`.

The two load-bearing properties are pinned here: ``predict_many`` is
bitwise-identical across shard counts {1, 2, 4} on a fixed seed, and a
replica crash degrades its shard to naive persistence (observable as a
schema-valid ``fleet_shard_lost`` event) instead of failing the fleet.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.attacks.defense import GateConfig
from repro.fleet import FleetClosedError, FleetError, ForecastFleet
from repro.obs import RunRecorder, validate_run_dir
from repro.serving import (
    IncompleteWindowError,
    InvalidObservationError,
    Observation,
    StaleObservationError,
    StreamGapError,
    UnknownSegmentError,
)

from tests.fleet.conftest import observation_at, replay_ticks

WARM_TICKS = 15


@pytest.fixture(scope="module")
def warm_trio(fleet_checkpoint, tiny_series):
    """Fleets with shards 1, 2 and 4, all warmed with the same stream."""
    fleets = [
        ForecastFleet(fleet_checkpoint, tiny_series.num_segments, shards=shards)
        for shards in (1, 2, 4)
    ]
    for fleet in fleets:
        replay_ticks(fleet, tiny_series, range(WARM_TICKS))
    yield fleets
    for fleet in fleets:
        fleet.close()


class TestShardCountInvariance:
    def test_predict_many_bitwise_identical_across_shard_counts(self, warm_trio):
        single, two, four = warm_trio
        # Mixed batch: every segment, shuffled, with duplicates — covers
        # model, naive-degraded (edges) and within-batch duplicate paths.
        query = [4, 0, 7, 2, 2, 8, 5, 1, 3, 6, 4]
        reference = single.predict_many(query)
        assert two.predict_many(query) == reference
        assert four.predict_many(query) == reference
        assert {f.source for f in reference} == {"model", "naive"}

    def test_cache_hits_are_also_invariant(self, warm_trio):
        single, two, four = warm_trio
        query = list(range(single.num_segments))
        single.predict_many(query)
        # Second identical call: cache serves it in every layout.
        reference = single.predict_many(query)
        assert any(f.from_cache for f in reference)
        for fleet in (two, four):
            fleet.predict_many(query)
            assert fleet.predict_many(query) == reference

    def test_request_order_is_preserved(self, warm_trio):
        for fleet in warm_trio:
            query = [8, 3, 5, 5, 0, 6, 1]
            results = fleet.predict_many(query)
            assert [f.segment_id for f in results] == query

    def test_ingest_then_predict_stays_invariant_as_stream_advances(
        self, warm_trio, tiny_series
    ):
        single, two, four = warm_trio
        for fleet in warm_trio:
            replay_ticks(fleet, tiny_series, range(WARM_TICKS, WARM_TICKS + 3))
        query = list(range(tiny_series.num_segments))
        reference = single.predict_many(query)
        assert two.predict_many(query) == reference
        assert four.predict_many(query) == reference

    def test_reset_reaches_every_shard_that_reads_the_segment(self, warm_trio):
        # Segment 4 opens shard 1 of two, and segment 3's window (1..5)
        # reads it from shard 0: the reset must reach both replicas.
        for fleet in warm_trio:
            fleet.reset_segment(4)
        query = [1, 2, 3, 5, 6, 7]
        reference = warm_trio[0].predict_many(query)
        assert reference[query.index(3)].source == "naive"
        for fleet in warm_trio[1:]:
            assert fleet.predict_many(query) == reference


class TestFailureDegradation:
    def test_replica_crash_sheds_to_naive_with_event(
        self, fleet_checkpoint, tiny_series, tmp_path
    ):
        recorder = RunRecorder(tmp_path, manifest={"test": "fleet-crash"})
        with ForecastFleet(
            fleet_checkpoint, tiny_series.num_segments, shards=2, recorder=recorder
        ) as fleet:
            replay_ticks(fleet, tiny_series, range(WARM_TICKS))
            query = list(range(tiny_series.num_segments))
            healthy = fleet.predict_many(query, use_cache=False)
            lost_shard = 1
            lo, hi = fleet.shard_map.owned_range(lost_shard)

            fleet.kill_replica(lost_shard)
            results = fleet.predict_many(query, use_cache=False)

            assert fleet.lost_shards == [lost_shard]
            for segment, forecast in zip(query, results):
                if lo <= segment < hi:
                    assert forecast.degraded and forecast.source == "naive"
                    assert "load shed" in forecast.degraded_reason
                    assert "shard 1 lost" in forecast.degraded_reason
                    # Shed persistence answers from the parent's own
                    # bookkeeping: the segment's last observed speed.
                    assert forecast.speed_kmh == float(
                        tiny_series.speeds[segment, WARM_TICKS - 1]
                    )
                else:
                    # The surviving shard still answers at full quality.
                    assert forecast == healthy[segment]
            snap = fleet.snapshot()
            assert snap["lost_shards"] == [lost_shard]
            assert snap["replicas"][lost_shard] is None
            assert snap["telemetry"]["counters"]["shed_shard_lost"] > 0
        recorder.close()

        assert validate_run_dir(tmp_path) == []
        kinds = [
            json.loads(line)["kind"]
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        assert kinds.count("fleet_shard_lost") == 1
        assert "fleet_shed" in kinds
        lost = next(
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
            if json.loads(line)["kind"] == "fleet_shard_lost"
        )
        assert lost["shard"] == lost_shard
        assert lost["method"] == "predict_batch"

    def test_kill_replica_rejected_on_process_free_fleet(
        self, fleet_checkpoint, tiny_series
    ):
        with ForecastFleet(fleet_checkpoint, tiny_series.num_segments) as fleet:
            with pytest.raises(FleetError, match="process-free"):
                fleet.kill_replica(0)


class TestAdmissionPath:
    def test_submit_sheds_beyond_queue_bound_then_drain_serves(
        self, fleet_checkpoint, tiny_series, tmp_path
    ):
        recorder = RunRecorder(tmp_path, manifest={"test": "fleet-admission"})
        with ForecastFleet(
            fleet_checkpoint,
            tiny_series.num_segments,
            shards=1,
            max_queue_per_shard=2,
            recorder=recorder,
        ) as fleet:
            replay_ticks(fleet, tiny_series, range(WARM_TICKS))
            tickets = fleet.submit([4, 4, 4, 4, 4])
            assert [t.shed for t in tickets] == [False, False, True, True, True]
            for ticket in tickets[2:]:
                assert ticket.done and ticket.forecast.degraded
                assert "queue full" in ticket.forecast.degraded_reason
            resolved = fleet.drain()
            assert len(resolved) == 2
            assert all(t.done and not t.shed for t in tickets[:2])
            assert all(t.forecast.source == "model" for t in tickets[:2])
            assert fleet.drain() == []
            counters = fleet.telemetry.snapshot()["counters"]
            assert counters["shed_queue_full"] == 3
            assert counters["served_requests"] == 2
        recorder.close()
        assert validate_run_dir(tmp_path) == []
        kinds = [
            json.loads(line)["kind"]
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        assert "fleet_shed" in kinds and "fleet_drain" in kinds

    def test_submitted_tickets_carry_latency_stamps(
        self, fleet_checkpoint, tiny_series, fake_clock
    ):
        with ForecastFleet(
            fleet_checkpoint, tiny_series.num_segments, clock=fake_clock
        ) as fleet:
            replay_ticks(fleet, tiny_series, range(WARM_TICKS))
            tickets = fleet.submit([4], arrival_s=fake_clock())
            fake_clock.advance(0.25)
            fleet.drain()
            assert tickets[0].completed_s - tickets[0].arrival_s == pytest.approx(0.25)


class TestStreamContract:
    def test_cold_segment_raises_incomplete_window(
        self, fleet_checkpoint, tiny_series
    ):
        for shards in (1, 2):
            with ForecastFleet(
                fleet_checkpoint, tiny_series.num_segments, shards=shards
            ) as fleet:
                with pytest.raises(IncompleteWindowError, match="no observations"):
                    fleet.predict_many([4])

    def test_stale_and_gapped_batches_rejected_before_any_mutation(
        self, fleet_checkpoint, tiny_series
    ):
        with ForecastFleet(fleet_checkpoint, tiny_series.num_segments) as fleet:
            replay_ticks(fleet, tiny_series, range(WARM_TICKS))
            stale = observation_at(tiny_series, 4, WARM_TICKS - 1)
            with pytest.raises(StaleObservationError, match="out of order"):
                fleet.ingest_many([stale])
            gapped = observation_at(tiny_series, 4, WARM_TICKS + 5)
            with pytest.raises(StreamGapError, match="skipped steps"):
                fleet.ingest_many([gapped])
            with pytest.raises(UnknownSegmentError, match="outside corridor"):
                fleet.ingest(Observation(99, WARM_TICKS, 80.0))
            # The rejected batches mutated nothing: the stream resumes
            # exactly where it left off.
            replay_ticks(fleet, tiny_series, [WARM_TICKS])
            assert fleet.predict_many([4])[0].source == "model"

    def test_invalid_readings_rejected_before_any_mutation(self, fleet_checkpoint, tiny_series):
        answers = []
        for shards in (1, 2):
            with ForecastFleet(fleet_checkpoint, tiny_series.num_segments, shards=shards) as fleet:
                replay_ticks(fleet, tiny_series, range(WARM_TICKS))
                batch = [
                    observation_at(tiny_series, s, WARM_TICKS) for s in range(tiny_series.num_segments)
                ]
                batch[-1] = dataclasses.replace(batch[-1], speed_kmh=float("nan"))
                with pytest.raises(InvalidObservationError, match="speed_kmh=nan"):
                    fleet.ingest_many(batch)
                replay_ticks(fleet, tiny_series, [WARM_TICKS])
                answers.append(fleet.predict_many(list(range(tiny_series.num_segments))))
        assert answers[0] == answers[1]
        assert all(f.speed_kmh == f.speed_kmh for f in answers[0])  # no NaN served

    def test_rejected_batch_is_an_event_and_a_counter(self, fleet_checkpoint, tiny_series, tmp_path):
        recorder = RunRecorder(tmp_path, manifest={"test": "fleet-ingest-rejected"})
        with ForecastFleet(fleet_checkpoint, tiny_series.num_segments, recorder=recorder) as fleet:
            replay_ticks(fleet, tiny_series, range(2))
            batch = [observation_at(tiny_series, s, 2) for s in range(tiny_series.num_segments)]
            batch[5] = observation_at(tiny_series, 5, 4)
            with pytest.raises(StreamGapError) as raised:
                fleet.ingest_many(batch)
            assert fleet.telemetry.counter("ingest_rejected").value == 1
            assert fleet.telemetry.counter("observations").value == 2 * tiny_series.num_segments
        recorder.close()
        assert validate_run_dir(tmp_path) == []
        events = [json.loads(line) for line in (tmp_path / "events.jsonl").read_text().splitlines()]
        rejected = [e for e in events if e["kind"] == "fleet_ingest_rejected"]
        assert len(rejected) == 1
        assert rejected[0]["reason"] == str(raised.value) and rejected[0]["count"] == len(batch)

    def test_closed_fleet_refuses_cleanly(self, fleet_checkpoint, tiny_series):
        fleet = ForecastFleet(fleet_checkpoint, tiny_series.num_segments)
        fleet.close()
        fleet.close()  # idempotent
        with pytest.raises(FleetClosedError):
            fleet.predict_many([4])
        with pytest.raises(FleetClosedError):
            fleet.ingest(Observation(0, 0, 80.0))

    def test_bad_horizon_rejected(self, fleet_checkpoint, tiny_series):
        with ForecastFleet(fleet_checkpoint, tiny_series.num_segments) as fleet:
            replay_ticks(fleet, tiny_series, range(2))
            with pytest.raises(ValueError, match="horizon"):
                fleet.predict_many([4], horizon_steps=0)


class TestSnapshotAggregation:
    def test_snapshot_aggregates_replica_ranges_and_gate_counts(
        self, fleet_checkpoint, tiny_series
    ):
        with ForecastFleet(
            fleet_checkpoint,
            tiny_series.num_segments,
            shards=2,
            gate_config=GateConfig(max_jump_kmh=15.0),
        ) as fleet:
            replay_ticks(fleet, tiny_series, range(3))
            snap = fleet.snapshot()
            assert snap["shards"] == 2 and snap["lost_shards"] == []
            ranges = [tuple(r["segment_range"]) for r in snap["replicas"]]
            assert ranges == [
                fleet.shard_map.owned_range(0),
                fleet.shard_map.owned_range(1),
            ]
            assert snap["gate_quarantined_total"] == 0

            # An implausible jump quarantines its segment inside one
            # replica; the fleet-level aggregate surfaces it.
            previous = float(tiny_series.speeds[4, 2])
            fleet.ingest_many(
                [
                    observation_at(tiny_series, segment, 3)
                    if segment != 4
                    else Observation(4, 3, previous + 80.0)
                    for segment in range(tiny_series.num_segments)
                ]
            )
            assert fleet.snapshot()["gate_quarantined_total"] >= 1

    def test_replica_snapshots_show_the_forward_path(self, fleet_checkpoint, tiny_series):
        with ForecastFleet(fleet_checkpoint, tiny_series.num_segments, shards=2) as fleet:
            replay_ticks(fleet, tiny_series, range(12))
            queried = [3, tiny_series.num_segments - 4]  # one owned segment per shard
            assert {fleet.shard_map.shard_of(s) for s in queried} == {0, 1}
            for _ in range(5):  # record, validate twice, then replay
                fleet.predict_many(queried, use_cache=False)
            for replica in fleet.snapshot()["replicas"]:
                forward = replica["forward"]
                assert forward["path"] == "replay" and forward["tape"] == "trusted"
                assert forward["replay"] == 2 and forward["tape_nbytes"] > 0
                assert replica["counters"].get("forward_tape_rejected", 0) == 0

    def test_replica_snapshots_show_the_fill(self, fleet_checkpoint, tiny_series):
        with ForecastFleet(fleet_checkpoint, tiny_series.num_segments, shards=2) as fleet:
            replay_ticks(fleet, tiny_series, range(12))
            asked = [2, tiny_series.num_segments - 3]  # one servable segment per shard
            assert {fleet.shard_map.shard_of(s) for s in asked} == {0, 1}
            fleet.predict_many(asked)  # each replica fills its other servable segments
            fleet.predict_many([3, 4])  # ...and serves these from those fills
            for replica in fleet.snapshot()["replicas"]:
                fill = replica["fill"]
                assert fill["rows"] > 0 and fill["served"] == 1
                assert fill["served_ratio"] == fill["served"] / fill["rows"]

    def test_local_fleet_snapshot_has_one_full_range_replica(
        self, fleet_checkpoint, tiny_series
    ):
        with ForecastFleet(fleet_checkpoint, tiny_series.num_segments) as fleet:
            replay_ticks(fleet, tiny_series, range(2))
            snap = fleet.snapshot()
            assert len(snap["replicas"]) == 1
            assert snap["replicas"][0]["segment_range"] == [
                0,
                tiny_series.num_segments,
            ]
            assert snap["replicas"][0]["gate_quarantined_count"] == 0
