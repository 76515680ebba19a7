"""Tests for incident generation and mask expansion."""

import numpy as np
import pytest

from repro.traffic import Corridor, Incident, SimulationConfig, incident_masks, sample_incidents


def make_incident(**overrides):
    defaults = dict(
        segment=4, start_step=10, duration_steps=6, recovery_steps=4, severity=0.5, kind="accident"
    )
    defaults.update(overrides)
    return Incident(**defaults)


def _corridor(num_segments: int) -> Corridor:
    return Corridor.gyeongbu(num_segments=num_segments)


class TestIncidentValidation:
    def test_valid(self):
        incident = make_incident()
        assert incident.end_step == 16

    @pytest.mark.parametrize(
        "overrides",
        [
            {"severity": 0.0},
            {"severity": 1.5},
            {"duration_steps": 0},
            {"kind": "meteor"},
        ],
    )
    def test_invalid(self, overrides):
        with pytest.raises(ValueError):
            make_incident(**overrides)


class TestSampleIncidents:
    def test_counts_scale_with_rate(self):
        low = SimulationConfig(num_days=30, accident_rate_per_day=0.1, seed=1)
        high = SimulationConfig(num_days=30, accident_rate_per_day=3.0, seed=1)
        rng = np.random.default_rng(0)
        few = sample_incidents(low, 9, rng)
        rng = np.random.default_rng(0)
        many = sample_incidents(high, 9, rng)
        assert len(many) > len(few)

    def test_segments_in_range(self):
        config = SimulationConfig(num_days=20, seed=1)
        incidents = sample_incidents(config, 5, np.random.default_rng(0))
        assert all(0 <= i.segment < 5 for i in incidents)

    def test_construction_overnight(self):
        config = SimulationConfig(num_days=60, construction_rate_per_day=1.0, seed=1)
        incidents = sample_incidents(config, 9, np.random.default_rng(0))
        constructions = [i for i in incidents if i.kind == "construction"]
        assert constructions, "expected at least one construction event"
        steps_per_day = config.steps_per_day
        for event in constructions:
            hour = (event.start_step % steps_per_day) * config.interval_minutes / 60.0
            assert hour >= 22.0

    def test_reproducible(self):
        config = SimulationConfig(num_days=10, seed=1)
        a = sample_incidents(config, 9, np.random.default_rng(3))
        b = sample_incidents(config, 9, np.random.default_rng(3))
        assert a == b


class TestIncidentMasks:
    def test_severity_applied_during_active_phase(self):
        incident = make_incident(segment=2, start_step=5, duration_steps=4, severity=0.4)
        factor, flags = incident_masks(_corridor(5), [incident], 30, upstream_decay=0.5, delay_steps=1)
        np.testing.assert_allclose(factor[2, 5:9], 0.4)

    def test_recovery_ramps_back_to_one(self):
        incident = make_incident(segment=0, start_step=0, duration_steps=2, recovery_steps=4, severity=0.5)
        factor, _ = incident_masks(_corridor(1), [incident], 20, upstream_decay=0.5, delay_steps=1)
        recovery = factor[0, 2:6]
        assert np.all(np.diff(recovery) > 0)
        np.testing.assert_allclose(factor[0, 6:], 1.0)

    def test_flags_only_on_hit_segment_active_phase(self):
        incident = make_incident(segment=3, start_step=5, duration_steps=4)
        _, flags = incident_masks(_corridor(5), [incident], 30, upstream_decay=0.5, delay_steps=1)
        assert flags[3, 5:9].sum() == 4
        assert flags.sum() == 4  # nowhere else

    def test_upstream_propagation_damped_and_delayed(self):
        incident = make_incident(segment=4, start_step=10, duration_steps=6, severity=0.4)
        factor, _ = incident_masks(_corridor(6), [incident], 40, upstream_decay=0.5, delay_steps=2)
        # Upstream neighbour gets a milder factor, starting 2 steps later.
        np.testing.assert_allclose(factor[3, 10:12], 1.0)
        assert 0.4 < factor[3, 12] < 1.0
        # Two segments up: milder still.
        assert factor[2, 14] > factor[3, 12]
        # Downstream untouched.
        np.testing.assert_allclose(factor[5], 1.0)

    def test_overlapping_incidents_take_minimum(self):
        a = make_incident(segment=1, start_step=5, duration_steps=5, severity=0.6)
        b = make_incident(segment=1, start_step=7, duration_steps=5, severity=0.3)
        factor, _ = incident_masks(_corridor(3), [a, b], 30, upstream_decay=0.5, delay_steps=1)
        np.testing.assert_allclose(factor[1, 7:10], 0.3)

    def test_incident_past_end_is_clipped(self):
        incident = make_incident(segment=0, start_step=28, duration_steps=10)
        factor, flags = incident_masks(_corridor(2), [incident], 30, upstream_decay=0.5, delay_steps=1)
        assert factor.shape == (2, 30)
        assert flags[0, 28:].sum() == 2

    def test_no_incidents_identity(self):
        factor, flags = incident_masks(_corridor(4), [], 10, upstream_decay=0.5, delay_steps=1)
        np.testing.assert_allclose(factor, 1.0)
        np.testing.assert_allclose(flags, 0.0)
