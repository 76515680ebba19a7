"""Tests for window/feature extraction and the factor masks."""

import numpy as np
import pytest

from repro.data import OFF_END, FactorMask, FeatureConfig, build_features, fit_scalers


class TestFactorMask:
    def test_defaults_all_on(self):
        mask = FactorMask()
        assert mask.adjacent and mask.event and mask.weather and mask.time
        assert mask.uses_additional

    def test_speed_only(self):
        mask = FactorMask.speed_only()
        assert not mask.uses_additional

    def test_named_configurations(self):
        assert FactorMask.adjacent_only().adjacent
        assert not FactorMask.adjacent_only().time
        assert FactorMask.non_speed_only().time
        assert not FactorMask.non_speed_only().adjacent

    @pytest.mark.parametrize(
        "code,event,weather,time",
        [
            ("S", False, False, False),
            ("SE", True, False, False),
            ("SW", False, True, False),
            ("ST", False, False, True),
            ("SEW", True, True, False),
            ("SET", True, False, True),
            ("SWT", False, True, True),
            ("SEWT", True, True, True),
        ],
    )
    def test_table2_codes(self, code, event, weather, time):
        mask = FactorMask.table2(code)
        assert mask.adjacent  # adjacency always on for Table II
        assert mask.event == event
        assert mask.weather == weather
        assert mask.time == time

    def test_table2_lowercase_accepted(self):
        assert FactorMask.table2("sewt").time

    def test_table2_invalid(self):
        with pytest.raises(ValueError):
            FactorMask.table2("EWT")
        with pytest.raises(ValueError):
            FactorMask.table2("SX")


class TestFeatureConfig:
    def test_paper_defaults(self):
        config = FeatureConfig()
        assert config.alpha == 12
        assert config.beta == 1
        assert config.m == 2
        assert config.num_roads == 5
        assert config.image_rows == 9
        assert config.flat_dim == 9 * 12 + 4
        assert config.condition_dim == 8 * 12 + 4

    @pytest.mark.parametrize("overrides", [{"alpha": 1}, {"beta": 0}, {"m": -1}])
    def test_invalid(self, overrides):
        with pytest.raises(ValueError):
            FeatureConfig(**overrides)

    def test_with_mask(self):
        config = FeatureConfig().with_mask(FactorMask.speed_only())
        assert not config.mask.adjacent
        assert config.alpha == 12

    def test_window_rows_order(self):
        rows = FeatureConfig(m=2).window_rows(9)
        assert rows.shape == (9, 5)
        assert rows[4].tolist() == [2, 3, 4, 5, 6]
        assert rows[0].tolist() == [OFF_END, OFF_END, 0, 1, 2]
        assert rows[8].tolist() == [6, 7, 8, OFF_END, OFF_END]

    def test_window_rows_zero_m(self):
        assert FeatureConfig(m=0).window_rows(9)[:, 0].tolist() == list(range(9))


class TestBuildFeatures:
    def test_window_count(self, tiny_series):
        config = FeatureConfig()
        features = build_features(tiny_series, config)
        expected = tiny_series.num_steps - config.alpha - config.beta + 1
        assert features.num_windows == expected
        assert features.images.shape == (expected, 9, 12)

    def test_target_alignment(self, tiny_series):
        """Window i's target is the target-road speed at step i+alpha-1+beta."""
        config = FeatureConfig()
        features = build_features(tiny_series, config)
        i = 100
        expected = tiny_series.target_speeds()[i + config.alpha - 1 + config.beta]
        assert features.targets_kmh[i] == pytest.approx(expected)

    def test_last_input_alignment(self, tiny_series):
        config = FeatureConfig()
        features = build_features(tiny_series, config)
        i = 50
        expected = tiny_series.target_speeds()[i + config.alpha - 1]
        assert features.last_input_kmh[i] == pytest.approx(expected)

    def test_speed_matrix_middle_row_is_target_road(self, tiny_series):
        config = FeatureConfig()
        features = build_features(tiny_series, config)
        i = 10
        window = features.images[i, config.m, :]
        kmh = features.scalers.speed.inverse_transform(window)
        expected = tiny_series.target_speeds()[i : i + config.alpha]
        np.testing.assert_allclose(kmh, expected, rtol=1e-10)

    def test_adjacent_rows_follow_corridor_order(self, tiny_series):
        config = FeatureConfig()
        features = build_features(tiny_series, config)
        indices = config.window_rows(tiny_series.num_segments)[tiny_series.corridor.target_index]
        i = 10
        for row, segment in enumerate(indices):
            kmh = features.scalers.speed.inverse_transform(features.images[i, row, :])
            np.testing.assert_allclose(kmh, tiny_series.speeds[segment, i : i + 12], rtol=1e-10)

    def test_scaled_targets_roundtrip(self, tiny_series):
        features = build_features(tiny_series, FeatureConfig())
        recovered = features.scalers.speed.inverse_transform(features.targets)
        np.testing.assert_allclose(recovered, features.targets_kmh, rtol=1e-10)

    def test_speed_only_zeroes_everything_but_target_row(self, tiny_series):
        config = FeatureConfig(mask=FactorMask.speed_only())
        features = build_features(tiny_series, config)
        images = features.images
        assert np.all(images[:, :2, :] == 0.0)
        assert np.all(images[:, 3:, :] == 0.0)
        assert np.any(images[:, 2, :] != 0.0)
        assert np.all(features.day_types == 0.0)

    def test_non_speed_only_zeroes_adjacent(self, tiny_series):
        config = FeatureConfig(mask=FactorMask.non_speed_only())
        features = build_features(tiny_series, config)
        assert np.all(features.images[:, 0:2, :] == 0.0)
        assert np.all(features.images[:, 3:5, :] == 0.0)
        assert np.any(features.images[:, 5:, :] != 0.0)  # non-speed rows live

    def test_event_mask_zeroes_event_row(self, tiny_series):
        config = FeatureConfig(mask=FactorMask(adjacent=True, event=False, weather=True, time=True))
        features = build_features(tiny_series, config)
        assert np.all(features.images[:, 5, :] == 0.0)

    def test_all_masks_share_shapes(self, tiny_series):
        """The Q2 rule: input size is fixed; ablations only zero-fill."""
        shapes = set()
        for mask in (FactorMask.speed_only(), FactorMask.both(), FactorMask.table2("SW")):
            features = build_features(tiny_series, FeatureConfig(mask=mask))
            shapes.add(features.images.shape)
        assert len(shapes) == 1

    def test_flat_and_condition_dimensions(self, tiny_dataset):
        config = tiny_dataset.config
        flat = tiny_dataset.features.flat(np.arange(5))
        condition = tiny_dataset.features.condition(np.arange(5))
        assert flat.shape == (5, config.flat_dim)
        assert condition.shape == (5, config.condition_dim)

    def test_condition_excludes_target_road(self, tiny_series):
        """E is the *additional* data: zeroing adjacency empties its speeds."""
        config = FeatureConfig(
            mask=FactorMask(adjacent=False, event=False, weather=False, time=False)
        )
        features = build_features(tiny_series, config)
        condition = features.condition(np.arange(10))
        np.testing.assert_allclose(condition, 0.0)

    def test_image_sequences_transposed(self, tiny_dataset):
        seqs = tiny_dataset.features.image_sequences(np.arange(3))
        config = tiny_dataset.config
        assert seqs.shape == (3, config.alpha, config.image_rows)
        np.testing.assert_allclose(seqs[0].T, tiny_dataset.features.images[0])

    def test_off_end_target_rejected(self, tiny_series):
        with pytest.raises(ValueError, match="no 2 neighbours on both sides of segment 1"):
            build_features(tiny_series, FeatureConfig(), targets=[1])

    def test_series_too_short_raises(self, tiny_series):
        short = tiny_series.slice_steps(0, 10)
        with pytest.raises(ValueError, match="too short"):
            build_features(short, FeatureConfig())

    def test_fit_scalers_on_subset(self, tiny_series):
        train_steps = np.arange(0, 500)
        scalers = fit_scalers(tiny_series, train_steps)
        full = fit_scalers(tiny_series)
        assert scalers.speed.maximum <= full.speed.maximum
