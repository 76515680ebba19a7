"""Tests for the four predictor architectures."""

import numpy as np
import pytest

from repro.core import build_predictor, table1_spec
from repro.core.predictors import CNNPredictor, FCPredictor, HybridPredictor, LSTMPredictor
from repro.data import FeatureConfig

SMALL = 0.05  # width factor keeping tests fast


@pytest.fixture(scope="module")
def features():
    return FeatureConfig()


def small_predictor(kind, features, seed=0):
    return build_predictor(
        kind, features, spec=table1_spec(kind, SMALL), rng=np.random.default_rng(seed)
    )


def random_inputs(features, batch=4, seed=1):
    rng = np.random.default_rng(seed)
    images = rng.random((batch, features.image_rows, features.alpha))
    day_types = (rng.random((batch, 4)) > 0.5).astype(float)
    flat = np.concatenate(
        [images.reshape(batch, features.image_rows * features.alpha), day_types], axis=1
    )
    return images, day_types, flat


class TestRegistry:
    def test_kinds(self, features):
        assert isinstance(small_predictor("F", features), FCPredictor)
        assert isinstance(small_predictor("L", features), LSTMPredictor)
        assert isinstance(small_predictor("C", features), CNNPredictor)
        assert isinstance(small_predictor("H", features), HybridPredictor)

    def test_kind_attribute(self, features):
        for kind in "FLCH":
            assert small_predictor(kind, features).kind == kind

    def test_unknown_kind(self, features):
        with pytest.raises(ValueError, match="unknown predictor kind"):
            build_predictor("X", features)


class TestForwardShapes:
    @pytest.mark.parametrize("kind", ["F", "L", "C", "H"])
    def test_output_is_flat_batch(self, features, kind):
        predictor = small_predictor(kind, features)
        images, day_types, flat = random_inputs(features)
        out = predictor.predict_arrays(images, day_types, flat)
        assert out.shape == (4,)

    @pytest.mark.parametrize("kind", ["F", "L", "C", "H"])
    def test_predict_batches_match_direct(self, features, kind):
        predictor = small_predictor(kind, features)
        images, day_types, flat = random_inputs(features, batch=10)
        direct = predictor.predict_arrays(images, day_types, flat).data
        batched = predictor.predict(images, day_types, flat, batch_size=3)
        np.testing.assert_allclose(direct, batched, rtol=1e-10)

    def test_predict_empty(self, features):
        predictor = small_predictor("F", features)
        images, day_types, flat = random_inputs(features, batch=0)
        assert predictor.predict(images, day_types, flat).shape == (0,)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["F", "L", "C", "H"])
    def test_same_seed_same_output(self, features, kind):
        a = small_predictor(kind, features, seed=7)
        b = small_predictor(kind, features, seed=7)
        images, day_types, flat = random_inputs(features)
        np.testing.assert_allclose(
            a.predict_arrays(images, day_types, flat).data,
            b.predict_arrays(images, day_types, flat).data,
        )

    def test_different_seed_differs(self, features):
        a = small_predictor("F", features, seed=1)
        b = small_predictor("F", features, seed=2)
        images, day_types, flat = random_inputs(features)
        assert not np.allclose(
            a.predict_arrays(images, day_types, flat).data,
            b.predict_arrays(images, day_types, flat).data,
        )


class TestGradientsFlow:
    @pytest.mark.parametrize("kind", ["F", "L", "C", "H"])
    def test_all_parameters_receive_gradients(self, features, kind):
        predictor = small_predictor(kind, features)
        images, day_types, flat = random_inputs(features)
        out = predictor.predict_arrays(images, day_types, flat)
        (out * out).sum().backward()
        for name, param in predictor.named_parameters():
            assert param.grad is not None, f"{kind}: no gradient for {name}"
            assert np.all(np.isfinite(param.grad)), f"{kind}: non-finite gradient for {name}"


class TestArchitectureDetails:
    def test_fc_depth_matches_table1(self, features):
        predictor = FCPredictor(features, spec=table1_spec("F"), rng=np.random.default_rng(0))
        from repro.nn import Linear

        linears = [m for m in predictor.net if isinstance(m, Linear)]
        assert [l.out_features for l in linears] == [512, 128, 256, 64, 1]
        assert linears[0].in_features == features.flat_dim

    def test_lstm_widths_match_table1(self, features):
        predictor = LSTMPredictor(features, spec=table1_spec("L"), rng=np.random.default_rng(0))
        assert predictor.lstm.hidden_sizes == [512, 512]

    def test_cnn_channels_match_table1(self, features):
        predictor = CNNPredictor(features, spec=table1_spec("C"), rng=np.random.default_rng(0))
        from repro.nn import Conv2d

        convs = [m for m in predictor.trunk.layers if isinstance(m, Conv2d)]
        assert [c.out_channels for c in convs] == [128, 32, 64]
        assert [c.kernel_size for c in convs] == [(3, 3), (1, 1), (3, 3)]

    def test_conv_preserves_image_shape(self, features):
        predictor = small_predictor("C", features)
        from repro.nn import Conv2d

        for conv in predictor.trunk.layers:
            if isinstance(conv, Conv2d):
                assert conv.output_shape(features.image_rows, features.alpha) == (
                    features.image_rows,
                    features.alpha,
                )

    def test_hybrid_has_cnn_and_lstm(self, features):
        predictor = small_predictor("H", features)
        assert hasattr(predictor, "trunk") and hasattr(predictor, "lstm")
