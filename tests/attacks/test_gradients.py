"""Input-space gradients: finite-difference certification per body."""

import numpy as np
import pytest

from repro import nn
from repro.attacks import input_gradient
from repro.core.config import table1_spec
from repro.core.predictors import build_predictor
from repro.data import FeatureConfig

#: Small geometry so the central-difference sweep stays cheap.
SMALL = FeatureConfig(alpha=4, m=1)


def small_predictor(kind: str):
    spec = table1_spec(kind, width_factor=0.05)
    return build_predictor(kind, SMALL, spec=spec, rng=np.random.default_rng(7))


def small_inputs(batch: int = 2, seed: int = 11):
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.1, 0.9, size=(batch, SMALL.image_rows, SMALL.alpha))
    day_types = np.zeros((batch, 4))
    day_types[:, 0] = 1.0
    targets = rng.uniform(0.2, 0.8, size=batch)
    return images, day_types, targets


@pytest.mark.parametrize("kind", ["F", "C", "L", "H"])
class TestFiniteDifference:
    def test_loss_gradient_matches_central_difference(self, kind):
        predictor = small_predictor(kind)
        images, day_types, targets = small_inputs()
        images_t = nn.Tensor(images, requires_grad=True)
        day_t = nn.Tensor(day_types)
        targets_t = nn.Tensor(targets)

        def objective():
            flat = nn.ops.concat([images_t.reshape(images.shape[0], -1), day_t], axis=1)
            residual = predictor.forward(images_t, day_t, flat) - targets_t
            return (residual * residual).sum()

        nn.check_gradients(objective, [images_t], eps=1e-5, atol=1e-4, rtol=1e-3)

    def test_input_gradient_agrees_with_numerical(self, kind):
        predictor = small_predictor(kind)
        images, day_types, targets = small_inputs(seed=23)
        result = input_gradient(predictor, images, day_types, targets)

        images_t = nn.Tensor(images, requires_grad=True)
        day_t = nn.Tensor(day_types)
        targets_t = nn.Tensor(targets)

        def objective():
            flat = nn.ops.concat([images_t.reshape(images.shape[0], -1), day_t], axis=1)
            residual = predictor.forward(images_t, day_t, flat) - targets_t
            return (residual * residual).sum()

        numeric = nn.numerical_gradient(objective, images_t, eps=1e-5)
        assert result.grad_images.shape == images.shape
        assert np.allclose(result.grad_images, numeric, atol=1e-4, rtol=1e-3)


class TestInputGradient:
    def test_raises_inside_no_grad(self):
        predictor = small_predictor("F")
        images, day_types, targets = small_inputs()
        with nn.no_grad():
            with pytest.raises(RuntimeError, match="no_grad"):
                input_gradient(predictor, images, day_types, targets)

    def test_without_targets_differentiates_prediction_sum(self):
        predictor = small_predictor("F")
        images, day_types, _ = small_inputs()
        result = input_gradient(predictor, images, day_types)
        assert result.grad_images.shape == images.shape
        assert np.isclose(result.loss, float(result.predictions.sum()))

    def test_per_sample_gradients_batch_independent(self):
        # Sum (not mean) objective: sample 0's gradient must not change
        # when more samples join the batch.
        predictor = small_predictor("F")
        images, day_types, targets = small_inputs(batch=3)
        full = input_gradient(predictor, images, day_types, targets)
        solo = input_gradient(predictor, images[:1], day_types[:1], targets[:1])
        assert np.allclose(full.grad_images[0], solo.grad_images[0], atol=1e-12)
