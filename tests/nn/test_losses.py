"""Tests for loss functions."""

import numpy as np
import pytest

from repro import nn


class TestMSELoss:
    def test_value(self):
        loss = nn.MSELoss()(nn.Tensor([1.0, 2.0]), np.array([3.0, 2.0]))
        assert loss.item() == pytest.approx(2.0)

    def test_sum_reduction(self):
        loss = nn.MSELoss(reduction="sum")(nn.Tensor([1.0, 2.0]), np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(5.0)

    def test_none_reduction(self):
        loss = nn.MSELoss(reduction="none")(nn.Tensor([1.0, 2.0]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(loss.data, [1.0, 4.0])

    def test_invalid_reduction(self):
        with pytest.raises(ValueError):
            nn.MSELoss(reduction="bogus")

    def test_gradient(self):
        x = nn.Tensor([3.0], requires_grad=True)
        nn.MSELoss()(x, np.array([1.0])).backward()
        np.testing.assert_allclose(x.grad, [4.0])  # 2 * (3 - 1)

    def test_target_is_detached(self):
        target = nn.Tensor([1.0], requires_grad=True)
        x = nn.Tensor([3.0], requires_grad=True)
        nn.MSELoss()(x, target).backward()
        assert target.grad is None


class TestBCEWithLogitsLoss:
    def test_matches_bce_on_probabilities(self):
        logits = np.array([-1.5, 0.3, 2.0])
        targets = np.array([0.0, 1.0, 1.0])
        with_logits = nn.BCEWithLogitsLoss()(nn.Tensor(logits), targets).item()
        probs = 1.0 / (1.0 + np.exp(-logits))
        plain = -np.mean(targets * np.log(probs) + (1.0 - targets) * np.log(1.0 - probs))
        assert with_logits == pytest.approx(plain, rel=1e-6)

    def test_stable_at_extreme_logits(self):
        loss = nn.BCEWithLogitsLoss()(nn.Tensor([1000.0, -1000.0]), np.array([0.0, 1.0]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(1000.0, rel=1e-6)

    def test_gradcheck(self):
        rng = np.random.default_rng(0)
        logits = nn.Tensor(rng.normal(size=8), requires_grad=True)
        targets = (rng.random(8) > 0.5).astype(float)
        nn.check_gradients(lambda: nn.BCEWithLogitsLoss()(logits, targets), [logits])

    def test_gradient_is_sigmoid_minus_target(self):
        logits = nn.Tensor([0.0], requires_grad=True)
        nn.BCEWithLogitsLoss(reduction="sum")(logits, np.array([1.0])).backward()
        np.testing.assert_allclose(logits.grad, [-0.5], atol=1e-10)
