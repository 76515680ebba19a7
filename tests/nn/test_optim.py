"""Tests for the Adam optimiser and gradient clipping."""

import numpy as np
import pytest

from repro import nn


def quadratic_param(start=5.0):
    """A single parameter with loss (p - 2)^2 whose optimum is 2."""
    return nn.Parameter(np.array([start]))


def loss_of(param):
    diff = param - nn.Tensor([2.0])
    return (diff * diff).sum()


class TestAdam:
    def test_first_step_size_is_lr(self):
        # With bias correction, the first Adam step is ~lr regardless of
        # gradient magnitude.
        p = nn.Parameter(np.array([0.0]))
        opt = nn.Adam([p], lr=0.01)
        p.grad = np.array([123.0])
        opt.step()
        np.testing.assert_allclose(p.data, [-0.01], atol=1e-6)

    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = nn.Adam([p], lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            loss_of(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, [2.0], atol=1e-3)

    def test_skips_none_grads(self):
        p = nn.Parameter(np.array([1.0]))
        q = nn.Parameter(np.array([1.0]))
        opt = nn.Adam([p, q], lr=0.1)
        q.grad = np.array([1.0])
        opt.step()  # p has no grad: it must stay put while q moves
        np.testing.assert_allclose(p.data, [1.0])
        assert q.data[0] < 1.0

    def test_weight_decay_changes_update(self):
        p1 = nn.Parameter(np.array([5.0]))
        p2 = nn.Parameter(np.array([5.0]))
        o1 = nn.Adam([p1], lr=0.1)
        o2 = nn.Adam([p2], lr=0.1, weight_decay=1.0)
        for p, o in ((p1, o1), (p2, o2)):
            p.grad = np.array([0.1])
            o.step()
        assert p2.data[0] < p1.data[0]

    def test_trains_small_network(self):
        rng = np.random.default_rng(0)
        net = nn.Sequential(nn.Linear(2, 8, rng=rng), nn.ReLU(), nn.Linear(8, 1, rng=rng))
        x = rng.normal(size=(64, 2))
        y = (x[:, :1] * 2.0 - x[:, 1:] * 0.5)
        opt = nn.Adam(net.parameters(), lr=0.01)
        loss_fn = nn.MSELoss()
        first = None
        for _ in range(150):
            opt.zero_grad()
            loss = loss_fn(net(nn.Tensor(x)), y)
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.1


class TestOptimizerValidation:
    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam([nn.Parameter(np.ones(1))], lr=0.0)

    def test_zero_grad_clears(self):
        p = nn.Parameter(np.array([1.0]))
        p.grad = np.array([5.0])
        nn.Adam([p], lr=0.1).zero_grad()
        assert p.grad is None


class TestClipGradNorm:
    def test_clips_to_max_norm(self):
        p = nn.Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)  # norm 20
        norm = nn.clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_no_clip_below_max(self):
        p = nn.Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])  # norm 0.5
        nn.clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_handles_none_grads(self):
        p = nn.Parameter(np.zeros(2))
        assert nn.clip_grad_norm([p], max_norm=1.0) == 0.0

    def test_nan_grad_dropped_and_norm_reported(self):
        """A NaN gradient must not slip past the `norm > max_norm` check."""
        p = nn.Parameter(np.zeros(2))
        q = nn.Parameter(np.zeros(2))
        p.grad = np.array([np.nan, 1.0])
        q.grad = np.array([1.0, 1.0])  # healthy, but the *global* norm is poisoned
        norm = nn.clip_grad_norm([p, q], max_norm=1.0)
        assert np.isnan(norm)
        assert p.grad is None and q.grad is None

    def test_inf_grad_dropped(self):
        p = nn.Parameter(np.zeros(2))
        p.grad = np.array([np.inf, 1.0])
        norm = nn.clip_grad_norm([p], max_norm=1.0)
        assert np.isinf(norm)
        assert p.grad is None

    def test_nonfinite_keep_grads_opt_out(self):
        p = nn.Parameter(np.zeros(2))
        p.grad = np.array([np.nan, 1.0])
        norm = nn.clip_grad_norm([p], max_norm=1.0, drop_nonfinite=False)
        assert np.isnan(norm)
        assert p.grad is not None

    def test_nan_grad_does_not_corrupt_adam_state(self):
        """The poisoned step is skipped: params and moments stay finite."""
        p = nn.Parameter(np.array([1.0, 2.0]))
        opt = nn.Adam([p], lr=0.1)
        # One healthy step to seed the moments.
        p.grad = np.array([0.5, -0.5])
        nn.clip_grad_norm([p], max_norm=5.0)
        opt.step()
        data_before = p.data.copy()
        m_before = opt._m[0].copy()
        # One poisoned step: clip drops the grads, Adam must no-op.
        p.grad = np.array([np.nan, 1.0])
        norm = nn.clip_grad_norm([p], max_norm=5.0)
        assert not np.isfinite(norm)
        opt.step()
        np.testing.assert_array_equal(p.data, data_before)
        np.testing.assert_array_equal(opt._m[0], m_before)
        assert np.all(np.isfinite(opt._m[0])) and np.all(np.isfinite(opt._v[0]))

