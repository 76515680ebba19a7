"""Tests for Module / Parameter registration and serialisation."""

import numpy as np
import pytest

from repro import nn


class TwoLayer(nn.Module):
    def __init__(self, rng):
        super().__init__()
        self.first = nn.Linear(3, 4, rng=rng)
        self.second = nn.Linear(4, 2, rng=rng)
        self.scale = nn.Parameter(np.array([1.0]))

    def forward(self, x):
        return self.second(self.first(x).relu()) * self.scale


class TestRegistration:
    def test_parameters_collected_recursively(self):
        model = TwoLayer(np.random.default_rng(0))
        assert len(model.parameters()) == 5  # 2x(W, b) + scale

    def test_named_parameters_dotted(self):
        model = TwoLayer(np.random.default_rng(0))
        names = {name for name, _ in model.named_parameters()}
        assert names == {"first.weight", "first.bias", "second.weight", "second.bias", "scale"}

    def test_num_parameters(self):
        model = TwoLayer(np.random.default_rng(0))
        assert model.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2 + 1

    def test_modules_iterates_descendants(self):
        model = TwoLayer(np.random.default_rng(0))
        assert len(list(model.modules())) == 3

    def test_register_module_dynamic(self):
        model = nn.Module()
        child = nn.Linear(2, 2, rng=np.random.default_rng(0))
        model.register_module("child", child)
        assert model.child is child
        assert len(model.parameters()) == 2

    def test_parameter_requires_grad_even_under_no_grad(self):
        with nn.no_grad():
            p = nn.Parameter(np.ones(3))
        assert p.requires_grad


class TestModes:
    def test_zero_grad_clears_all(self):
        model = TwoLayer(np.random.default_rng(0))
        x = nn.Tensor(np.ones((2, 3)))
        model(x).sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(nn.Tensor([1.0]))


class TestStateDict:
    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        a = TwoLayer(rng)
        b = TwoLayer(np.random.default_rng(2))
        b.load_state_dict(a.state_dict())
        x = nn.Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_returns_copies(self):
        model = TwoLayer(np.random.default_rng(1))
        state = model.state_dict()
        state["scale"][...] = 99.0
        assert model.scale.data[0] != 99.0

    def test_missing_key_raises(self):
        model = TwoLayer(np.random.default_rng(1))
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(KeyError, match="missing"):
            model.load_state_dict(state)

    def test_unexpected_key_raises(self):
        model = TwoLayer(np.random.default_rng(1))
        state = model.state_dict()
        state["bogus"] = np.ones(1)
        with pytest.raises(KeyError, match="unexpected"):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = TwoLayer(np.random.default_rng(1))
        state = model.state_dict()
        state["scale"] = np.ones(7)
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state)

    def test_save_load_file(self, tmp_path):
        a = TwoLayer(np.random.default_rng(3))
        b = TwoLayer(np.random.default_rng(4))
        path = tmp_path / "model.npz"
        nn.save_state(a, path)
        nn.load_state(b, path)
        x = nn.Tensor(np.ones((1, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)


class TestInitializers:
    def test_xavier_uniform_bounds(self):
        rng = np.random.default_rng(5)
        w = nn.init.xavier_uniform((100, 50), rng)
        bound = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= bound)

    def test_conv_fan_accounts_for_receptive_field(self):
        rng = np.random.default_rng(7)
        w = nn.init.kaiming_uniform((8, 4, 3, 3), rng)
        bound = np.sqrt(6.0 / (4 * 9))
        assert np.all(np.abs(w) <= bound)

    def test_zeros(self):
        np.testing.assert_allclose(nn.init.zeros((3, 3)), 0.0)
