"""Tests for layers: Linear, activations, conv and containers."""

import numpy as np
import pytest

from repro import nn


class TestLinear:
    def test_output_shape(self):
        layer = nn.Linear(4, 7, rng=np.random.default_rng(0))
        out = layer(nn.Tensor(np.ones((3, 4))))
        assert out.shape == (3, 7)

    def test_no_bias(self):
        layer = nn.Linear(4, 2, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_known_weights(self):
        layer = nn.Linear(2, 1, rng=np.random.default_rng(0))
        layer.weight.data[:] = [[2.0, 3.0]]
        layer.bias.data[:] = [1.0]
        out = layer(nn.Tensor([[1.0, 1.0]]))
        np.testing.assert_allclose(out.data, [[6.0]])

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        layer = nn.Linear(3, 2, rng=rng)
        x = nn.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        nn.check_gradients(
            lambda: (layer(x) ** 2).sum(), [x, layer.weight, layer.bias]
        )

    def test_repr(self):
        assert "Linear(3, 2" in repr(nn.Linear(3, 2))


class TestActivationLayers:
    @pytest.mark.parametrize(
        "layer,expected",
        [
            (nn.ReLU(), [0.0, 0.0, 2.0]),
            (nn.LeakyReLU(0.1), [-0.1, 0.0, 2.0]),
        ],
    )
    def test_forward_values(self, layer, expected):
        out = layer(nn.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_activations_have_no_parameters(self):
        for layer in (nn.ReLU(), nn.LeakyReLU()):
            assert layer.parameters() == []


class TestConvLayer:
    def test_output_shape_helper(self):
        conv = nn.Conv2d(1, 4, 3, padding=1, rng=np.random.default_rng(8))
        assert conv.output_shape(9, 12) == (9, 12)
        conv2 = nn.Conv2d(1, 4, 3, stride=2, rng=np.random.default_rng(8))
        assert conv2.output_shape(9, 9) == (4, 4)

    def test_forward_shape(self):
        conv = nn.Conv2d(2, 5, (3, 1), padding=(1, 0), rng=np.random.default_rng(9))
        out = conv(nn.Tensor(np.ones((3, 2, 7, 4))))
        assert out.shape == (3, 5, 7, 4)


class TestContainers:
    def test_sequential_runs_in_order(self):
        rng = np.random.default_rng(10)
        net = nn.Sequential(nn.Linear(3, 5, rng=rng), nn.ReLU(), nn.Linear(5, 2, rng=rng))
        out = net(nn.Tensor(np.ones((2, 3))))
        assert out.shape == (2, 2)
        assert len(net) == 3

    def test_sequential_append_and_index(self):
        net = nn.Sequential()
        layer = nn.ReLU()
        net.append(layer)
        assert net[0] is layer
        assert list(net) == [layer]

    def test_sequential_registers_parameters(self):
        rng = np.random.default_rng(11)
        net = nn.Sequential(nn.Linear(2, 2, rng=rng), nn.Linear(2, 2, rng=rng))
        assert len(net.parameters()) == 4

    def test_module_list(self):
        rng = np.random.default_rng(12)
        modules = nn.ModuleList([nn.Linear(2, 2, rng=rng)])
        modules.append(nn.Linear(2, 3, rng=rng))
        assert len(modules) == 2
        assert len(modules.parameters()) == 4
        assert modules[1].out_features == 3

    def test_module_list_forward_raises(self):
        with pytest.raises(NotImplementedError):
            nn.ModuleList([])(nn.Tensor([1.0]))
