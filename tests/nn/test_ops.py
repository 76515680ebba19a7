"""Tests for structural ops: concat, stack, pad, maximum, conv2d, col2im."""

import numpy as np
import pytest

from repro import nn
from repro.nn import ops


class TestConcat:
    def test_forward(self):
        a, b = nn.Tensor([1.0, 2.0]), nn.Tensor([3.0])
        np.testing.assert_allclose(ops.concat([a, b]).data, [1.0, 2.0, 3.0])

    def test_axis1(self):
        a = nn.Tensor(np.ones((2, 2)))
        b = nn.Tensor(np.zeros((2, 3)))
        assert ops.concat([a, b], axis=1).shape == (2, 5)

    def test_gradient_splits(self):
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        b = nn.Tensor([3.0], requires_grad=True)
        out = ops.concat([a, b])
        (out * nn.Tensor([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0])

    def test_gradcheck(self):
        rng = np.random.default_rng(0)
        a = nn.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = nn.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        nn.check_gradients(lambda: (ops.concat([a, b], axis=1) ** 2).sum(), [a, b])


class TestStack:
    def test_forward_shape(self):
        tensors = [nn.Tensor(np.ones(3)) for _ in range(4)]
        assert ops.stack(tensors).shape == (4, 3)
        assert ops.stack(tensors, axis=1).shape == (3, 4)

    def test_gradient(self):
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        b = nn.Tensor([3.0, 4.0], requires_grad=True)
        out = ops.stack([a, b], axis=0)
        (out * nn.Tensor([[1.0, 1.0], [2.0, 2.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [2.0, 2.0])

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        tensors = [nn.Tensor(rng.normal(size=3), requires_grad=True) for _ in range(3)]
        nn.check_gradients(lambda: (ops.stack(tensors, axis=1) ** 2).sum(), tensors)


class TestPad2d:
    def test_forward_shape(self):
        x = nn.Tensor(np.ones((1, 1, 3, 3)))
        assert ops.pad2d(x, 1).shape == (1, 1, 5, 5)
        assert ops.pad2d(x, (1, 2)).shape == (1, 1, 5, 7)

    def test_zero_padding_is_identity(self):
        x = nn.Tensor(np.ones((1, 1, 3, 3)))
        assert ops.pad2d(x, 0) is x

    def test_gradient_strips_padding(self):
        x = nn.Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        ops.pad2d(x, 1).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((1, 1, 2, 2)))

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        x = nn.Tensor(rng.normal(size=(2, 1, 3, 4)), requires_grad=True)
        nn.check_gradients(lambda: (ops.pad2d(x, (1, 2)) ** 2).sum(), [x])


class TestWhereMaximum:
    def test_maximum_forward_and_grad(self):
        a = nn.Tensor([1.0, 5.0], requires_grad=True)
        b = nn.Tensor([3.0, 2.0], requires_grad=True)
        out = ops.maximum(a, b)
        np.testing.assert_allclose(out.data, [3.0, 5.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])

    def test_maximum_tie_goes_to_first(self):
        a = nn.Tensor([2.0], requires_grad=True)
        b = nn.Tensor([2.0], requires_grad=True)
        ops.maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [0.0])


class TestConv2d:
    @staticmethod
    def _naive_conv(x, w, b, stride=1):
        n, c_in, h, wd = x.shape
        c_out, _, kh, kw = w.shape
        oh = (h - kh) // stride + 1
        ow = (wd - kw) // stride + 1
        out = np.zeros((n, c_out, oh, ow))
        for ni in range(n):
            for co in range(c_out):
                for i in range(oh):
                    for j in range(ow):
                        patch = x[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                        out[ni, co, i, j] = (patch * w[co]).sum() + b[co]
        return out

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 6, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = ops.conv2d(nn.Tensor(x), nn.Tensor(w), nn.Tensor(b))
        np.testing.assert_allclose(out.data, self._naive_conv(x, w, b), atol=1e-10)

    def test_stride_matches_naive(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 2, 7, 7))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out = ops.conv2d(nn.Tensor(x), nn.Tensor(w), nn.Tensor(b), stride=2)
        np.testing.assert_allclose(out.data, self._naive_conv(x, w, b, stride=2), atol=1e-10)

    def test_padding_preserves_shape(self):
        x = nn.Tensor(np.ones((1, 1, 5, 5)))
        w = nn.Tensor(np.ones((1, 1, 3, 3)))
        assert ops.conv2d(x, w, padding=1).shape == (1, 1, 5, 5)

    def test_no_bias(self):
        x = nn.Tensor(np.ones((1, 1, 3, 3)))
        w = nn.Tensor(np.ones((1, 1, 3, 3)))
        np.testing.assert_allclose(ops.conv2d(x, w).data, [[[[9.0]]]])

    def test_channel_mismatch_raises(self):
        x = nn.Tensor(np.ones((1, 2, 3, 3)))
        w = nn.Tensor(np.ones((1, 3, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            ops.conv2d(x, w)

    def test_gradcheck_with_padding_and_stride(self):
        rng = np.random.default_rng(9)
        x = nn.Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = nn.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = nn.Tensor(rng.normal(size=3), requires_grad=True)
        nn.check_gradients(
            lambda: (ops.conv2d(x, w, b, stride=2, padding=1) ** 2).sum(), [x, w, b]
        )


class TestIm2Col:
    def test_roundtrip_count(self):
        # col2im(ones) counts how many patches cover each pixel.
        x_shape = (1, 1, 4, 4)
        cols = np.ones((1, 1 * 2 * 2, 9))  # 3x3 output for 2x2 kernel stride 1
        counts = ops.col2im(cols, x_shape, (2, 2), (1, 1))
        expected = np.array(
            [
                [1.0, 2.0, 2.0, 1.0],
                [2.0, 4.0, 4.0, 2.0],
                [2.0, 4.0, 4.0, 2.0],
                [1.0, 2.0, 2.0, 1.0],
            ]
        )
        np.testing.assert_allclose(counts[0, 0], expected)
