"""Property-based tests (hypothesis) for the autograd substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro import nn

finite_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False, width=64
)


def small_arrays(max_dims=2, max_side=4):
    return arrays(
        dtype=np.float64,
        shape=array_shapes(max_dims=max_dims, max_side=max_side),
        elements=finite_floats,
    )


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_add_gradient_is_ones(data):
    x = nn.Tensor(data, requires_grad=True)
    (x + 1.0).sum().backward()
    np.testing.assert_allclose(x.grad, np.ones_like(data))


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_mul_gradient_is_other_operand(data):
    x = nn.Tensor(data, requires_grad=True)
    other = data * 2.0 + 1.0
    (x * nn.Tensor(other)).sum().backward()
    np.testing.assert_allclose(x.grad, other)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_sum_of_mean_scales(data):
    x = nn.Tensor(data, requires_grad=True)
    x.mean().backward()
    np.testing.assert_allclose(x.grad, np.full_like(data, 1.0 / data.size))


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=2, max_side=3))
def test_tanh_gradcheck_holds(data):
    x = nn.Tensor(data, requires_grad=True)
    nn.check_gradients(lambda: (x.tanh() * x.tanh()).sum(), [x], atol=1e-3, rtol=1e-3)


@settings(max_examples=30, deadline=None)
@given(
    arrays(dtype=np.float64, shape=(3, 2), elements=finite_floats),
    arrays(dtype=np.float64, shape=(2, 3), elements=finite_floats),
)
def test_matmul_forward_matches_numpy(a, b):
    out = nn.Tensor(a) @ nn.Tensor(b)
    np.testing.assert_allclose(out.data, a @ b)


@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_reshape_preserves_gradient_mass(data):
    x = nn.Tensor(data, requires_grad=True)
    x.reshape(-1).sum().backward()
    np.testing.assert_allclose(x.grad, np.ones_like(data))


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=1, max_side=6))
def test_sigmoid_output_in_unit_interval(data):
    out = nn.Tensor(data).sigmoid().data
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


@settings(max_examples=30, deadline=None)
@given(small_arrays(max_dims=1, max_side=6))
def test_relu_idempotent(data):
    x = nn.Tensor(data)
    once = x.relu().data
    twice = x.relu().relu().data
    np.testing.assert_allclose(once, twice)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_linear_preserves_batch_dimension(batch, features):
    layer = nn.Linear(features, 3, rng=np.random.default_rng(0))
    out = layer(nn.Tensor(np.ones((batch, features))))
    assert out.shape == (batch, 3)


@settings(max_examples=20, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=8))
def test_state_dict_roundtrip_preserves_forward(values):
    rng = np.random.default_rng(1)
    a = nn.Linear(len(values), 2, rng=rng)
    b = nn.Linear(len(values), 2, rng=np.random.default_rng(2))
    b.load_state_dict(a.state_dict())
    x = nn.Tensor(np.array([values]))
    np.testing.assert_allclose(a(x).data, b(x).data)
