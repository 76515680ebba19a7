"""Bitwise oracles for the conv2d and fused-LSTM kernels.

The functions prefixed ``oracle_`` are frozen copies of the original
copy-heavy kernels: ``im2col`` -> contiguous -> transpose -> reshape for
the conv GEMM operand, a contiguous copy before ``col2im`` in the conv
backward, and batch-major ``(B, T, H)`` LSTM caches.  The production
kernels avoid those copies; doing so must not change a single bit of any
output or gradient, because the trained ``model_fingerprint`` pins
depend on both.
"""

import contextlib

import numpy as np
import pytest
from scipy.special import expit as _sigmoid

from repro import nn
from repro.nn import ops
from repro.nn.fused_rnn import lstm_layer_forward


# ---------------------------------------------------------------------------
# Oracles (frozen; do not "fix")
# ---------------------------------------------------------------------------
def oracle_im2col(x, kernel, stride):
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    shape = (n, c, kh, kw, out_h, out_w)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2],
        x.strides[3],
        x.strides[2] * sh,
        x.strides[3] * sw,
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = patches.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), out_h, out_w


def oracle_col2im(cols, x_shape, kernel, stride):
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    grad_x = np.zeros(x_shape, dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            grad_x[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw] += cols[:, :, i, j]
    return grad_x


def oracle_conv2d_forward(x_data, w_data, bias_data, stride):
    n = x_data.shape[0]
    c_out, _, kh, kw = w_data.shape
    cols, out_h, out_w = oracle_im2col(x_data, (kh, kw), stride)
    k_dim = cols.shape[1]
    length = cols.shape[2]
    w_mat = w_data.reshape(c_out, -1)
    cols_flat = cols.transpose(0, 2, 1).reshape(n * length, k_dim)
    out = (cols_flat @ w_mat.T).reshape(n, length, c_out).transpose(0, 2, 1)
    out = np.ascontiguousarray(out).reshape(n, c_out, out_h, out_w)
    if bias_data is not None:
        out = out + bias_data.reshape(1, c_out, 1, 1)
    return out, cols_flat, w_mat, (k_dim, length, out_h, out_w)


def oracle_conv2d_backward(grad, x_data, w_data, cols_flat, w_mat, k_dim, length, stride, has_bias):
    n = x_data.shape[0]
    c_out, _, kh, kw = w_data.shape
    grad_flat = grad.reshape(n, c_out, length)
    grad_2d = np.ascontiguousarray(grad_flat.transpose(0, 2, 1)).reshape(n * length, c_out)
    grad_w = (grad_2d.T @ cols_flat).reshape(w_data.shape)
    grad_cols = (grad_2d @ w_mat).reshape(n, length, k_dim).transpose(0, 2, 1)
    grad_x = oracle_col2im(np.ascontiguousarray(grad_cols), x_data.shape, (kh, kw), stride)
    if not has_bias:
        return grad_x, grad_w
    return grad_x, grad_w, grad_2d.sum(axis=0)


def oracle_lstm_forward(x_data, w_ih, w_hh, b, h, c):
    batch, steps, _ = x_data.shape
    hidden = w_hh.shape[1]
    gates_x = np.empty((batch, steps, 4 * hidden), dtype=np.float64)
    outputs = np.empty((batch, steps, hidden), dtype=np.float64)
    caches = {
        name: np.empty((batch, steps, hidden), dtype=np.float64)
        for name in ("i", "f", "g", "o", "c_prev", "tanh_c", "h_prev")
    }
    np.matmul(x_data, w_ih.T, out=gates_x)
    gates_x += b
    for t in range(steps):
        gates = gates_x[:, t, :] + h @ w_hh.T
        i_gate = _sigmoid(gates[:, 0 * hidden : 1 * hidden])
        f_gate = _sigmoid(gates[:, 1 * hidden : 2 * hidden])
        g_gate = np.tanh(gates[:, 2 * hidden : 3 * hidden])
        o_gate = _sigmoid(gates[:, 3 * hidden : 4 * hidden])
        caches["c_prev"][:, t] = c
        caches["h_prev"][:, t] = h
        c = f_gate * c + i_gate * g_gate
        tanh_c = np.tanh(c)
        h = o_gate * tanh_c
        outputs[:, t] = h
        caches["i"][:, t] = i_gate
        caches["f"][:, t] = f_gate
        caches["g"][:, t] = g_gate
        caches["o"][:, t] = o_gate
        caches["tanh_c"][:, t] = tanh_c
    return outputs, h.copy(), c.copy(), caches


def oracle_lstm_backward(grad_out, x_data, w_ih, w_hh, b, caches):
    batch, steps, _ = x_data.shape
    hidden = w_hh.shape[1]
    grad_x = np.zeros_like(x_data, dtype=np.float64)
    grad_w_ih = np.zeros_like(w_ih, dtype=np.float64)
    grad_w_hh = np.zeros_like(w_hh, dtype=np.float64)
    grad_b = np.zeros_like(b, dtype=np.float64)
    dh_next = np.zeros((batch, hidden), dtype=np.float64)
    dc_next = np.zeros((batch, hidden), dtype=np.float64)
    dgates = np.empty((batch, 4 * hidden), dtype=np.float64)
    for t in range(steps - 1, -1, -1):
        i_gate = caches["i"][:, t]
        f_gate = caches["f"][:, t]
        g_gate = caches["g"][:, t]
        o_gate = caches["o"][:, t]
        tanh_c = caches["tanh_c"][:, t]
        dh = grad_out[:, t] + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o_gate * (1.0 - tanh_c * tanh_c)
        di = dc * g_gate
        df = dc * caches["c_prev"][:, t]
        dg = dc * i_gate
        dc_next = dc * f_gate
        dgates[:, 0 * hidden : 1 * hidden] = di * i_gate * (1.0 - i_gate)
        dgates[:, 1 * hidden : 2 * hidden] = df * f_gate * (1.0 - f_gate)
        dgates[:, 2 * hidden : 3 * hidden] = dg * (1.0 - g_gate * g_gate)
        dgates[:, 3 * hidden : 4 * hidden] = do * o_gate * (1.0 - o_gate)
        grad_x[:, t] = dgates @ w_ih
        dh_next = dgates @ w_hh
        grad_w_ih += dgates.T @ x_data[:, t]
        grad_w_hh += dgates.T @ caches["h_prev"][:, t]
        grad_b += dgates.sum(axis=0)
    return grad_x, grad_w_ih, grad_w_hh, grad_b


# ---------------------------------------------------------------------------
def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


CONV_CASES = [
    # (kernel, stride, padding, transposed input, bias)
    ((1, 1), (1, 1), 0, False, True),
    ((1, 1), (2, 2), 0, True, False),
    ((3, 3), (1, 1), 1, False, True),
    ((3, 3), (1, 1), 0, True, True),
    ((3, 3), (2, 2), 1, True, True),
    ((3, 3), (2, 1), (1, 0), False, False),
    ((2, 3), (1, 2), 0, True, True),
    ((5, 3), (1, 1), (2, 1), False, True),
]


def _conv_inputs(rng, kernel, transposed, bias):
    n = int(rng.integers(1, 7))
    c_in = int(rng.integers(1, 4))
    c_out = int(rng.integers(1, 6))
    h = int(rng.integers(kernel[0] + 1, 13))
    w = int(rng.integers(kernel[1] + 1, 13))
    if transposed:
        # A (N, C, W, H) buffer viewed as (N, C, H, W): non-contiguous.
        x = rng.normal(size=(n, c_in, w, h)).transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous
    else:
        x = rng.normal(size=(n, c_in, h, w))
    weight = rng.normal(size=(c_out, c_in, *kernel))
    b = rng.normal(size=c_out) if bias else None
    return x, weight, b


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kernel,stride,padding,transposed,bias", CONV_CASES)
class TestConv2dOracle:
    def test_forward_kernel(self, seed, kernel, stride, padding, transposed, bias):
        rng = np.random.default_rng(seed)
        x, weight, b = _conv_inputs(rng, kernel, transposed, bias)
        got = ops._conv2d_forward(x, weight, b, stride)
        want = oracle_conv2d_forward(x, weight, b, stride)
        for actual, expected in zip(got[:3], want[:3]):
            assert_bitwise(actual, expected)
        assert got[3] == want[3]

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_op_forward_and_gradients(
        self, seed, kernel, stride, padding, transposed, bias, x_grad
    ):
        rng = np.random.default_rng(100 + seed)
        x, weight, b = _conv_inputs(rng, kernel, transposed, bias)
        xt = nn.Tensor(x, requires_grad=x_grad)
        wt = nn.Tensor(weight, requires_grad=True)
        bt = nn.Tensor(b, requires_grad=True) if bias else None
        out = ops.conv2d(xt, wt, bt, stride=stride, padding=padding)
        grad = rng.normal(size=out.shape)
        out.backward(grad)

        ph, pw = (padding, padding) if isinstance(padding, int) else padding
        x_padded = np.pad(x, [(0, 0), (0, 0), (ph, ph), (pw, pw)])
        want_out, cols_flat, w_mat, (k_dim, length, _, _) = oracle_conv2d_forward(
            x_padded, weight, b, stride
        )
        want_grads = oracle_conv2d_backward(
            grad, x_padded, weight, cols_flat, w_mat, k_dim, length, stride, bias
        )
        assert_bitwise(out.data, want_out)
        h, w = x.shape[2:]
        if x_grad:
            assert_bitwise(xt.grad, want_grads[0][:, :, ph : ph + h, pw : pw + w])
        else:
            assert xt.grad is None
        assert_bitwise(wt.grad, want_grads[1])
        if bias:
            assert_bitwise(bt.grad, want_grads[2])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("explicit_state", [False, True])
def test_fused_lstm_matches_oracle(seed, explicit_state):
    rng = np.random.default_rng(seed)
    batch = int(rng.integers(1, 9))
    steps = int(rng.integers(1, 13))
    inputs = int(rng.integers(1, 7))
    hidden = int(rng.integers(1, 6))
    # A (T, B, I) buffer viewed as (B, T, I): non-contiguous input.
    x = rng.normal(size=(steps, batch, inputs)).transpose(1, 0, 2)
    assert not x.flags.c_contiguous
    w_ih = rng.normal(size=(4 * hidden, inputs)) * 0.5
    w_hh = rng.normal(size=(4 * hidden, hidden)) * 0.5
    b = rng.normal(size=4 * hidden) * 0.1
    if explicit_state:
        h0 = rng.normal(size=(batch, hidden))
        c0 = rng.normal(size=(batch, hidden))
    else:
        h0 = np.zeros((batch, hidden))
        c0 = np.zeros((batch, hidden))

    xt = nn.Tensor(x, requires_grad=True)
    params = [nn.Tensor(p, requires_grad=True) for p in (w_ih, w_hh, b)]
    state = (h0, c0) if explicit_state else (None, None)
    out, h_final, c_final = lstm_layer_forward(xt, *params, *state)
    grad = rng.normal(size=out.shape)
    out.backward(grad)

    want_out, want_h, want_c, caches = oracle_lstm_forward(x, w_ih, w_hh, b, h0, c0)
    want_grads = oracle_lstm_backward(grad, x, w_ih, w_hh, b, caches)
    assert_bitwise(out.data, want_out)
    assert_bitwise(h_final, want_h)
    assert_bitwise(c_final, want_c)
    for tensor, expected in zip([xt, *params], want_grads):
        assert_bitwise(tensor.grad, expected)


# ---------------------------------------------------------------------------
# The shapes one step of the e2e APOTS_H fit runs (32 anchors x alpha 12 =
# 384 rows of a 9 x 12 image, smoke widths), inside and outside the scope
# in which training reuses the kernels' arrays: the second pass in a scope
# runs on reused arrays.
# ---------------------------------------------------------------------------
PRODUCTION_ROWS = 384


@contextlib.contextmanager
def _maybe_reusing(scoped):
    with nn.reuse_arrays() if scoped else contextlib.nullcontext():
        yield


@pytest.mark.parametrize("scoped", [False, True])
@pytest.mark.parametrize(
    "inputs,contiguous",
    [(36, False), (32, True)],
    ids=["first-layer-36", "second-layer-32"],
)
def test_fused_lstm_matches_oracle_at_production_shape(inputs, contiguous, scoped):
    rng = np.random.default_rng(inputs)
    batch, steps, hidden = PRODUCTION_ROWS, 12, 32
    if contiguous:
        x = rng.normal(size=(batch, steps, inputs))
    else:
        # The H predictor's LSTM input: a (B, C*rows, T) conv map viewed as (B, T, I).
        x = rng.normal(size=(batch, inputs, steps)).transpose(0, 2, 1)
        assert not x.flags.c_contiguous
    w_ih = rng.normal(size=(4 * hidden, inputs)) * 0.3
    w_hh = rng.normal(size=(4 * hidden, hidden)) * 0.3
    b = rng.normal(size=4 * hidden) * 0.1
    zeros = np.zeros((batch, hidden))
    want_out, want_h, want_c, caches = oracle_lstm_forward(x, w_ih, w_hh, b, zeros, zeros)

    with _maybe_reusing(scoped):
        for _ in range(2):
            grad = rng.normal(size=(batch, steps, hidden))
            xt = nn.Tensor(x, requires_grad=True)
            params = [nn.Tensor(p, requires_grad=True) for p in (w_ih, w_hh, b)]
            out, h_final, c_final = lstm_layer_forward(xt, *params)
            out.backward(grad)
            assert_bitwise(out.data, want_out)
            assert_bitwise(h_final, want_h)
            assert_bitwise(c_final, want_c)
            want_grads = oracle_lstm_backward(grad, x, w_ih, w_hh, b, caches)
            for tensor, expected in zip([xt, *params], want_grads):
                assert_bitwise(tensor.grad, expected)


@pytest.mark.parametrize("scoped", [False, True])
@pytest.mark.parametrize(
    "c_in,c_out,kernel,padding",
    [(1, 8, 3, 1), (8, 4, 1, 0), (4, 4, 3, 1)],
    ids=["1to8-3x3", "8to4-1x1", "4to4-3x3"],
)
def test_conv2d_matches_oracle_at_production_shape(c_in, c_out, kernel, padding, scoped):
    rng = np.random.default_rng(10 * c_in + c_out)
    x = rng.normal(size=(PRODUCTION_ROWS, c_in, 9, 12))
    weight = rng.normal(size=(c_out, c_in, kernel, kernel))
    b = rng.normal(size=c_out)
    x_padded = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)])
    want_out, cols_flat, w_mat, (k_dim, length, _, _) = oracle_conv2d_forward(
        x_padded, weight, b, (1, 1)
    )

    with _maybe_reusing(scoped):
        for _ in range(2):
            grad = rng.normal(size=want_out.shape)
            xt = nn.Tensor(x, requires_grad=True)
            wt = nn.Tensor(weight, requires_grad=True)
            bt = nn.Tensor(b, requires_grad=True)
            out = ops.conv2d(xt, wt, bt, padding=padding)
            out.backward(grad)
            want_grads = oracle_conv2d_backward(
                grad, x_padded, weight, cols_flat, w_mat, k_dim, length, (1, 1), True
            )
            assert_bitwise(out.data, want_out)
            assert_bitwise(xt.grad, want_grads[0][:, :, padding : padding + 9, padding : padding + 12])
            assert_bitwise(wt.grad, want_grads[1])
            assert_bitwise(bt.grad, want_grads[2])
