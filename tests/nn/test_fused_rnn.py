"""Tests for the fused LSTM primitive: equivalence with the unrolled cell loop."""

import numpy as np
import pytest

from repro import nn
from repro.nn.fused_rnn import lstm_layer_forward


def unrolled(lstm, x, state=None):
    """The step-by-step LSTMCell loop over ``lstm``'s own cells: the oracle."""
    batch, steps, _ = x.shape
    if state is None:
        state = [cell.initial_state(batch) for cell in lstm.cells]
    state = list(state)
    outputs = []
    for t in range(steps):
        layer_input = x[:, t, :]
        for layer, cell in enumerate(lstm.cells):
            state[layer] = cell(layer_input, state[layer])
            layer_input = state[layer][0]
        outputs.append(layer_input)
    return nn.ops.stack(outputs, axis=1), state


def make_lstm(input_size=5, hidden=(7, 6), seed=3):
    return nn.LSTM(input_size, list(hidden), rng=np.random.default_rng(seed))


class TestEquivalence:
    def test_forward_matches_cell_path(self):
        lstm = make_lstm()
        x = np.random.default_rng(0).normal(size=(4, 9, 5))
        out_fused, state_fused = lstm(nn.Tensor(x))
        out_slow, state_slow = unrolled(lstm, nn.Tensor(x))
        np.testing.assert_allclose(out_fused.data, out_slow.data, atol=1e-12)
        for (hf, cf), (hs, cs) in zip(state_fused, state_slow):
            np.testing.assert_allclose(hf.data, hs.data, atol=1e-12)
            np.testing.assert_allclose(cf.data, cs.data, atol=1e-12)

    def test_gradients_match_cell_path(self):
        lstm = make_lstm()
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3, 6, 5))
        grad_seed = rng.normal(size=(3, 6, 6))
        x_fused = nn.Tensor(data.copy(), requires_grad=True)
        x_slow = nn.Tensor(data.copy(), requires_grad=True)
        (lstm(x_fused)[0] * nn.Tensor(grad_seed)).sum().backward()
        fused_grads = {name: p.grad.copy() for name, p in lstm.named_parameters()}
        lstm.zero_grad()
        (unrolled(lstm, x_slow)[0] * nn.Tensor(grad_seed)).sum().backward()
        np.testing.assert_allclose(x_fused.grad, x_slow.grad, atol=1e-10)
        for name, p in lstm.named_parameters():
            np.testing.assert_allclose(fused_grads[name], p.grad, atol=1e-10, err_msg=name)

    def test_gradcheck_against_finite_differences(self):
        rng = np.random.default_rng(2)
        lstm = nn.LSTM(2, [2], rng=rng)
        x = nn.Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)

        def forward():
            out, _ = lstm(x)
            return (out * out).sum()

        nn.check_gradients(forward, [x] + lstm.parameters(), atol=1e-3, rtol=1e-3)

    def test_initial_state_respected(self):
        lstm = make_lstm(hidden=(4,))
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 5))
        h0 = nn.Tensor(rng.normal(size=(2, 4)))
        c0 = nn.Tensor(rng.normal(size=(2, 4)))
        out_fused, _ = lstm(nn.Tensor(x), [(h0, c0)])
        out_slow, _ = unrolled(lstm, nn.Tensor(x), [(h0, c0)])
        np.testing.assert_allclose(out_fused.data, out_slow.data, atol=1e-12)


class TestPrimitiveValidation:
    def _params(self, hidden=3, input_size=2, seed=0):
        cell = nn.LSTMCell(input_size, hidden, rng=np.random.default_rng(seed))
        return cell.weight_ih, cell.weight_hh, cell.bias

    def test_rejects_2d_input(self):
        w_ih, w_hh, b = self._params()
        with pytest.raises(ValueError, match="batch, time, features"):
            lstm_layer_forward(nn.Tensor(np.ones((4, 2))), w_ih, w_hh, b)

    def test_rejects_inconsistent_gate_shapes(self):
        w_ih, w_hh, _ = self._params()
        bad_bias = nn.Tensor(np.zeros(5))
        with pytest.raises(ValueError, match="inconsistent"):
            lstm_layer_forward(nn.Tensor(np.ones((1, 2, 2))), w_ih, w_hh, bad_bias)

    def test_rejects_requires_grad_initial_state(self):
        # The fused backward returns no gradient for h0/c0; a
        # differentiable state would silently drop out of BPTT.
        w_ih, w_hh, b = self._params()
        x = nn.Tensor(np.ones((2, 4, 2)))
        grad_state = nn.Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(ValueError, match="requires_grad Tensor as h0"):
            lstm_layer_forward(x, w_ih, w_hh, b, h0=grad_state)
        with pytest.raises(ValueError, match="requires_grad Tensor as c0"):
            lstm_layer_forward(x, w_ih, w_hh, b, c0=grad_state)

    def test_returns_final_state_values(self):
        w_ih, w_hh, b = self._params()
        x = nn.Tensor(np.random.default_rng(4).normal(size=(2, 4, 2)))
        out, h_final, c_final = lstm_layer_forward(x, w_ih, w_hh, b)
        np.testing.assert_allclose(out.data[:, -1, :], h_final)
        assert c_final.shape == (2, 3)

    def test_single_step_matches_cell(self):
        cell = nn.LSTMCell(2, 3, rng=np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(2, 1, 2))
        out, h_final, c_final = lstm_layer_forward(
            nn.Tensor(x), cell.weight_ih, cell.weight_hh, cell.bias
        )
        h_ref, c_ref = cell(nn.Tensor(x[:, 0]), cell.initial_state(2))
        np.testing.assert_allclose(h_final, h_ref.data, atol=1e-12)
        np.testing.assert_allclose(c_final, c_ref.data, atol=1e-12)
