"""Fused single-layer LSTM: one autograd node for a whole sequence pass.

The composable :class:`~repro.nn.layers.recurrent.LSTMCell` builds ~30
graph nodes per timestep; at alpha = 12 steps and 2 layers a single
training step touches ~1500 Python closures, which dominates wall time
on small models.  This module implements the same math as one primitive
with a hand-written backward-through-time, cutting the per-step node
count to one per layer.  The whole gate chain (two matmuls, three
sigmoids, two tanhs and the cell update) lives in one kernel — this is
the "fused LSTM-gate chain" the compiled replay path reuses verbatim.

Semantics: gradients flow through the returned *output sequence* only.
The final (h, c) values are returned as plain arrays for state
threading; callers needing gradients through the final hidden state
should slice ``outputs[:, -1, :]`` (identical values).

Initial-state contract: ``h0`` / ``c0`` are **values**, not graph
nodes.  They may be plain arrays or non-grad Tensors; passing a
``requires_grad`` Tensor raises, because this primitive returns no
gradient for them — accepting one would silently truncate BPTT at the
window boundary when chaining windows through a carried hidden state.
A differentiable carried state needs the step-by-step
:class:`~repro.nn.layers.recurrent.LSTMCell` loop instead.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit as _sigmoid

from .tensor import Tensor

__all__ = ["lstm_layer_forward"]


def _as_state_array(state: "np.ndarray | Tensor | None", batch: int, hidden: int, name: str) -> np.ndarray:
    """Validate an initial-state argument and return it as a float64 array."""
    if state is None:
        return np.zeros((batch, hidden), dtype=np.float64)
    if isinstance(state, Tensor):
        if state.requires_grad:
            raise ValueError(
                f"lstm_layer_forward received a requires_grad Tensor as {name}: "
                "the fused LSTM backward returns gradients only for "
                "(x, weight_ih, weight_hh, bias), so a differentiable initial "
                "state would be silently truncated out of BPTT. Pass plain "
                "values (array or non-grad Tensor), or step an LSTMCell "
                "to keep a gradient path through the carried state."
            )
        state = state.data
    return np.asarray(state, dtype=np.float64)


def _lstm_forward_kernel(
    x_data: np.ndarray,
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    b: np.ndarray,
    h: np.ndarray,
    c: np.ndarray,
    gates_x: np.ndarray,
    outputs: np.ndarray,
    caches: dict[str, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Run the gate chain, filling ``outputs`` / ``caches`` in place.

    Shared by the eager op (fresh buffers) and the compiled replay path
    (record-time buffers) so both produce bit-identical activations.
    The caches are time-major, (T, B, H), so each step writes (and BPTT
    reads) one contiguous block.  ``h`` / ``c`` are read, never written.
    Returns the final state.
    """
    steps = x_data.shape[1]
    hidden = w_hh.shape[1]
    # Input contribution for every step at once: (B, T, 4H).
    np.matmul(x_data, w_ih.T, out=gates_x)
    gates_x += b
    i_cache = caches["i"]
    f_cache = caches["f"]
    g_cache = caches["g"]
    o_cache = caches["o"]
    c_prev_cache = caches["c_prev"]
    tanh_c_cache = caches["tanh_c"]
    h_prev_cache = caches["h_prev"]

    for t in range(steps):
        gates = gates_x[:, t, :] + h @ w_hh.T
        i_gate = _sigmoid(gates[:, 0 * hidden : 1 * hidden])
        f_gate = _sigmoid(gates[:, 1 * hidden : 2 * hidden])
        g_gate = np.tanh(gates[:, 2 * hidden : 3 * hidden])
        o_gate = _sigmoid(gates[:, 3 * hidden : 4 * hidden])
        c_prev_cache[t] = c
        h_prev_cache[t] = h
        c = f_gate * c + i_gate * g_gate
        tanh_c = np.tanh(c)
        h = o_gate * tanh_c
        outputs[:, t] = h
        i_cache[t] = i_gate
        f_cache[t] = f_gate
        g_cache[t] = g_gate
        o_cache[t] = o_gate
        tanh_c_cache[t] = tanh_c

    return h.copy(), c.copy()


def lstm_layer_forward(
    x: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias: Tensor,
    h0: "np.ndarray | Tensor | None" = None,
    c0: "np.ndarray | Tensor | None" = None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Run one LSTM layer over a (B, T, I) sequence in a single graph node.

    Parameters
    ----------
    x:
        Input sequence tensor, shape (batch, time, input_size).
    weight_ih, weight_hh, bias:
        Gate parameters with the LSTMCell layout: (4H, I), (4H, H), (4H,)
        in [input, forget, cell, output] order.
    h0, c0:
        Optional initial state *values*, shape (batch, H); zeros if
        omitted.  Arrays or non-grad Tensors only — a ``requires_grad``
        Tensor raises (see the module docstring for the contract).

    Returns
    -------
    outputs:
        Tensor of hidden states, shape (batch, time, H), differentiable
        w.r.t. ``x`` and the three parameters.
    h_final, c_final:
        Final state as plain arrays (no gradient path; see module doc).
    """
    x_data = x.data
    if x_data.ndim != 3:
        raise ValueError(f"expected (batch, time, features) input, got shape {x_data.shape}")
    batch, steps, _ = x_data.shape
    hidden = weight_hh.data.shape[1]
    if weight_ih.data.shape[0] != 4 * hidden or bias.data.shape[0] != 4 * hidden:
        raise ValueError("gate parameter shapes are inconsistent")

    w_ih = weight_ih.data
    w_hh = weight_hh.data
    b = bias.data

    h = _as_state_array(h0, batch, hidden, "h0")
    c = _as_state_array(c0, batch, hidden, "c0")

    gates_x = np.empty((batch, steps, 4 * hidden), dtype=np.float64)
    outputs = np.empty((batch, steps, hidden), dtype=np.float64)
    # Time-major caches for backward (refreshed in place on compiled replay).
    caches = {
        name: np.empty((steps, batch, hidden), dtype=np.float64)
        for name in ("i", "f", "g", "o", "c_prev", "tanh_c", "h_prev")
    }

    h_final, c_final = _lstm_forward_kernel(
        x_data, w_ih, w_hh, b, h, c, gates_x, outputs, caches
    )
    i_cache = caches["i"]
    f_cache = caches["f"]
    g_cache = caches["g"]
    o_cache = caches["o"]
    c_prev_cache = caches["c_prev"]
    tanh_c_cache = caches["tanh_c"]
    h_prev_cache = caches["h_prev"]

    def backward(grad_out: np.ndarray):
        """BPTT over the cached gate activations."""
        grad_x = np.zeros_like(x_data, dtype=np.float64)
        grad_w_ih = np.zeros_like(w_ih, dtype=np.float64)
        grad_w_hh = np.zeros_like(w_hh, dtype=np.float64)
        grad_b = np.zeros_like(b, dtype=np.float64)
        dh_next = np.zeros((batch, hidden), dtype=np.float64)
        dc_next = np.zeros((batch, hidden), dtype=np.float64)
        dgates = np.empty((batch, 4 * hidden), dtype=np.float64)

        for t in range(steps - 1, -1, -1):
            i_gate = i_cache[t]
            f_gate = f_cache[t]
            g_gate = g_cache[t]
            o_gate = o_cache[t]
            tanh_c = tanh_c_cache[t]

            dh = grad_out[:, t] + dh_next
            do = dh * tanh_c
            dc = dc_next + dh * o_gate * (1.0 - tanh_c * tanh_c)
            di = dc * g_gate
            df = dc * c_prev_cache[t]
            dg = dc * i_gate
            dc_next = dc * f_gate

            dgates[:, 0 * hidden : 1 * hidden] = di * i_gate * (1.0 - i_gate)
            dgates[:, 1 * hidden : 2 * hidden] = df * f_gate * (1.0 - f_gate)
            dgates[:, 2 * hidden : 3 * hidden] = dg * (1.0 - g_gate * g_gate)
            dgates[:, 3 * hidden : 4 * hidden] = do * o_gate * (1.0 - o_gate)

            grad_x[:, t] = dgates @ w_ih
            dh_next = dgates @ w_hh
            grad_w_ih += dgates.T @ x_data[:, t]
            grad_w_hh += dgates.T @ h_prev_cache[t]
            grad_b += dgates.sum(axis=0)

        return grad_x, grad_w_ih, grad_w_hh, grad_b

    out = Tensor._make(
        outputs,
        (x, weight_ih, weight_hh, bias),
        backward,
        "lstm_fused",
        {"gates_x": gates_x, "caches": caches, "h0": h.copy(), "c0": c.copy()},
    )
    return out, h_final, c_final
