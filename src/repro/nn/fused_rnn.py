"""Fused single-layer LSTM: one autograd node for a whole sequence pass.

The composable :class:`~repro.nn.layers.recurrent.LSTMCell` builds ~30
graph nodes per timestep; at alpha = 12 steps and 2 layers a single
training step touches ~1500 Python closures, which dominates wall time
on small models.  This module implements the same math as one primitive
with a hand-written backward-through-time, cutting the per-step node
count to one per layer.  The whole gate chain (two matmuls, three
sigmoids, two tanhs and the cell update) lives in one kernel — this is
the "fused LSTM-gate chain" the compiled replay path reuses verbatim.

Layout: the kernel works time-major.  The input projection of all T
steps is one 2-D gemm over the (T*B, I) rows into a (T, B, 4H) buffer;
step t adds its recurrent product to block t and writes the gate
activations back over that block as four contiguous (B, H) slabs
``i, f, g, o``, which BPTT reads together with the (T, B, H) ``tanh(c)``
and the (T + 1, B, H) hidden and cell states.  Every step writes into
preallocated buffers with ``out=`` and keeps the floating-point
operations, and their order, of the step-by-step cell, so the outputs
and gradients are bitwise those of the original batch-major kernel
(``tests/nn/test_kernel_oracles.py``).  The input gradient is returned
time-major too, as a (B, T, I) view.  Inside
:func:`repro.nn.reuse_arrays` the buffers the graph keeps (the gate
buffer, ``tanh(c)``, the states and the output) come from the
step loop's free list; the served replay runs the same kernel with
``caches=None``, two ping-pong state slots instead of the BPTT caches.

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

from . import pool
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
    h0: np.ndarray,
    c0: np.ndarray,
    gates_x: np.ndarray,
    outputs: np.ndarray,
    caches: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the gate chain, filling ``gates_x``, ``outputs`` and ``caches`` in place.

    Shared by the eager op and the compiled replay, so both produce
    bit-identical activations.  ``gates_x`` is time-major, (T, B, 4H):
    it receives the input projection of every step, and step ``t``, once
    it has read its block, refills that block with its gate activations
    as four contiguous (B, H) slabs ``i, f, g, o``, which BPTT reads.
    ``caches`` is ``(tanh_c, states)``: the (T, B, H)
    ``tanh(c)`` of every step and the (2, T + 1, B, H) hidden and cell
    states, step 0 the initial state.  With ``caches=None`` (the replay,
    which has no backward) the states ping-pong between two (B, H)
    slots and ``tanh(c)`` uses one.  ``h0`` / ``c0`` are read, never
    written.  Returns the final state.
    """
    steps, batch, _ = gates_x.shape
    hidden, inputs = w_hh.shape[1], w_ih.shape[1]
    # Input contribution for every step in one gemm over the (T*B, I) rows.
    x_rows = np.ascontiguousarray(x_data.transpose(1, 0, 2)).reshape(steps * batch, inputs)
    np.matmul(x_rows, w_ih.T, out=gates_x.reshape(steps * batch, 4 * hidden))
    gates_x += b
    if caches is None:
        caches = (np.empty((1, batch, hidden)), np.empty((2, 2, batch, hidden)))
    tanh_c_cache, (h_states, c_states) = caches
    h_states[0] = h0
    c_states[0] = c0
    cell_slots = tanh_c_cache.shape[0]
    state_slots = h_states.shape[0]
    gates = np.empty((batch, 4 * hidden))
    i_in, f_in, g_in, o_in = (gates[:, k * hidden : (k + 1) * hidden] for k in range(4))
    w_hh_t = w_hh.T

    for t in range(steps):
        h, c = h_states[t % state_slots], c_states[t % state_slots]
        h_next, c_next = h_states[(t + 1) % state_slots], c_states[(t + 1) % state_slots]
        tanh_c = tanh_c_cache[t % cell_slots]
        np.matmul(h, w_hh_t, out=gates)
        np.add(gates_x[t], gates, out=gates)
        i_gate, f_gate, g_gate, o_gate = gates_x[t].reshape(4, batch, hidden)
        _sigmoid(i_in, out=i_gate)
        _sigmoid(f_in, out=f_gate)
        np.tanh(g_in, out=g_gate)
        _sigmoid(o_in, out=o_gate)
        # c' = f * c + i * g, with i * g parked in the tanh(c') slot.
        np.multiply(f_gate, c, out=c_next)
        np.multiply(i_gate, g_gate, out=tanh_c)
        np.add(c_next, tanh_c, out=c_next)
        np.tanh(c_next, out=tanh_c)
        np.multiply(o_gate, tanh_c, out=h_next)
        outputs[:, t] = h_next

    return h_states[steps % state_slots].copy(), c_states[steps % state_slots].copy()


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
    batch, steps, inputs = x_data.shape
    hidden = weight_hh.data.shape[1]
    if weight_ih.data.shape[0] != 4 * hidden or bias.data.shape[0] != 4 * hidden:
        raise ValueError("gate parameter shapes are inconsistent")

    w_ih = weight_ih.data
    w_hh = weight_hh.data
    b = bias.data

    h = _as_state_array(h0, batch, hidden, "h0")
    c = _as_state_array(c0, batch, hidden, "c0")

    gates_x = pool.empty((steps, batch, 4 * hidden))
    outputs = pool.empty((batch, steps, hidden))
    tanh_c_cache = pool.empty((steps, batch, hidden))
    states = pool.empty((2, steps + 1, batch, hidden))
    h_final, c_final = _lstm_forward_kernel(
        x_data, w_ih, w_hh, b, h, c, gates_x, outputs, (tanh_c_cache, states)
    )

    def backward(grad_out: np.ndarray):
        """BPTT over the cached gate activations, every temporary preallocated."""
        h_states, c_states = states
        # Time-major, so each step's input gradient is one contiguous gemm output.
        grad_x = np.empty((steps, batch, inputs)) if x.requires_grad else None
        grad_w_ih = np.zeros_like(w_ih, dtype=np.float64)
        grad_w_hh = np.zeros_like(w_hh, dtype=np.float64)
        grad_b = np.zeros_like(b, dtype=np.float64)
        step_w_ih = np.empty_like(grad_w_ih)
        step_w_hh = np.empty_like(grad_w_hh)
        step_b = np.empty_like(grad_b)
        dh_next = np.zeros((batch, hidden), dtype=np.float64)
        dc_next = np.zeros((batch, hidden), dtype=np.float64)
        dh, dc, term, scratch = np.empty((4, batch, hidden))
        dgates = np.empty((batch, 4 * hidden), dtype=np.float64)
        d_i, d_f, d_g, d_o = (dgates[:, k * hidden : (k + 1) * hidden] for k in range(4))
        dgates_t = dgates.T

        for t in range(steps - 1, -1, -1):
            i_gate, f_gate, g_gate, o_gate = gates_x[t].reshape(4, batch, hidden)
            tanh_c = tanh_c_cache[t]

            np.add(grad_out[:, t], dh_next, out=dh)
            # dc = dc_next + dh * o * (1 - tanh_c * tanh_c)
            np.multiply(dh, o_gate, out=term)
            np.multiply(tanh_c, tanh_c, out=dc)
            np.subtract(1.0, dc, out=dc)
            np.multiply(term, dc, out=dc)
            np.add(dc_next, dc, out=dc)
            # d_i = dc * g * i * (1 - i)
            np.multiply(dc, g_gate, out=term)
            np.multiply(term, i_gate, out=term)
            np.subtract(1.0, i_gate, out=scratch)
            np.multiply(term, scratch, out=d_i)
            # d_f = dc * c_prev * f * (1 - f)
            np.multiply(dc, c_states[t], out=term)
            np.multiply(term, f_gate, out=term)
            np.subtract(1.0, f_gate, out=scratch)
            np.multiply(term, scratch, out=d_f)
            # d_g = dc * i * (1 - g * g)
            np.multiply(dc, i_gate, out=term)
            np.multiply(g_gate, g_gate, out=scratch)
            np.subtract(1.0, scratch, out=scratch)
            np.multiply(term, scratch, out=d_g)
            # d_o = dh * tanh_c * o * (1 - o)
            np.multiply(dh, tanh_c, out=term)
            np.multiply(term, o_gate, out=term)
            np.subtract(1.0, o_gate, out=scratch)
            np.multiply(term, scratch, out=d_o)
            np.multiply(dc, f_gate, out=dc_next)

            if grad_x is not None:
                np.matmul(dgates, w_ih, out=grad_x[t])
            np.matmul(dgates, w_hh, out=dh_next)
            grad_w_ih += np.matmul(dgates_t, x_data[:, t], out=step_w_ih)
            grad_w_hh += np.matmul(dgates_t, h_states[t], out=step_w_hh)
            grad_b += np.sum(dgates, axis=0, out=step_b)

        if grad_x is not None:
            grad_x = grad_x.transpose(1, 0, 2)
        return grad_x, grad_w_ih, grad_w_hh, grad_b

    out = Tensor._make(
        outputs,
        (x, weight_ih, weight_hh, bias),
        backward,
        "lstm_fused",
        {"gates_x": gates_x, "h0": h.copy(), "c0": c.copy()},
    )
    return out, h_final, c_final
