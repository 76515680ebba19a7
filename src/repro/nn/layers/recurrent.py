"""Recurrent layers: LSTMCell and multi-layer LSTM.

The LSTM follows Hochreiter & Schmidhuber (1997) with the standard
forget/input/cell/output gate parameterisation.  :class:`LSTMCell` is one
step as composable tensor ops; :class:`LSTM` runs each layer over the
whole sequence as one fused node with a hand-written BPTT (truncated
BPTT is unnecessary at the paper's sequence length of alpha = 12).
"""

from __future__ import annotations

import math

import numpy as np

from .. import init
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """A single LSTM step.

    Weight layout: ``weight_ih`` (4*hidden, input), ``weight_hh``
    (4*hidden, hidden); gate order is [input, forget, cell, output].
    The forget-gate bias is initialised to 1 (Jozefowicz et al., 2015).
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        bound = 1.0 / math.sqrt(hidden_size)
        self.weight_ih = Parameter(init.uniform((4 * hidden_size, input_size), rng, bound))
        self.weight_hh = Parameter(init.uniform((4 * hidden_size, hidden_size), rng, bound))
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate bias
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        """Advance one step.

        Parameters
        ----------
        x:
            Input of shape (batch, input_size).
        state:
            Tuple (h, c) each of shape (batch, hidden_size).
        """
        h_prev, c_prev = state
        gates = x @ self.weight_ih.T + h_prev @ self.weight_hh.T + self.bias
        hs = self.hidden_size
        i_gate = gates[:, 0 * hs : 1 * hs].sigmoid()
        f_gate = gates[:, 1 * hs : 2 * hs].sigmoid()
        g_gate = gates[:, 2 * hs : 3 * hs].tanh()
        o_gate = gates[:, 3 * hs : 4 * hs].sigmoid()
        c_next = f_gate * c_prev + i_gate * g_gate
        h_next = o_gate * c_next.tanh()
        return h_next, c_next

    def initial_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        """Zero (h, c) state for a batch."""
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())


class LSTM(Module):
    """Multi-layer LSTM over a (batch, time, features) sequence.

    Returns the full top-layer output sequence and the final (h, c) of
    every layer, mirroring the usual framework contract.

    Each layer runs through the single-node
    :func:`repro.nn.fused_rnn.lstm_layer_forward` with the weights of its
    :class:`LSTMCell`.  The returned per-layer state carries values but
    no gradient path (slice ``outputs[:, -1, :]`` when the final hidden
    state must be differentiable), and an initial state must be values:
    a ``requires_grad`` state raises instead of being silently cut out
    of BPTT.
    """

    def __init__(
        self,
        input_size: int,
        hidden_sizes: int | list[int],
        num_layers: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        if isinstance(hidden_sizes, int):
            hidden_sizes = [hidden_sizes] * (num_layers or 1)
        elif num_layers is not None and len(hidden_sizes) != num_layers:
            raise ValueError("len(hidden_sizes) must equal num_layers")
        self.input_size = input_size
        self.hidden_sizes = list(hidden_sizes)
        sizes = [input_size] + self.hidden_sizes
        from .container import ModuleList

        self.cells = ModuleList(
            LSTMCell(sizes[i], sizes[i + 1], rng=rng) for i in range(len(self.hidden_sizes))
        )

    def forward(
        self, x: Tensor, state: list[tuple[Tensor, Tensor]] | None = None
    ) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
        """Run the stack over a full sequence.

        Parameters
        ----------
        x:
            Input of shape (batch, time, input_size).
        state:
            Optional initial per-layer (h, c) values; zeros if omitted.

        Returns
        -------
        outputs:
            Top-layer hidden states, shape (batch, time, hidden_sizes[-1]).
        state:
            Final (h, c) per layer.
        """
        from ..fused_rnn import lstm_layer_forward

        if x.ndim != 3:
            raise ValueError(f"LSTM expects (batch, time, features), got {x.shape}")
        layer_input = x
        new_state: list[tuple[Tensor, Tensor]] = []
        for layer, cell in enumerate(self.cells):
            h0, c0 = state[layer] if state is not None else (None, None)
            layer_input, h_final, c_final = lstm_layer_forward(
                layer_input, cell.weight_ih, cell.weight_hh, cell.bias, h0, c0
            )
            new_state.append((Tensor(h_final), Tensor(c_final)))
        return layer_input, new_state
