"""Compiled forward replay for the served batched forward.

A served forward runs the same predictor on the same padded batch shape
over and over; eagerly, every call rebuilds the same computation graph
(thousands of ``Tensor._make`` closures) and allocates a fresh output
array per op.  This module removes that overhead.

A :class:`CompiledFunction` wraps a pure tensor function ``fn(*inputs)``.
Its first call *records*: the function runs eagerly while a trace hook
captures every graph node (output tensor plus the op's ``meta`` replay
state).  From the record a :class:`CompiledTape` is built: a flat program
of replay rules that re-execute the same numpy kernels into the
*recorded* buffers (``out=`` / ``copyto``), so a replayed forward
allocates nothing and builds no graph.  Replays are forward-only:
nothing backpropagates through them, and every gradient comes from
eager autograd.

Safety model — trust is earned, never assumed:

* call 1: record.  The caller gets an ordinary eager run.
* calls 2 and 3: *validate* — replay and an eager run side by side, all
  outputs compared **bitwise** (``tobytes``).  Any mismatch or replay
  exception permanently rejects the tape and the function stays eager.
* after two clean validations the tape is trusted; from then on calls
  are pure replay.

Fallback rules (always to correct eager execution):

* unknown op, or a construct with no replay rule (``max()`` over all
  elements) — the tape build raises :class:`TapeUnsupported` and the
  tape is rejected;
* untraced values baked into the graph (e.g. a softmax shift constant
  ``z - z.data.max(axis=1, keepdims=True)`` read from the input values,
  or data-dependent Python control flow inside ``fn``) — caught by
  bitwise validation;
* an input-shape signature other than the recorded one — plain eager
  (one function serves one batch shape);
* ``no_grad()`` active, or another CompiledFunction currently recording
  — plain eager.

Buffer lifetime: a replay's output tensors alias the tape's preallocated
buffers, so they are only valid until the next call of the same
CompiledFunction.  Read or copy what you need before calling again.
Parameter tensors are shared with the live modules; in-place updates
(``param.data -= ...``) keep the recorded references current.

``fn`` must be straight-line tensor code: no side effects, and any
Python-level branching on tensor *values* is frozen at record time
(divergence is caught by validation only if it changes the outputs).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import tensor as _tensor_module
from .fused_rnn import _lstm_forward_kernel
from .ops import _conv2d_forward
from .tensor import Tensor, _set_trace_hook, is_grad_enabled, no_grad

__all__ = ["CompiledFunction", "CompiledTape", "CompiledRun", "TapeUnsupported"]

#: Clean validation passes required before a forward-only tape is trusted.
_FORWARD_TRUST_PASSES = 2


class TapeUnsupported(RuntimeError):
    """Raised at tape build when a recorded op has no replay rule."""


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact equality including NaN payloads and signed zeros."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Replay rules
#
# Each rule factory receives the recorded node (output tensor, parents and
# meta) and returns a zero-argument callable that recomputes the op into
# the recorded output buffer.  Rules must be *bitwise* reproductions of
# the eager forward.  Derived arrays the forward itself reads (a relu
# mask, a leaky-relu scale, a conv patch matrix) are recorded buffers
# reused as scratch.  A replay has no backward, so the abs, clip and
# maximum rules skip the masks only a backward reads, and the fused LSTM
# kernel runs without its BPTT caches.
# ---------------------------------------------------------------------------

_RULES: dict[str, Callable] = {}


def _rule(name: str):
    def register(factory):
        _RULES[name] = factory
        return factory

    return register


def _binary_ufunc(ufunc):
    def factory(out, parents, meta):
        a, b, o = parents[0].data, parents[1].data, out.data

        def run():
            ufunc(a, b, out=o)

        return run

    return factory


_RULES["add"] = _binary_ufunc(np.add)
_RULES["sub"] = _binary_ufunc(np.subtract)
_RULES["mul"] = _binary_ufunc(np.multiply)
_RULES["div"] = _binary_ufunc(np.divide)
_RULES["matmul"] = _binary_ufunc(np.matmul)


def _unary_ufunc(ufunc):
    def factory(out, parents, meta):
        a, o = parents[0].data, out.data

        def run():
            ufunc(a, out=o)

        return run

    return factory


_RULES["neg"] = _unary_ufunc(np.negative)
_RULES["exp"] = _unary_ufunc(np.exp)
_RULES["log"] = _unary_ufunc(np.log)
_RULES["sqrt"] = _unary_ufunc(np.sqrt)
_RULES["tanh"] = _unary_ufunc(np.tanh)


@_rule("pow")
def _rule_pow(out, parents, meta):
    a, o = parents[0].data, out.data
    exponent = meta["exponent"]

    def run():
        np.power(a, exponent, out=o)

    return run


@_rule("sigmoid")
def _rule_sigmoid(out, parents, meta):
    a, o = parents[0].data, out.data

    def run():
        # Same stable form as Tensor.sigmoid, for bit-identical values.
        positive = a >= 0
        exp_neg_abs = np.exp(-np.abs(a))
        np.copyto(
            o,
            np.where(positive, 1.0 / (1.0 + exp_neg_abs), exp_neg_abs / (1.0 + exp_neg_abs)),
        )

    return run


@_rule("relu")
def _rule_relu(out, parents, meta):
    a, o = parents[0].data, out.data
    mask = meta["mask"]  # bool scratch: eager computes a * (a > 0)

    def run():
        np.greater(a, 0, out=mask)
        np.multiply(a, mask, out=o)

    return run


@_rule("leaky_relu")
def _rule_leaky_relu(out, parents, meta):
    a, o = parents[0].data, out.data
    scale = meta["scale"]  # scratch: eager computes a * scale
    slope = meta["slope"]

    def run():
        scale.fill(slope)
        np.copyto(scale, 1.0, where=a > 0)
        np.multiply(a, scale, out=o)

    return run


@_rule("abs")
def _rule_abs(out, parents, meta):
    a, o = parents[0].data, out.data

    def run():
        np.abs(a, out=o)

    return run


@_rule("clip")
def _rule_clip(out, parents, meta):
    a, o = parents[0].data, out.data
    low, high = meta["low"], meta["high"]

    def run():
        np.clip(a, low, high, out=o)

    return run


@_rule("sum")
def _rule_sum(out, parents, meta):
    a, o = parents[0].data, out.data
    axis, keepdims = meta["axis"], meta["keepdims"]

    def run():
        np.sum(a, axis=axis, keepdims=keepdims, out=o)

    return run


@_rule("mean")
def _rule_mean(out, parents, meta):
    a, o = parents[0].data, out.data
    axis, keepdims = meta["axis"], meta["keepdims"]

    def run():
        np.mean(a, axis=axis, keepdims=keepdims, out=o)

    return run


@_rule("max")
def _rule_max(out, parents, meta):
    if meta["axis"] is None:
        # No served model reduces over every element, so the op keeps no
        # rule rather than an untested one.
        raise TapeUnsupported("max() over all elements is not replayable")
    a, o = parents[0].data, out.data
    axis, keepdims = meta["axis"], meta["keepdims"]

    def run():
        np.amax(a, axis=axis, keepdims=keepdims, out=o)

    return run


@_rule("concat")
def _rule_concat(out, parents, meta):
    arrays = [p.data for p in parents]
    o = out.data
    axis = meta["axis"]

    def run():
        np.concatenate(arrays, axis=axis, out=o)

    return run


@_rule("stack")
def _rule_stack(out, parents, meta):
    arrays = [p.data for p in parents]
    o = out.data
    axis = meta["axis"]

    def run():
        np.stack(arrays, axis=axis, out=o)

    return run


@_rule("pad2d")
def _rule_pad2d(out, parents, meta):
    a, o = parents[0].data, out.data
    pads = meta["pads"]
    interior = tuple(
        slice(p[0], o.shape[i] - p[1] if p[1] else None) for i, p in enumerate(pads)
    )

    def run():
        # The zero borders were written at record time and never touched.
        o[interior] = a

    return run


@_rule("maximum")
def _rule_maximum(out, parents, meta):
    a, b, o = parents[0].data, parents[1].data, out.data

    def run():
        np.maximum(a, b, out=o)

    return run


@_rule("conv2d")
def _rule_conv2d(out, parents, meta):
    x = parents[0].data
    weight = parents[1].data
    bias = parents[2].data if len(parents) == 3 else None
    o = out.data
    cols_flat = meta["cols_flat"]  # patch-matrix scratch
    stride = meta["stride"]

    def run():
        new_out, _, _, _ = _conv2d_forward(x, weight, bias, stride, cols_flat)
        np.copyto(o, new_out)

    return run


@_rule("lstm_fused")
def _rule_lstm_fused(out, parents, meta):
    x, w_ih, w_hh, b = (p.data for p in parents)
    o = out.data
    gates_x = meta["gates_x"]  # time-major input projection scratch
    h0, c0 = meta["h0"], meta["c0"]  # record-time initial state values

    def run():
        # No caches: nothing reads BPTT state on replay.
        _lstm_forward_kernel(x, w_ih, w_hh, b, h0, c0, gates_x, o)

    return run


# View ops: when the output buffer shares memory with the parent, the
# replayed parent update propagates automatically and the node needs no
# program step.  A copying instance falls back to an explicit refresh.
_VIEW_OPS = {"reshape", "transpose", "getitem", "squeeze", "unsqueeze"}


def _view_rule(out, parents, meta, op):
    a, o = parents[0].data, out.data
    if np.may_share_memory(o, a):
        return None  # true view; nothing to do on replay
    if op == "getitem":
        index = meta["index"]

        def run():
            np.copyto(o, a[index])

        return run
    if op == "transpose":
        axes = meta["axes"]

        def run():
            np.copyto(o, a.transpose(axes))

        return run

    # reshape / squeeze / unsqueeze preserve element order.
    def run():
        np.copyto(o, a.reshape(o.shape))

    return run


# ---------------------------------------------------------------------------
# Fusion
# ---------------------------------------------------------------------------

#: Ops eligible for chain fusion.  A chain is a producer→consumer run of
#: program steps (``next.parents[0] is current.out``); fusing collapses
#: the per-step program dispatch into a single entry running the same
#: kernels back to back — this is how a Linear→activation pair or the
#: matmul→(+bias)→gate chain around ``lstm_fused`` executes as one unit.
_FUSIBLE = {
    "matmul",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "relu",
    "leaky_relu",
    "tanh",
    "sigmoid",
    "exp",
    "lstm_fused",
}


class _FusedChain:
    """A maximal producer→consumer run of replay steps as one call."""

    __slots__ = ("steps", "ops")

    def __init__(self, steps: list[Callable], ops: list[str]):
        self.steps = steps
        self.ops = ops

    def __call__(self):
        for step in self.steps:
            step()


def _fuse(entries: list[tuple[str, Tensor, tuple, Callable]]) -> tuple[list[Callable], int]:
    """Collapse fusible chains; returns (program, chains_fused)."""
    program: list[Callable] = []
    fused = 0
    i = 0
    while i < len(entries):
        op, node, _, step = entries[i]
        j = i + 1
        chain = [step]
        ops = [op]
        prev = node
        while (
            j < len(entries)
            and entries[j][0] in _FUSIBLE
            and ops[-1] in _FUSIBLE
            and entries[j][2]
            and entries[j][2][0] is prev
        ):
            chain.append(entries[j][3])
            ops.append(entries[j][0])
            prev = entries[j][1]
            j += 1
        if len(chain) > 1:
            program.append(_FusedChain(chain, ops))
            fused += 1
        else:
            program.append(step)
        i = j
    return program, fused


# ---------------------------------------------------------------------------
# The tape
# ---------------------------------------------------------------------------


def _owner(array: np.ndarray) -> np.ndarray:
    """The array that owns ``array``'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _record_arrays(records):
    """Every op output and replay-state array of a recording, nested meta included."""
    for node, _, _, meta in records:
        yield node.data
        yield from _meta_arrays(meta)


def _meta_arrays(value):
    """The arrays of a meta value: an array, or any list, tuple or dict of them."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _meta_arrays(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _meta_arrays(item)


class CompiledTape:
    """A recorded forward replayable into its own preallocated buffers.

    Built from one traced execution; :meth:`forward` refreshes the input
    leaf buffers and re-runs every op kernel in recording order (which is
    a valid topological order — parents are created before children).
    """

    def __init__(
        self,
        inputs: Sequence[Tensor],
        outputs: Sequence[Tensor],
        records: Sequence[tuple[Tensor, tuple, str, dict | None]],
    ):
        self.inputs = list(inputs)
        # Values only: the recorded graph's backward closures hold state
        # (the fused LSTM's BPTT caches) that no replay reads.
        self.outputs = tuple(output.detach() for output in outputs)
        self._input_buffers = [t.data for t in self.inputs]
        # An input whose memory no recorded array shares (e.g. the images
        # of a model that only reads the flat features) cannot change an
        # output: replay skips refreshing its buffer.
        referenced = {id(_owner(array)) for array in _record_arrays(records)}
        referenced.update(
            id(_owner(parent.data)) for _, parents, _, _ in records for parent in parents
        )
        referenced.update(id(_owner(t.data)) for t in self.outputs)
        self._refreshed = [
            (index, buffer)
            for index, buffer in enumerate(self._input_buffers)
            if id(_owner(buffer)) in referenced
        ]

        entries: list[tuple[str, Tensor, tuple, Callable]] = []
        for node, parents, op, meta in records:
            meta = meta or {}
            if op in _VIEW_OPS:
                step = _view_rule(node, parents, meta, op)
                if step is None:
                    continue
            else:
                factory = _RULES.get(op)
                if factory is None:
                    raise TapeUnsupported(f"op {op!r} has no replay rule")
                step = factory(node, parents, meta)
            entries.append((op, node, parents, step))
        self._program, self.chains_fused = _fuse(entries)
        self.num_steps = len(entries)
        self.nbytes = self._retained_nbytes(records)

    def _retained_nbytes(self, records) -> int:
        """Bytes of the buffers this tape holds: inputs, op outputs and replay state.

        Each array counts once, through the array that owns its memory;
        arrays owned by leaves outside the tape (the model's parameters)
        do not count.
        """
        nodes = {id(node) for node, _, _, _ in records}
        nodes.update(id(t) for t in self.inputs)
        external = {
            id(_owner(parent.data))
            for _, parents, _, _ in records
            for parent in parents
            if id(parent) not in nodes
        }
        arrays = [*self._input_buffers, *_record_arrays(records)]
        owned = {id(root): root for root in map(_owner, arrays) if id(root) not in external}
        return sum(root.nbytes for root in owned.values())

    def forward(self, arrays: Sequence[np.ndarray]) -> tuple[Tensor, ...]:
        """Refresh input buffers and replay the program in place."""
        if len(arrays) != len(self._input_buffers):
            raise ValueError(f"expected {len(self._input_buffers)} inputs, got {len(arrays)}")
        for index, buffer in self._refreshed:
            np.copyto(buffer, arrays[index])
        for step in self._program:
            step()
        return self.outputs


# ---------------------------------------------------------------------------
# The compiled function
# ---------------------------------------------------------------------------

_VALIDATING, _TRUSTED, _REJECTED = "validating", "trusted", "rejected"


class _Entry:
    __slots__ = ("tape", "state", "forward_passes", "reason")

    def __init__(self, tape: CompiledTape | None):
        self.tape = tape
        self.state = _VALIDATING if tape is not None else _REJECTED
        self.forward_passes = 0
        self.reason: str | None = None


class CompiledRun:
    """One execution of a CompiledFunction.

    ``outputs`` are Tensors; on a replay they alias the tape's buffers
    and stay valid only until the function's next call.  ``mode`` is one
    of ``eager`` / ``record`` / ``validate`` / ``replay``.
    """

    __slots__ = ("outputs", "mode")

    def __init__(self, outputs: tuple[Tensor, ...], mode: str):
        self.outputs = outputs
        self.mode = mode


class CompiledFunction:
    """Record/validate/replay wrapper around a pure tensor function.

    ``fn`` maps input Tensors to a Tensor or tuple of Tensors and must be
    straight-line tensor code (see module doc); ``name`` labels it in
    diagnostics.  The first input-shape signature gets the one tape;
    any other shape runs eager.
    """

    def __init__(self, fn: Callable[..., Tensor | tuple[Tensor, ...]], name: str = "compiled_fn"):
        self.fn = fn
        self.name = name
        self._entries: dict[tuple, _Entry] = {}
        self.stats = {"record": 0, "validate": 0, "replay": 0, "eager": 0, "rejected": 0}

    # -- public -------------------------------------------------------
    def __call__(self, *arrays: np.ndarray) -> CompiledRun:
        arrays = tuple(np.asarray(a) for a in arrays)
        if not is_grad_enabled() or _tensor_module._TRACE_HOOK is not None:
            # no_grad, or another CompiledFunction is recording through
            # us — replaying under a foreign trace would corrupt its tape.
            return self._eager_run(arrays)
        key = tuple(a.shape for a in arrays)
        entry = self._entries.get(key)
        if entry is None:
            if self._entries:
                return self._eager_run(arrays)
            return self._record(key, arrays)
        if entry.state == _REJECTED:
            return self._eager_run(arrays)
        if entry.state == _TRUSTED:
            return self._replay_run(entry, arrays)
        if entry.forward_passes >= _FORWARD_TRUST_PASSES:
            entry.state = _TRUSTED
            return self._replay_run(entry, arrays)
        return self._validate_run(entry, arrays)

    def states(self) -> dict[tuple, str]:
        """Shape key → tape state, for tests and diagnostics."""
        return {key: entry.state for key, entry in self._entries.items()}

    def tape_info(self) -> dict[tuple, dict]:
        """Shape key → tape state, rejection reason and retained bytes."""
        return {
            key: {
                "state": entry.state,
                "reason": entry.reason,
                "nbytes": entry.tape.nbytes if entry.tape is not None else 0,
            }
            for key, entry in self._entries.items()
        }

    # -- execution paths ----------------------------------------------
    def _call_fn(self, inputs) -> tuple[Tensor, ...]:
        outputs = self.fn(*inputs)
        return outputs if isinstance(outputs, tuple) else (outputs,)

    def _eager_outputs(self, arrays) -> tuple[Tensor, ...]:
        with no_grad():
            return self._call_fn([Tensor(array) for array in arrays])

    def _eager_run(self, arrays) -> CompiledRun:
        self.stats["eager"] += 1
        return CompiledRun(self._eager_outputs(arrays), "eager")

    def _record(self, key, arrays) -> CompiledRun:
        self.stats["record"] += 1
        # Record on private copies: replay refreshes these buffers via
        # copyto, which must never write through to caller arrays.
        inputs = [Tensor(np.array(array, dtype=np.float64, copy=True)) for array in arrays]
        records: list[tuple[Tensor, tuple, str, dict | None]] = []
        _set_trace_hook(lambda out, parents, op, meta: records.append((out, parents, op, meta)))
        try:
            outputs = self._call_fn(inputs)
        finally:
            _set_trace_hook(None)
        try:
            self._entries[key] = _Entry(CompiledTape(inputs, outputs, records))
        except TapeUnsupported as exc:
            entry = _Entry(None)
            entry.reason = str(exc)
            self._entries[key] = entry
            self.stats["rejected"] += 1
        # Either way this execution was a plain eager run of fn.
        return CompiledRun(outputs, "record")

    def _replay_run(self, entry: _Entry, arrays) -> CompiledRun:
        self.stats["replay"] += 1
        return CompiledRun(entry.tape.forward(arrays), "replay")

    def _reject(self, entry: _Entry, reason: str) -> None:
        entry.state = _REJECTED
        entry.tape = None
        entry.reason = reason
        self.stats["rejected"] += 1

    def _validate_run(self, entry: _Entry, arrays) -> CompiledRun:
        """Replay and eager side by side; any divergence rejects the tape."""
        self.stats["validate"] += 1
        try:
            tape_outputs = entry.tape.forward(arrays)
        except Exception as exc:  # noqa: BLE001 - any replay fault → eager
            self._reject(entry, f"replay forward raised: {exc!r}")
            return self._eager_run(arrays)

        # Snapshot replay outputs before the eager pass (shared-parameter
        # models make both graphs read the same live buffers).
        replay_values = [np.array(out.data, copy=True) for out in tape_outputs]
        eager_outputs = self._eager_outputs(arrays)
        for replayed, eager in zip(replay_values, eager_outputs):
            if not _bitwise_equal(replayed, eager.data):
                self._reject(entry, "forward replay diverged from eager")
                return CompiledRun(eager_outputs, "eager")
        entry.forward_passes += 1
        return CompiledRun(eager_outputs, "validate")
