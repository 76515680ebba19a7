"""Compiled tape replay for the autograd hot path.

Training loops on the numpy substrate spend most of their wall time not
in BLAS but in Python: every step rebuilds the same computation graph —
thousands of ``Tensor._make`` closures — and allocates a fresh output
array per op.  This module removes that overhead for shape-stable loops.

A :class:`CompiledFunction` wraps a pure tensor function ``fn(*inputs)``.
The first call with a given input-shape signature *records*: the function
runs eagerly while a trace hook captures every graph node (output tensor
plus the op's ``meta`` replay state).  From the record a
:class:`CompiledTape` is built — a flat program of replay rules that
re-execute the same numpy kernels into the *recorded* buffers (``out=``
/ ``copyto``), so a replayed forward allocates nothing and builds no
graph.  Backward replays the recorded closures over a cached topological
schedule, which makes it bit-identical to eager by construction: the
closures read the very buffers the forward refreshed.

Safety model — trust is earned, never assumed:

* call 1 (per shape key): record.  The caller gets an ordinary eager run.
* subsequent calls: *validate* — replay and eager run side by side, all
  outputs (and, when ``backward`` is invoked, all parameter and input
  gradients) compared **bitwise** (``tobytes``).  Any mismatch or replay
  exception permanently rejects the tape and the function stays eager.
* a verified backward pass (or two clean forward passes for
  ``forward_only`` functions) promotes the tape to trusted; from then on
  calls are pure replay.

Fallback rules (always to correct eager execution):

* unknown op, or a construct the tape cannot replay (e.g. ``max()`` over
  all elements, whose backward closes over an immutable scalar) — the
  tape build raises :class:`TapeUnsupported` and the key is rejected;
* untraced values baked into the graph (e.g. a softmax shift constant
  ``z - z.data.max(axis=1, keepdims=True)`` read from the input values,
  or data-dependent Python control flow inside ``fn``) — caught by
  bitwise validation;
* a new input-shape signature — a fresh tape is recorded, up to
  ``max_tapes`` keys; beyond that, new shapes run plain eager;
* ``no_grad()`` active, or another CompiledFunction currently recording
  — plain eager.

Buffer lifetime: a run's output tensors alias the tape's preallocated
buffers, so they are only valid until the next call of the same
CompiledFunction with the same shape key.  Read or copy what you need
before calling again.  Parameter tensors are shared with the live
modules; in-place optimiser updates (``param.data -= ...``) keep the
recorded references current.

``fn`` must be straight-line tensor code: no side effects, no optimiser
calls, and any Python-level branching on tensor *values* is frozen at
record time (divergence is caught by validation only if it changes the
outputs).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import tensor as _tensor_module
from .fused_rnn import _lstm_forward_kernel
from .ops import _conv2d_forward
from .tensor import Tensor, _set_trace_hook, _unbroadcast, is_grad_enabled, no_grad

__all__ = ["CompiledFunction", "CompiledTape", "CompiledRun", "TapeUnsupported"]

#: Clean validation passes required before a forward-only tape is trusted.
_FORWARD_TRUST_PASSES = 2


class TapeUnsupported(RuntimeError):
    """Raised at tape build when a recorded op has no replay rule."""


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact equality including NaN payloads and signed zeros."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _matmul_shape(a: tuple, b: tuple) -> tuple:
    """Result shape of ``a @ b`` for operands of at least two dimensions."""
    return (*np.broadcast_shapes(a[:-2], b[:-2]), a[-2], b[-1])


def _prepare_seed(out: Tensor, seed) -> np.ndarray:
    """Normalise a backward seed exactly like :meth:`Tensor.backward`."""
    data = out.data
    if seed is None:
        if data.size != 1:
            raise RuntimeError("grad must be supplied for non-scalar backward()")
        return np.ones_like(data, dtype=np.float64)
    seed = np.asarray(seed, dtype=np.float64)
    if seed.ndim == 0:
        return np.broadcast_to(seed, data.shape).copy()
    if seed.shape != data.shape:
        raise ValueError(
            f"seed gradient shape {seed.shape} does not match tensor "
            f"shape {data.shape}; only scalar (0-d) seeds are broadcast"
        )
    return seed


# ---------------------------------------------------------------------------
# Replay rules
#
# Each rule factory receives the recorded node (output tensor, parents and
# meta) and returns a zero-argument callable that recomputes the op into
# the recorded output buffer.  Rules must be *bitwise* reproductions of
# the eager forward, and must refresh in place every derived array the
# eager backward closure captured (masks, scales, caches) — that is what
# lets backward reuse the recorded closures verbatim.
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
    mask = meta["mask"]  # bool; captured by the backward closure

    def run():
        np.greater(a, 0, out=mask)
        np.multiply(a, mask, out=o)

    return run


@_rule("leaky_relu")
def _rule_leaky_relu(out, parents, meta):
    a, o = parents[0].data, out.data
    scale = meta["scale"]  # captured by the backward closure
    slope = meta["slope"]

    def run():
        scale.fill(slope)
        np.copyto(scale, 1.0, where=a > 0)
        np.multiply(a, scale, out=o)

    return run


@_rule("abs")
def _rule_abs(out, parents, meta):
    a, o = parents[0].data, out.data
    sign = meta["sign"]  # captured by the backward closure

    def run():
        sign.fill(1.0)
        np.copyto(sign, -1.0, where=a < 0)
        np.abs(a, out=o)

    return run


@_rule("clip")
def _rule_clip(out, parents, meta):
    a, o = parents[0].data, out.data
    mask = meta["mask"]  # bool; captured by the backward closure
    low, high = meta["low"], meta["high"]

    def run():
        np.logical_and(a >= low, a <= high, out=mask)
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
        # The eager backward closes over a scalar out value (immutable),
        # which a replay cannot refresh.
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
    mask = meta["mask"]  # captured by the backward closure

    def run():
        np.greater_equal(a, b, out=mask)
        np.maximum(a, b, out=o)

    return run


@_rule("conv2d")
def _rule_conv2d(out, parents, meta):
    x = parents[0].data
    weight = parents[1].data
    bias = parents[2].data if len(parents) == 3 else None
    o = out.data
    cols_flat = meta["cols_flat"]  # captured by the backward closure
    stride = meta["stride"]

    def run():
        new_out, _, _, _ = _conv2d_forward(x, weight, bias, stride, cols_flat)
        np.copyto(o, new_out)

    return run


@_rule("lstm_fused")
def _rule_lstm_fused(out, parents, meta):
    x, w_ih, w_hh, b = (p.data for p in parents)
    o = out.data
    gates_x = meta["gates_x"]
    caches = meta["caches"]  # arrays captured by the BPTT closure
    h0, c0 = meta["h0"], meta["c0"]  # record-time initial state values

    def run():
        _lstm_forward_kernel(x, w_ih, w_hh, b, h0, c0, gates_x, o, caches)

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
# Backward replay rules
# ---------------------------------------------------------------------------
#
# The backward schedule is as static as the forward program: same node
# order, same edges, same arithmetic.  Instead of re-invoking the
# recorded closures (which allocate a fresh contribution array per op),
# each node gets a step that writes its parents' gradient contributions
# directly into preallocated per-node gradient buffers.  Accumulation
# replicates Tensor.backward exactly: the first contribution to a node
# is a plain write, later ones add in place (``old + new`` and
# ``old += new`` are the same float operation), so a trusted backward
# replay stays bitwise-equal to eager.  Ops without a buffered rule
# (the chunky kernels: lstm_fused, conv2d, pad2d, max) fall back
# to their recorded closure with the generic deliver path — identical
# to what Tensor.backward does, just over the cached schedule.


#: Sentinel for "recognised op, but every delivery was pruned away".
_NOOP = object()


def _fast_backward_step(op, node, parents, meta, g, gbufs, has, pindex, delivered, pruned):
    """A low-allocation backward step for ``node``, or None for generic.

    ``delivered`` selects the accumulation strategy.  ``None`` builds
    runtime-checked actions: each delivery consults the ``has`` flags to
    decide write-vs-add, exactly like ``Tensor.backward``'s grads dict.
    A set builds a *static* schedule: the write/add pattern of a tape is
    determined purely by graph structure (the same edges deliver in the
    same order every replay), so it can be resolved at build time — the
    set tracks which buffer positions have already received their first
    contribution as the schedule is laid out, and each action is frozen
    as either a first-write or an in-place add, with no per-call checks.

    ``pruned`` positions (dead gradient sinks under ``input_grads_only``)
    receive no deliveries; a step whose every delivery is pruned returns
    :data:`_NOOP` so the schedule drops it entirely.
    """
    o = node.data
    actions: list[Callable] = []

    def edge(k):
        p = parents[k]
        pj = pindex[id(p)]
        return pj, gbufs[pj], p.data.shape

    def add_view(k, view):
        """Deliver a contribution produced as an array (usually a view of g)."""
        pj, pbuf, pshape = edge(k)
        if pj in pruned:
            return

        if delivered is None:

            def act():
                src = view()
                if src.shape != pshape:
                    src = _unbroadcast(src, pshape)
                if has[pj]:
                    np.add(pbuf, src, out=pbuf)
                else:
                    np.copyto(pbuf, src)
                    has[pj] = True

        elif pj in delivered:

            def act():
                src = view()
                if src.shape != pshape:
                    src = _unbroadcast(src, pshape)
                np.add(pbuf, src, out=pbuf)

        else:
            delivered.add(pj)

            def act():
                src = view()
                if src.shape != pshape:
                    src = _unbroadcast(src, pshape)
                np.copyto(pbuf, src)

        actions.append(act)

    def add_compute(k, compute):
        """Deliver a contribution computed straight into the target buffer.

        Only valid when the contribution already has the parent's shape.
        """
        pj, pbuf, _ = edge(k)
        if pj in pruned:
            return

        if delivered is None:
            tmp = np.empty(pbuf.shape, dtype=np.float64)

            def act():
                if has[pj]:
                    compute(tmp)
                    np.add(pbuf, tmp, out=pbuf)
                else:
                    compute(pbuf)
                    has[pj] = True

        elif pj in delivered:
            tmp = np.empty(pbuf.shape, dtype=np.float64)

            def act():
                compute(tmp)
                np.add(pbuf, tmp, out=pbuf)

        else:
            delivered.add(pj)

            def act():
                compute(pbuf)

        actions.append(act)

    def add_grad_view(k):
        """Deliver ``g`` itself, reducing prepended broadcast axes in place.

        ``_unbroadcast`` for a parent whose shape is a non-stretched
        suffix of ``g.shape`` is exactly ``g.sum(axis=prepended)``, i.e.
        ``np.add.reduce`` over those axes — which can go straight into
        the target buffer instead of allocating the reduction.
        """
        pj, pbuf, pshape = edge(k)
        gshape = g.shape
        if pshape == gshape:
            add_view(k, lambda: g)
            return
        extra = len(gshape) - len(pshape)
        stretched = any(
            n == 1 and gshape[extra + i] != 1 for i, n in enumerate(pshape)
        )
        if extra > 0 and not stretched:
            axes = tuple(range(extra)) if extra > 1 else 0
            add_compute(k, lambda out: np.add.reduce(g, axis=axes, out=out))
        else:
            add_view(k, lambda: g)

    def grad_edges():
        return [(k, p) for k, p in enumerate(parents) if p.requires_grad]

    same = lambda k: parents[k].data.shape == o.shape  # noqa: E731

    if op == "add":
        for k, _ in grad_edges():
            add_grad_view(k)
    elif op == "sub":
        for k, _ in grad_edges():
            if k == 0:
                add_grad_view(0)
            elif same(1):
                add_compute(1, lambda out: np.negative(g, out=out))
            else:
                add_view(1, lambda: -g)
    elif op == "mul":
        a, b = parents[0].data, parents[1].data
        for k, _ in grad_edges():
            other = b if k == 0 else a
            if same(k):
                add_compute(k, lambda out, other=other: np.multiply(g, other, out=out))
            else:
                add_view(k, lambda other=other: g * other)
    elif op == "div":
        a, b = parents[0].data, parents[1].data
        for k, _ in grad_edges():
            if k == 0:
                if same(0):
                    add_compute(0, lambda out: np.divide(g, b, out=out))
                else:
                    add_view(0, lambda: g / b)
            elif same(1):
                tmp_bb = np.empty(o.shape, dtype=np.float64)

                def c1(out, tmp_bb=tmp_bb):
                    # -grad * a / (b * b), in eager evaluation order
                    np.negative(g, out=out)
                    np.multiply(out, a, out=out)
                    np.multiply(b, b, out=tmp_bb)
                    np.divide(out, tmp_bb, out=out)

                add_compute(1, c1)
            else:
                add_view(1, lambda: -g * a / (b * b))
    elif op == "neg":
        add_compute(0, lambda out: np.negative(g, out=out))
    elif op == "pow":
        a = parents[0].data
        exponent = meta["exponent"]
        tmp_p = np.empty(o.shape, dtype=np.float64)

        def c_pow(out):
            # grad * exponent * a**(exponent-1), eager order
            np.power(a, exponent - 1, out=tmp_p)
            np.multiply(g, exponent, out=out)
            np.multiply(out, tmp_p, out=out)

        add_compute(0, c_pow)
    elif op == "exp":
        add_compute(0, lambda out: np.multiply(g, o, out=out))
    elif op == "log":
        a = parents[0].data
        add_compute(0, lambda out: np.divide(g, a, out=out))
    elif op == "sqrt":

        def c_sqrt(out):
            np.multiply(g, 0.5, out=out)
            np.divide(out, o, out=out)

        add_compute(0, c_sqrt)
    elif op == "tanh":
        tmp_t = np.empty(o.shape, dtype=np.float64)

        def c_tanh(out):
            np.multiply(o, o, out=tmp_t)
            np.subtract(1.0, tmp_t, out=tmp_t)
            np.multiply(g, tmp_t, out=out)

        add_compute(0, c_tanh)
    elif op == "sigmoid":
        tmp_s = np.empty(o.shape, dtype=np.float64)

        def c_sig(out):
            np.subtract(1.0, o, out=tmp_s)
            np.multiply(g, o, out=out)
            np.multiply(out, tmp_s, out=out)

        add_compute(0, c_sig)
    elif op in ("relu", "leaky_relu", "abs", "clip"):
        factor = meta["mask" if op in ("relu", "clip") else ("scale" if op == "leaky_relu" else "sign")]
        add_compute(0, lambda out: np.multiply(g, factor, out=out))
    elif op in ("sum", "mean"):
        axis, keepdims = meta["axis"], meta["keepdims"]
        shape = parents[0].data.shape
        if op == "mean":
            if axis is None:
                count = parents[0].data.size
            else:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                count = int(np.prod([shape[a] for a in axes]))
            tmp_m = np.empty(g.shape, dtype=np.float64)

            def c_red(out):
                np.divide(g, count, out=tmp_m)
                src = tmp_m if (axis is None or keepdims) else np.expand_dims(tmp_m, axis)
                np.copyto(out, src)

        else:

            def c_red(out):
                src = g if (axis is None or keepdims) else np.expand_dims(g, axis)
                np.copyto(out, src)

        add_compute(0, c_red)
    elif op == "matmul":
        a, b = parents[0].data, parents[1].data
        if a.ndim < 2 or b.ndim < 2:
            return None  # eager has dedicated 1-D branches; keep the closure
        a_t = np.swapaxes(a, -1, -2)
        b_t = np.swapaxes(b, -1, -2)
        for k, _ in grad_edges():
            if k == 0:
                if _matmul_shape(g.shape, b_t.shape) == a.shape:
                    add_compute(0, lambda out: np.matmul(g, b_t, out=out))
                else:
                    add_view(0, lambda: g @ b_t)
            else:
                if _matmul_shape(a_t.shape, g.shape) == b.shape:
                    add_compute(1, lambda out: np.matmul(a_t, g, out=out))
                else:
                    add_view(1, lambda: a_t @ g)
    elif op in ("reshape", "squeeze", "unsqueeze"):
        original = parents[0].data.shape
        add_view(0, lambda: g.reshape(original))
    elif op == "transpose":
        inverse = np.argsort(meta["axes"])
        add_view(0, lambda: g.transpose(inverse))
    elif op == "getitem":
        index = meta["index"]
        pj, pbuf, _ = edge(0)

        if pj in pruned:
            pass
        elif delivered is None:
            tmp_i = np.empty(pbuf.shape, dtype=np.float64)

            def act_getitem():
                if has[pj]:
                    tmp_i.fill(0.0)
                    np.add.at(tmp_i, index, g)
                    np.add(pbuf, tmp_i, out=pbuf)
                else:
                    pbuf.fill(0.0)
                    np.add.at(pbuf, index, g)
                    has[pj] = True

        elif pj in delivered:
            tmp_i = np.empty(pbuf.shape, dtype=np.float64)

            def act_getitem():
                tmp_i.fill(0.0)
                np.add.at(tmp_i, index, g)
                np.add(pbuf, tmp_i, out=pbuf)

        else:
            delivered.add(pj)

            def act_getitem():
                pbuf.fill(0.0)
                np.add.at(pbuf, index, g)

        if pj not in pruned:
            actions.append(act_getitem)
    elif op == "concat":
        axis = meta["axis"]
        sizes = [p.data.shape[axis] for p in parents]
        starts = np.concatenate([[0], np.cumsum(sizes)])
        for k, _ in grad_edges():
            slicer = (slice(None),) * (axis % g.ndim) + (
                slice(int(starts[k]), int(starts[k + 1])),
            )
            add_view(k, lambda slicer=slicer: g[slicer])
    elif op == "stack":
        axis = meta["axis"]
        for k, _ in grad_edges():
            slicer = (slice(None),) * (axis % g.ndim) + (k,)
            add_view(k, lambda slicer=slicer: g[slicer])
    elif op == "maximum":
        selector = meta["mask"]
        inverse_sel = np.empty(selector.shape, dtype=bool)
        for k, _ in grad_edges():
            if k == 0:
                if same(0):
                    add_compute(0, lambda out: np.multiply(g, selector, out=out))
                else:
                    add_view(0, lambda: g * selector)
            elif same(1):

                def c_other(out):
                    np.logical_not(selector, out=inverse_sel)
                    np.multiply(g, inverse_sel, out=out)

                add_compute(1, c_other)
            else:
                add_view(1, lambda: g * ~selector)
    else:
        return None

    if not actions:
        return _NOOP  # recognised op, every delivery pruned
    if len(actions) == 1:
        return actions[0]

    def step():
        for act in actions:
            act()

    return step


def _generic_backward_step(node, g, gbufs, has, pindex, pruned):
    """Recorded-closure fallback, bitwise-identical to Tensor.backward."""
    backward = node._backward
    parents = node._parents
    targets = []
    for p in parents:
        if p.requires_grad:
            pj = pindex[id(p)]
            if pj in pruned:
                targets.append(None)
            else:
                targets.append((pj, gbufs[pj], p.data.shape))
        else:
            targets.append(None)

    def step():
        contributions = backward(g)
        for target, contribution in zip(targets, contributions):
            if target is None or contribution is None:
                continue
            pj, pbuf, pshape = target
            contribution = _unbroadcast(
                np.asarray(contribution, dtype=np.float64), pshape
            )
            if has[pj]:
                np.add(pbuf, contribution, out=pbuf)
            else:
                np.copyto(pbuf, contribution)
                has[pj] = True

    return step


# ---------------------------------------------------------------------------
# The tape
# ---------------------------------------------------------------------------


def _owner(array: np.ndarray) -> np.ndarray:
    """The array that owns ``array``'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _record_arrays(records):
    """Every op output and replay-state array of a recording."""
    for node, _, _, meta in records:
        yield node.data
        for value in (meta or {}).values():
            values = value if isinstance(value, (list, tuple)) else (value,)
            yield from (v for v in values if isinstance(v, np.ndarray))


class CompiledTape:
    """A recorded graph replayable into its own preallocated buffers.

    Built from one traced execution; :meth:`forward` refreshes the input
    leaf buffers and re-runs every op kernel in recording order (which is
    a valid topological order — parents are created before children).
    :meth:`backward` replays the recorded closures over the cached
    schedule of ``outputs[0]``, replicating :meth:`Tensor.backward`
    semantics exactly — including gradient accumulation across repeated
    ``backward()`` calls on the same forward.
    """

    def __init__(
        self,
        inputs: Sequence[Tensor],
        outputs: Sequence[Tensor],
        records: Sequence[tuple[Tensor, tuple, str, dict | None]],
        forward_only: bool = False,
        input_grads_only: bool = False,
    ):
        self.inputs = list(inputs)
        self.outputs = tuple(outputs)
        self.forward_only = forward_only
        self.input_grads_only = bool(input_grads_only) and not forward_only
        self._input_buffers = [t.data for t in self.inputs]
        self._grad_inputs = [t for t in self.inputs if t.requires_grad]
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

        if not forward_only:
            if not self.outputs or not self.outputs[0].requires_grad:
                raise TapeUnsupported("primary output records no gradient tape")
            self._order = self.outputs[0]._topological_order()
            self._pindex = {id(t): i for i, t in enumerate(self._order)}
            self._build_backward(records)
        self.nbytes = self._retained_nbytes(records)

    def _retained_nbytes(self, records) -> int:
        """Bytes of the buffers this tape holds: inputs, op outputs, replay state, gradients.

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
        arrays.extend(g for g in getattr(self, "_gbufs", ()) if g is not None)
        owned = {id(root): root for root in map(_owner, arrays) if id(root) not in external}
        return sum(root.nbytes for root in owned.values())

    def _build_backward(self, records) -> None:
        """Preallocate gradient buffers and compile the backward schedule.

        Tries a *static* schedule first: when every node has a fast rule,
        the write/add pattern is resolved at build time and replay runs
        the steps unconditionally (valid because every fast rule delivers
        to all of its requires-grad parents, so each buffer provably
        receives a gradient).  A tape with any recorded-closure fallback
        (whose deliveries may be data-dependent) keeps runtime ``has``
        gating, exactly mirroring ``Tensor.backward``'s grads dict.

        Under ``input_grads_only`` every gradient *leaf* that is not one
        of the tape's inputs (i.e. the model parameters) is marked
        pruned: leaves are pure sinks, so dropping their deliveries —
        typically the weight-gradient GEMMs — cannot change any interior
        gradient, and in particular leaves the input gradients bitwise
        intact.  Pruned replays do not refresh ``param.grad``; attack
        loops never read it, and training steps call ``zero_grad()``
        before their own (unpruned) backward.
        """
        order, pindex = self._order, self._pindex
        ops = {id(node): (op, meta or {}) for node, _, op, meta in records}
        if self.input_grads_only:
            keep = {id(t) for t in self._grad_inputs}
            self._pruned = {
                pos
                for pos, node in enumerate(order)
                if node.requires_grad
                and node._backward is None
                and id(node) not in keep
            }
        else:
            self._pruned = set()
        self._gbufs = [
            np.empty(node.data.shape, dtype=np.float64)
            if node.requires_grad and pos not in self._pruned
            else None
            for pos, node in enumerate(order)
        ]
        self._bhas = [False] * len(order)
        program = self._compile_schedule(ops, delivered={0})
        self._bstatic = program is not None
        if program is None:
            program = self._compile_schedule(ops, delivered=None)
        self._bprogram = program

    def _compile_schedule(self, ops, delivered):
        """Lay out backward steps; None if a static layout is impossible."""
        order, pindex = self._order, self._pindex
        pruned = self._pruned
        program: list[tuple[int, Callable]] = []
        for pos, node in enumerate(order):
            if not node.requires_grad or pos in pruned:
                continue
            if delivered is not None and pos not in delivered:
                return None  # a buffer the simulation cannot prove filled
            g = self._gbufs[pos]
            if node._backward is None:
                program.append((pos, lambda node=node, g=g: node._accumulate(g)))
                continue
            op, meta = ops.get(id(node), (None, {}))
            step = _fast_backward_step(
                op, node, node._parents, meta, g, self._gbufs, self._bhas,
                pindex, delivered, pruned,
            )
            if step is _NOOP:
                continue
            if step is None:
                if delivered is not None:
                    return None  # recorded-closure op: needs runtime gating
                step = _generic_backward_step(
                    node, g, self._gbufs, self._bhas, pindex, pruned
                )
            program.append((pos, step))
        return program

    def forward(self, arrays: Sequence[np.ndarray]) -> tuple[Tensor, ...]:
        """Refresh input buffers and replay the program in place."""
        if len(arrays) != len(self._input_buffers):
            raise ValueError(f"expected {len(self._input_buffers)} inputs, got {len(arrays)}")
        for index, buffer in self._refreshed:
            np.copyto(buffer, arrays[index])
        # Input leaves start each *run* fresh, exactly like newly-built
        # eager leaves.  (Parameter grads are deliberately left alone —
        # eager training steps own their zero_grad() calls.)
        for leaf in self._grad_inputs:
            leaf.grad = None
        for step in self._program:
            step()
        return self.outputs

    def backward(self, seed: np.ndarray) -> None:
        """Replay backward from ``outputs[0]`` with a prepared seed.

        Mirrors :meth:`Tensor.backward` over the precompiled schedule:
        same node order, same edge arithmetic, same accumulation — but
        gradients flow through preallocated per-node buffers instead of
        freshly allocated contribution arrays (see the backward-rule
        section above for the bitwise argument).
        """
        np.copyto(self._gbufs[0], seed)  # order[0] is outputs[0]
        if self._bstatic:
            for _position, step in self._bprogram:
                step()
            return
        has = self._bhas
        for i in range(len(has)):
            has[i] = False
        has[0] = True
        for position, step in self._bprogram:
            if has[position]:
                step()

    def grad_leaves(self) -> list[Tensor]:
        """Leaves that accumulate gradients (parameters and grad inputs)."""
        if self.forward_only:
            return list(self._grad_inputs)
        return [
            t
            for pos, t in enumerate(self._order)
            if t._backward is None and t.requires_grad and pos not in self._pruned
        ]


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
    and stay valid only until the function's next call with the same
    shape key.  ``mode`` is one of ``eager`` / ``record`` / ``validate``
    / ``replay``.
    """

    __slots__ = ("outputs", "mode", "_backward_impl", "_input_grad_impl")

    def __init__(self, outputs, mode, backward_impl, input_grad_impl):
        self.outputs = outputs
        self.mode = mode
        self._backward_impl = backward_impl
        self._input_grad_impl = input_grad_impl

    def backward(self, seed=None) -> None:
        """Backpropagate from ``outputs[0]`` (optionally seeded)."""
        if self._backward_impl is None:
            raise RuntimeError("this CompiledFunction is forward-only")
        self._backward_impl(seed)

    def input_grad(self, index: int) -> np.ndarray | None:
        """Gradient accumulated on input ``index`` (after backward)."""
        return self._input_grad_impl(index)


class CompiledFunction:
    """Record/validate/replay wrapper around a pure tensor function.

    Parameters
    ----------
    fn:
        Pure function mapping input Tensors to a Tensor or tuple of
        Tensors.  Must be straight-line tensor code (see module doc).
    grad_indices:
        Positions of inputs that should be ``requires_grad`` leaves.
    name:
        Label used in diagnostics.
    forward_only:
        When True the function is value-only: ``backward`` is
        unavailable, recording still traces through parameters, and two
        clean forward validations promote the tape.
    input_grads_only:
        When True, compiled replays prune gradient deliveries to leaves
        other than the declared ``grad_indices`` inputs — parameter
        gradients (the weight-grad GEMMs) are skipped entirely.  Input
        gradients are bitwise unchanged (leaves are pure sinks), but
        trusted replays no longer refresh ``param.grad``; only use this
        for attack-style loops that read input gradients exclusively.
        Eager and validation runs still populate every gradient.
    max_tapes:
        Maximum distinct shape signatures to compile; further shapes run
        eagerly (no eviction — steady-state loops have few shapes).
    """

    def __init__(
        self,
        fn: Callable[..., Tensor | tuple[Tensor, ...]],
        grad_indices: Sequence[int] = (),
        name: str = "compiled_fn",
        forward_only: bool = False,
        input_grads_only: bool = False,
        max_tapes: int = 8,
    ):
        self.fn = fn
        self.grad_indices = frozenset(grad_indices)
        self.name = name
        self.forward_only = forward_only
        self.input_grads_only = input_grads_only
        self.max_tapes = max_tapes
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
            if len(self._entries) >= self.max_tapes:
                return self._eager_run(arrays)
            return self._record(key, arrays)
        if entry.state == _REJECTED:
            return self._eager_run(arrays)
        if entry.state == _TRUSTED:
            return self._replay_run(entry, arrays)
        if self.forward_only and entry.forward_passes >= _FORWARD_TRUST_PASSES:
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
    def _make_inputs(self, arrays, copy: bool) -> list[Tensor]:
        inputs = []
        for index, array in enumerate(arrays):
            data = np.array(array, dtype=np.float64, copy=True) if copy else array
            inputs.append(Tensor(data, requires_grad=index in self.grad_indices))
        return inputs

    def _call_fn(self, inputs) -> tuple[Tensor, ...]:
        outputs = self.fn(*inputs)
        return outputs if isinstance(outputs, tuple) else (outputs,)

    def _eager_run(self, arrays) -> CompiledRun:
        self.stats["eager"] += 1
        inputs = self._make_inputs(arrays, copy=False)
        if self.forward_only:
            with no_grad():
                outputs = self._call_fn(inputs)
            return CompiledRun(outputs, "eager", None, lambda i: None)
        outputs = self._call_fn(inputs)

        def backward(seed):
            outputs[0].backward(seed)

        return CompiledRun(outputs, "eager", backward, lambda i: inputs[i].grad)

    def _record(self, key, arrays) -> CompiledRun:
        self.stats["record"] += 1
        # Record on private copies: replay refreshes these buffers via
        # copyto, which must never write through to caller arrays.
        inputs = self._make_inputs(arrays, copy=True)
        records: list[tuple[Tensor, tuple, str, dict | None]] = []
        _set_trace_hook(lambda out, parents, op, meta: records.append((out, parents, op, meta)))
        try:
            outputs = self._call_fn(inputs)
        finally:
            _set_trace_hook(None)
        try:
            tape = CompiledTape(
                inputs, outputs, records, self.forward_only, self.input_grads_only
            )
            self._entries[key] = _Entry(tape)
        except TapeUnsupported as exc:
            entry = _Entry(None)
            entry.reason = str(exc)
            self._entries[key] = entry
            self.stats["rejected"] += 1
        # Either way this execution was a plain eager run of fn; hand it
        # to the caller with ordinary eager backward semantics.
        if self.forward_only:
            return CompiledRun(outputs, "record", None, lambda i: None)

        def backward(seed):
            outputs[0].backward(seed)

        return CompiledRun(outputs, "record", backward, lambda i: inputs[i].grad)

    def _replay_run(self, entry: _Entry, arrays) -> CompiledRun:
        self.stats["replay"] += 1
        tape = entry.tape
        outputs = tape.forward(arrays)
        if self.forward_only:
            return CompiledRun(outputs, "replay", None, lambda i: None)

        def backward(seed):
            tape.backward(_prepare_seed(outputs[0], seed))

        return CompiledRun(outputs, "replay", backward, lambda i: tape.inputs[i].grad)

    def _reject(self, entry: _Entry, reason: str) -> None:
        entry.state = _REJECTED
        entry.tape = None
        entry.reason = reason
        self.stats["rejected"] += 1

    def _validate_run(self, entry: _Entry, arrays) -> CompiledRun:
        """Replay and eager side by side; any divergence rejects the tape."""
        self.stats["validate"] += 1
        tape = entry.tape
        try:
            tape_outputs = tape.forward(arrays)
        except Exception as exc:  # noqa: BLE001 - any replay fault → eager
            self._reject(entry, f"replay forward raised: {exc!r}")
            return self._eager_run(arrays)

        # Snapshot replay outputs before the eager pass (shared-parameter
        # models make both graphs read the same live buffers).
        replay_values = [np.array(out.data, copy=True) for out in tape_outputs]

        eager_inputs = self._make_inputs(arrays, copy=False)
        if self.forward_only:
            with no_grad():
                eager_outputs = self._call_fn(eager_inputs)
        else:
            eager_outputs = self._call_fn(eager_inputs)

        for replayed, eager in zip(replay_values, eager_outputs):
            if not _bitwise_equal(replayed, eager.data):
                self._reject(entry, "forward replay diverged from eager")
                if self.forward_only:
                    return CompiledRun(eager_outputs, "eager", None, lambda i: None)
                return CompiledRun(
                    eager_outputs,
                    "eager",
                    lambda seed: eager_outputs[0].backward(seed),
                    lambda i: eager_inputs[i].grad,
                )
        entry.forward_passes += 1

        if self.forward_only:
            return CompiledRun(eager_outputs, "validate", None, lambda i: None)

        cf = self

        def backward(seed):
            prepared = _prepare_seed(eager_outputs[0], seed)
            # Parameters are shared between the tape and the eager
            # reference graph; tape input leaves are private to the tape.
            shared = [
                leaf
                for leaf in tape.grad_leaves()
                if all(leaf is not t for t in tape.inputs)
            ]
            saved = [(leaf, None if leaf.grad is None else leaf.grad.copy()) for leaf in shared]
            tape_ok = True
            try:
                tape.backward(prepared)
                replay_grads = [
                    None if leaf.grad is None else leaf.grad.copy() for leaf in shared
                ]
                replay_input_grads = [
                    None if t.grad is None else t.grad.copy() for t in tape.inputs
                ]
            except Exception as exc:  # noqa: BLE001
                cf._reject(entry, f"replay backward raised: {exc!r}")
                tape_ok = False
            # Roll the shared leaves back, then run the authoritative
            # eager backward; its gradients are what the caller keeps.
            for leaf, grad in saved:
                leaf.grad = grad
            eager_outputs[0].backward(prepared)
            if not tape_ok:
                return
            for leaf, replayed in zip(shared, replay_grads):
                eager_grad = leaf.grad
                if replayed is None and eager_grad is None:
                    continue
                if (
                    replayed is None
                    or eager_grad is None
                    or not _bitwise_equal(replayed, eager_grad)
                ):
                    cf._reject(entry, "backward replay diverged from eager")
                    return
            # Input-leaf gradients live on different objects per graph.
            for index in sorted(cf.grad_indices):
                replayed = replay_input_grads[index]
                eager_grad = eager_inputs[index].grad
                if replayed is None and eager_grad is None:
                    continue
                if (
                    replayed is None
                    or eager_grad is None
                    or not _bitwise_equal(replayed, eager_grad)
                ):
                    cf._reject(entry, "input gradient replay diverged from eager")
                    return
            entry.state = _TRUSTED

        return CompiledRun(
            eager_outputs, "validate", backward, lambda i: eager_inputs[i].grad
        )
