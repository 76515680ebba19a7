"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the ``repro.nn`` deep-learning substrate.
The paper's models were built on a mainstream framework; none is available
offline, so we implement the minimum viable engine ourselves: a ``Tensor``
wrapping a ``numpy.ndarray``, a dynamically-built computation graph, and
reverse-mode backpropagation over a topological ordering of that graph.

Only float64 arrays flow through the graph — ``Tensor`` promotes every
other dtype on construction and :meth:`Tensor._make` rejects non-float64
op results, so the preallocated replay buffers of :mod:`repro.nn.compile`
can never bake in a mixed-precision graph.  Gradients are plain numpy
arrays stored on leaf (and, on request, interior) tensors.

Example
-------
>>> from repro.nn import Tensor
>>> x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
>>> y = (x * x).sum()
>>> y.backward()
>>> x.grad
array([2., 4., 6.])
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]

_GRAD_ENABLED = True

#: Callable invoked for every op result while recording, or None.
#: Installed by :mod:`repro.nn.compile`; receives ``(out, parents, op,
#: meta)`` where ``meta`` is the op's static/derived replay state.
#: Parents and op are passed explicitly because *value* nodes (no
#: grad-requiring parent) carry no tape yet still need replaying — e.g.
#: concatenating a detached sequence with a condition input.
_TRACE_HOOK: Callable[..., None] | None = None


def _set_trace_hook(hook: Callable[..., None] | None) -> None:
    """Install (or clear, with None) the graph-recording hook."""
    global _TRACE_HOOK
    _TRACE_HOOK = hook


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (like torch.no_grad)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting may both prepend axes and stretch length-1 axes; the
    gradient of a broadcast is the sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched length-1 axes.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def as_tensor(value, dtype=np.float64) -> "Tensor":
    """Coerce ``value`` (Tensor, array, scalar, nested list) to a Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


class Tensor:
    """A numpy array with an autograd tape.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.  Every dtype other than
        float64 (ints, bools, float32, ...) is promoted to float64: the
        substrate pins a single dtype policy so gradients are
        well-defined and replay buffers are homogeneous.  float64 input
        is wrapped without a copy (``detach()`` relies on the shared
        buffer).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents", "_op", "_grad_buf"
    )

    def __init__(self, data, requires_grad: bool = False):
        array = np.asarray(data)
        if array.dtype != np.float64:
            array = array.astype(np.float64)
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self._grad_buf: np.ndarray | None = None
        # Inside no_grad() the flag is silently dropped: the leaf will
        # never record a tape, and backward() would leave .grad = None.
        # Callers that require input gradients must check
        # is_grad_enabled() up front (repro.attacks.gradients does) —
        # by the time the None grad surfaces, the cause is off the stack.
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._op: str = ""

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_note})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._raise_item()

    @staticmethod
    def _raise_item():
        raise ValueError("item() only works on single-element tensors")

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str = "",
        meta: dict | None = None,
    ) -> "Tensor":
        """Create a graph node; drops the tape when grad is disabled.

        ``meta`` carries the op's replay state for :mod:`repro.nn.compile`:
        static arguments (axes, bounds) plus any *derived* arrays the
        forward computed its value from (masks, scales), which a replay
        reuses as scratch.  It is ignored on the eager path.

        Every op must produce float64 — the one dtype the substrate
        allows through the graph (leaf construction promotes, so a
        violation here means an op implementation dropped precision).
        """
        array = np.asarray(data)
        if array.dtype != np.float64:
            raise TypeError(
                f"op {op or '<anonymous>'!r} produced dtype {array.dtype}; "
                "repro.nn pins a single float64 policy for all graph nodes"
            )
        out = cls(array)
        if _GRAD_ENABLED:
            if any(p.requires_grad for p in parents):
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward = backward
                out._op = op
            if _TRACE_HOOK is not None:
                _TRACE_HOOK(out, tuple(parents), op, meta)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use).

        The buffer is cached across ``zero_grad()`` cycles: a training
        step allocates each leaf's gradient array once, then every later
        backward refills it in place.  ``grad + 0.0`` is the same float
        arithmetic as ``zeros + grad`` (addition is commutative bitwise,
        including signed zeros and NaN payloads), done in one pass.
        """
        if self.grad is None:
            buf = self._grad_buf
            if buf is None or buf.shape != self.data.shape:
                buf = np.empty(self.data.shape, dtype=np.float64)
                self._grad_buf = buf
            if np.shape(grad) == buf.shape:
                np.add(grad, 0.0, out=buf)
            else:
                buf.fill(0.0)
                buf += grad
            self.grad = buf
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to 1 for scalar tensors (the common loss case).  A supplied
            seed must match ``self.shape`` exactly; only 0-d scalars are
            broadcast.  (Silently broadcasting would accept a transposed
            or mis-shaped seed and propagate wrong gradients.)
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar backward()")
            grad = np.ones_like(self.data, dtype=np.float64)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.ndim == 0:
                grad = np.broadcast_to(grad, self.data.shape).copy()
            elif grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}; only scalar (0-d) seeds are broadcast"
                )

        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            # Interior node: route gradient to parents via the op closure.
            node._backward_dispatch(node_grad, grads)

    def _backward_dispatch(self, node_grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Invoke the op backward closure, collecting parent grads."""
        contributions = self._backward(node_grad)
        for parent, contribution in zip(self._parents, contributions):
            if contribution is None or not parent.requires_grad:
                continue
            contribution = _unbroadcast(np.asarray(contribution, dtype=np.float64), parent.shape)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + contribution
            else:
                grads[key] = contribution

    def _topological_order(self) -> list["Tensor"]:
        """Return graph nodes reachable from self, outputs-first."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad):
            return grad, grad

        return Tensor._make(self.data + other.data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad):
            return grad, -grad

        return Tensor._make(self.data - other.data, (self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data

        def backward(grad):
            return grad * b, grad * a

        return Tensor._make(a * b, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data

        def backward(grad):
            return grad / b, -grad * a / (b * b)

        return Tensor._make(a / b, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self.data

        def backward(grad):
            return (grad * exponent * np.power(a, exponent - 1),)

        return Tensor._make(np.power(a, exponent), (self,), backward, "pow", {"exponent": exponent})

    # ------------------------------------------------------------------
    # Matrix ops
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        out = a @ b

        def backward(grad):
            if a.ndim == 1 and b.ndim == 1:  # inner product
                return grad * b, grad * a
            if a.ndim == 1:  # (k,) @ (k, n)
                return grad @ b.T, np.outer(a, grad)
            if b.ndim == 1:  # (m, k) @ (k,)
                return np.outer(grad, b), a.T @ grad
            grad_a = grad @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ grad
            return grad_a, grad_b

        return Tensor._make(out, (self, other), backward, "matmul")

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            return (grad * out_data,)

        return Tensor._make(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        a = self.data

        def backward(grad):
            return (grad / a,)

        return Tensor._make(np.log(a), (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad):
            return (grad * 0.5 / out_data,)

        return Tensor._make(out_data, (self,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - out_data * out_data),)

        return Tensor._make(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic: exp of a non-positive argument only.
        a = self.data
        positive = a >= 0
        exp_neg_abs = np.exp(-np.abs(a))
        out_data = np.where(positive, 1.0 / (1.0 + exp_neg_abs), exp_neg_abs / (1.0 + exp_neg_abs))

        def backward(grad):
            return (grad * out_data * (1.0 - out_data),)

        return Tensor._make(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(self.data * mask, (self,), backward, "relu", {"mask": mask})

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)

        def backward(grad):
            return (grad * scale,)

        return Tensor._make(
            self.data * scale,
            (self,),
            backward,
            "leaky_relu",
            {"scale": scale, "slope": negative_slope},
        )

    def abs(self) -> "Tensor":
        # Treat 0 as positive so composite losses (e.g. BCE-with-logits,
        # built from max and abs) stay exact at the origin.
        sign = np.where(self.data >= 0, 1.0, -1.0)

        def backward(grad):
            return (grad * sign,)

        return Tensor._make(np.abs(self.data), (self,), backward, "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed through inside the interval."""
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(
            np.clip(self.data, low, high),
            (self,),
            backward,
            "clip",
            {"low": low, "high": high},
        )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape

        def backward(grad):
            if axis is None:
                return (np.broadcast_to(grad, shape).copy(),)
            g = grad
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(
            self.data.sum(axis=axis, keepdims=keepdims),
            (self,),
            backward,
            "sum",
            {"axis": axis, "keepdims": keepdims},
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([shape[a] for a in axes]))

        def backward(grad):
            if axis is None:
                return (np.broadcast_to(grad / count, shape).copy(),)
            g = grad / count
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(
            self.data.mean(axis=axis, keepdims=keepdims),
            (self,),
            backward,
            "mean",
            {"axis": axis, "keepdims": keepdims},
        )

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        a = self.data

        def backward(grad):
            g = grad
            o = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                o = np.expand_dims(o, axis)
            mask = (a == o).astype(np.float64)
            # Split gradient evenly between ties.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return (g * mask / counts,)

        return Tensor._make(out_data, (self,), backward, "max", {"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(self.data.reshape(shape), (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)

        def backward(grad):
            return (grad.transpose(inverse),)

        return Tensor._make(self.data.transpose(axes), (self,), backward, "transpose", {"axes": axes})

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        shape = self.data.shape

        def backward(grad):
            full = np.zeros(shape, dtype=np.float64)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor._make(self.data[index], (self,), backward, "getitem", {"index": index})

    def squeeze(self, axis: int | None = None) -> "Tensor":
        original = self.data.shape

        def backward(grad):
            return (grad.reshape(original),)

        data = self.data.squeeze() if axis is None else self.data.squeeze(axis)
        return Tensor._make(data, (self,), backward, "squeeze")

    def unsqueeze(self, axis: int) -> "Tensor":
        original = self.data.shape

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(np.expand_dims(self.data, axis), (self,), backward, "unsqueeze")

    # ------------------------------------------------------------------
    # Comparison (non-differentiable, returns plain arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other
