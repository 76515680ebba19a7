"""Reuse of the large kernel arrays across the steps of a training loop.

One APOTS step allocates the same multi-megabyte arrays every time: the
fused LSTM's time-major gate buffer, ``tanh(c)`` and state caches and
its output, and the conv's padded input, patch matrix and output.  Freed
at the end of each step, glibc may hand that memory back to the OS and
fault it in, zeroed, on the next step, so a step can pay thousands of
minor page faults for nothing.

Inside :func:`reuse_arrays` those kernels take their arrays from a free
list keyed by shape.  An array is handed out again only when the free
list holds its sole reference (CPython's refcount), so anything still
alive keeps its arrays: a graph awaiting backward, an output Tensor or
a view of it, a returned gradient, a compiled tape's recorded buffers.
The gradients a backward returns (the LSTM's input gradient, the
``col2im`` fold) stay plain allocations: the next node consumes them in
the same backward, and held idle in the list they would add to the
step's peak memory.  Outside the scope, and under ``no_grad``,
:func:`empty` is ``np.empty``.  Leaving the outermost scope drops the
list.  The scope belongs to the step loop that owns the graphs
(``APOTSTrainer.fit``, ``SupervisedTrainer.fit``) and to its thread:
other threads allocate as usual.  The library sets no allocator option
and reads no environment variable.
"""

from __future__ import annotations

import contextlib
import sys
import threading

import numpy as np

from .tensor import is_grad_enabled

__all__ = ["reuse_arrays", "empty"]

#: Arrays kept per shape.  When every one is still referenced elsewhere
#: a request is served by a plain allocation outside the list.
_PER_SHAPE = 4

#: ``free``: the open scope's shape -> arrays list of this thread, or None.
_SCOPE = threading.local()


def _refcount_in_scan(arrays: list[np.ndarray]) -> int:
    """The refcount :func:`empty`'s scan reads for an array only the list holds."""
    for array in arrays:
        return sys.getrefcount(array)
    raise AssertionError("unreachable")


_SOLE = _refcount_in_scan([np.empty(0)])


@contextlib.contextmanager
def reuse_arrays():
    """Serve :func:`empty` from a shape-keyed free list until the scope exits.

    Nested scopes share the outermost one's list.
    """
    outer = getattr(_SCOPE, "free", None)
    if outer is None:
        _SCOPE.free = {}
    try:
        yield
    finally:
        _SCOPE.free = outer


def empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array, reused from the free list inside a scope.

    Under ``no_grad`` no graph keeps a kernel's arrays past the next
    layer, so listing one of every shape would only add to the peak:
    those allocate as usual.
    """
    free = getattr(_SCOPE, "free", None)
    if free is None or not is_grad_enabled():
        return np.empty(shape)
    arrays = free.setdefault(shape, [])
    for array in arrays:
        if sys.getrefcount(array) == _SOLE:
            return array
    array = np.empty(shape)
    if len(arrays) < _PER_SHAPE:
        arrays.append(array)
    return array
