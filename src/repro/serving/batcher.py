"""Micro-batching: coalesce per-segment requests into vectorised forwards.

The numpy predictors are BLAS-bound: one forward over a batch of B
windows costs barely more than a forward over one window, so the service
queues concurrent requests and runs them together.  Two knobs control
the trade-off:

``max_batch_size``
    A flush never sends more than this many windows per forward (large
    queues are split into chunks).

``linger_seconds``
    How long a submitted request may wait for co-riders before a flush
    is forced.  ``0`` (the default) batches only what is already queued;
    :meth:`MicroBatcher.poll` (or any later submit) enforces the
    deadline, so a caller that wants latency-bounded coalescing submits
    without flushing and polls.

Determinism: BLAS kernels pick different blocking for different batch
shapes, so the *same* window forwarded alone and forwarded inside a
batch of 60 can differ in the last ulp.  Every forward is therefore
zero-padded to exactly ``max_batch_size`` rows, which pins the kernel
shape.  At the sizes that are pinned (2, 4, 8 and 64, the default;
``tests/serving/test_row_independence.py``) that also makes each row's
result independent of its co-riders — a forecast is bitwise identical
whether it was served alone, inside a full batch, or recomputed after a
cache miss.  It is not promised at other sizes: at 3 and 5 some rows of
the micro graph F model moved in the last bit with their co-riders.
The padding rows are discarded before results are assigned.  One shape
per batcher also means one compiled forward tape per served model.

The padded batch is allocated once and reused: a flush writes its rows
and zeroes only the rows the previous flush used that this one does
not, so every forward still sees a batch equal to a fresh zero-padded
one.  ``forward`` must not keep references to its inputs.

Padding fill: because a row's result does not depend on its co-riders
(at the pinned sizes), the rows a chunk would pad may carry other
windows instead.  A flush
given a ``fill`` asks it once for a block (``fill.take()`` returns an
``(images, day_types, flat)`` block, or ``None``); the block's first rows
ride in the last request chunk's spare rows and the rest run in further
``max_batch_size`` forwards, the last one zero-padded.  A flush with no
request queued still runs the block in forwards of its own.  Its values come
back as one array (``fill.give(values)``); no :class:`PendingForecast`
is made for them.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .state import WindowView
from ..obs.telemetry import Telemetry

__all__ = ["PendingForecast", "MicroBatcher"]


class PendingForecast:
    """A submitted request; ``value`` is set once flushed."""

    __slots__ = ("view", "value", "done")

    def __init__(self, view: WindowView):
        self.view = view
        self.value: float | None = None
        self.done = False


class MicroBatcher:
    """Coalesces window forwards; see the module docstring.

    ``forward`` maps ``(images, day_types, flat)`` batches to a (B,)
    array of scaled predictions.  It is looked up per flush, so the
    service can hot-swap the model underneath.  ``output`` maps a
    forward's real rows to the values served, in one call per forward
    (the service passes its speed scaler's ``inverse_transform``, so
    values are km/h); it must work elementwise, so a row's value does
    not depend on the others.  By default values are the predictions.
    """

    def __init__(
        self,
        forward: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
        max_batch_size: int = 64,
        linger_seconds: float = 0.0,
        telemetry: Telemetry | None = None,
        clock: Callable[[], float] = time.monotonic,
        output: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if linger_seconds < 0:
            raise ValueError("linger_seconds cannot be negative")
        self._forward = forward
        self.output = output
        self.max_batch_size = max_batch_size
        self.linger_seconds = linger_seconds
        self._telemetry = telemetry
        self._clock = clock
        self._queue: list[PendingForecast] = []
        self._oldest: float | None = None
        # The reused padded (images, day_types, flat) batch and how many
        # leading rows of it hold windows rather than zeros.
        self._batch: list[np.ndarray] | None = None
        self._rows_used = 0

    def __len__(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def submit(self, view: WindowView) -> PendingForecast:
        """Queue one request; auto-flushes on a full batch or expired linger."""
        pending = PendingForecast(view)
        self._queue.append(pending)
        if self._oldest is None:
            self._oldest = self._clock()
        if len(self._queue) >= self.max_batch_size or (
            self.linger_seconds > 0 and self._linger_expired()
        ):
            self.flush()
        return pending

    def poll(self) -> bool:
        """Flush if the oldest queued request has waited past the linger.

        Returns True when a flush ran.
        """
        if self._queue and self._linger_expired():
            self.flush()
            return True
        return False

    def _linger_expired(self) -> bool:
        return self._oldest is not None and self._clock() - self._oldest >= self.linger_seconds

    # ------------------------------------------------------------------
    def flush(self, fill=None) -> int:
        """Run every queued request through the model; returns the count.

        With ``fill``, the forwards also carry the fill's block after the
        requests (see the module docstring), even when no request is
        queued: the requests may have gone in an automatic full flush.
        """
        queue, self._queue = self._queue, []
        self._oldest = None
        block = fill.take() if fill is not None else None
        filled = 0 if block is None else len(block[2])
        fill_values = np.empty(filled)
        size, requests = self.max_batch_size, len(queue)
        for start in range(0, requests + filled, size):
            # Fill rows lo:hi follow this chunk's requests.
            lo = max(start - requests, 0)
            hi = max(min(start + size - requests, filled), lo)
            fill_values[lo:hi] = self._run(queue[start : start + size], block, lo, hi)
        if block is not None:
            fill.give(fill_values)
        return requests

    def _padded_batch(self, shapes: tuple) -> list[np.ndarray]:
        """The reused zero-padded batch, reallocated only if the window shape changes."""
        batch = self._batch
        if batch is None or any(b.shape[1:] != shape for b, shape in zip(batch, shapes)):
            batch = [np.zeros((self.max_batch_size, *shape)) for shape in shapes]
            self._batch, self._rows_used = batch, 0
        return batch

    def _run(self, chunk: list[PendingForecast], block, lo: int, hi: int) -> np.ndarray:
        """One forward of ``chunk`` then ``block`` rows ``lo:hi``; returns those rows' values."""
        size = len(chunk)
        rows = size + hi - lo
        if chunk:
            views = [p.view for p in chunk]
            requested = ([v.image for v in views], [v.day_type for v in views], [v.flat for v in views])
            batch = self._padded_batch(tuple(rows_of[0].shape for rows_of in requested))
        else:
            batch = self._padded_batch(tuple(column.shape[1:] for column in block))
        stale = self._rows_used
        self._rows_used = max(stale, rows)  # rows that may hold windows if a copy fails
        for index, inputs in enumerate(batch):
            # One copy per input, straight into the padded batch; rows the
            # last forward filled beyond this one go back to zero.
            if chunk:
                np.stack(requested[index], out=inputs[:size])
            if rows > size:
                inputs[size:rows] = block[index][lo:hi]
            if stale > rows:
                inputs[rows:stale] = 0.0
        self._rows_used = rows
        predictions = np.asarray(self._forward(*batch)).reshape(-1)[:rows]
        values = predictions if self.output is None else self.output(predictions)
        for pending, value in zip(chunk, values[:size].tolist()):
            pending.value = value
            pending.done = True
        if self._telemetry is not None:
            self._telemetry.histogram("batch_size").observe(float(rows))
        return values[size:]
