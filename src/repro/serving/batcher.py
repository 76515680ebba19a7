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
batch of 60 can differ in the last ulp.  With ``pad_batches=True``
(default) every forward is zero-padded to exactly ``max_batch_size``
rows, which pins the kernel shape and makes each row's result
independent of its co-riders — a forecast is bitwise identical whether
it was served alone, inside a full batch, or recomputed after a cache
miss.  The padding rows are discarded before results are assigned.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .state import WindowView
from ..obs.telemetry import Telemetry

__all__ = ["PendingForecast", "MicroBatcher"]


class PendingForecast:
    """A submitted request; ``value`` (scaled) is set once flushed."""

    __slots__ = ("view", "value", "done")

    def __init__(self, view: WindowView):
        self.view = view
        self.value: float | None = None
        self.done = False


class MicroBatcher:
    """Coalesces window forwards; see the module docstring.

    ``forward`` maps ``(images, day_types, flat)`` batches to a (B,)
    array of scaled predictions.  It is looked up per flush, so the
    service can hot-swap the model underneath.
    """

    def __init__(
        self,
        forward: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
        max_batch_size: int = 64,
        linger_seconds: float = 0.0,
        pad_batches: bool = True,
        telemetry: Telemetry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if linger_seconds < 0:
            raise ValueError("linger_seconds cannot be negative")
        self._forward = forward
        self.max_batch_size = max_batch_size
        self.linger_seconds = linger_seconds
        self.pad_batches = pad_batches
        self._telemetry = telemetry
        self._clock = clock
        self._queue: list[PendingForecast] = []
        self._oldest: float | None = None

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
    def flush(self) -> int:
        """Run every queued request through the model; returns the count."""
        queue, self._queue = self._queue, []
        self._oldest = None
        for start in range(0, len(queue), self.max_batch_size):
            self._run(queue[start : start + self.max_batch_size])
        return len(queue)

    def _run(self, chunk: list[PendingForecast]) -> None:
        size = len(chunk)
        rows = self.max_batch_size if self.pad_batches else size
        views = [p.view for p in chunk]
        inputs = []
        for rows_of in (
            [v.image for v in views],
            [v.day_type for v in views],
            [v.flat for v in views],
        ):
            # One copy per input: the windows land in a zero-padded batch.
            batch = np.zeros((rows, *rows_of[0].shape))
            np.stack(rows_of, out=batch[:size])
            inputs.append(batch)
        predictions = np.asarray(self._forward(*inputs)).reshape(-1)[:size]
        for pending, value in zip(chunk, predictions):
            pending.value = float(value)
            pending.done = True
        if self._telemetry is not None:
            self._telemetry.histogram("batch_size").observe(float(size))
