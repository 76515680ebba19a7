"""The served batched forward: one compiled tape per checkpoint.

Every forward the :class:`~repro.serving.batcher.MicroBatcher` runs has
the same shape — it always pads to ``max_batch_size`` rows — so one
:class:`repro.nn.compile.CompiledFunction` per served
predictor covers all of them.  Its first call records a tape, the next
two replay it beside an eager forward and compare the outputs bitwise,
and from then on each forward replays the tape's kernels into its own
buffers: no graph is built and no output array is allocated.  A tape
that fails validation is rejected for good and the forward stays eager,
as it does for callers inside ``nn.no_grad()``.  The values served are
the eager ``Predictor.predict`` values on the same padded batch either
way.

The tape's buffers are the price: one set of activations for a full
batch, ``tape_nbytes`` in :meth:`ServedForward.snapshot`.  Loading a new
predictor drops the old tape.  Nothing here refers back to the service,
so a dropped service frees its tape at once rather than at the next
garbage-collection pass.
"""

from __future__ import annotations

import numpy as np

from ..nn.compile import CompiledFunction
from ..obs.telemetry import Telemetry

__all__ = ["ServedForward"]


class ServedForward:
    """Maps ``(images, day_types, flat)`` batches to a (B,) array of scaled predictions.

    The returned array is the tape's output buffer on a replay: read it
    before the next call.
    """

    def __init__(self, predictor, telemetry: Telemetry | None = None):
        self._telemetry = telemetry
        self.load(predictor)

    def load(self, predictor) -> None:
        """Serve ``predictor`` from now on, dropping the previous predictor's tape."""
        self._compiled = CompiledFunction(predictor.forward, name="serve_forward")
        self._rejections = 0
        self._last_mode: str | None = None

    def __call__(self, images: np.ndarray, day_types: np.ndarray, flat: np.ndarray) -> np.ndarray:
        run = self._compiled(images, day_types, flat)
        self._last_mode = run.mode
        rejected = self._compiled.stats["rejected"]
        if rejected != self._rejections:
            if self._telemetry is not None:
                self._telemetry.counter("forward_tape_rejected").inc(rejected - self._rejections)
            self._rejections = rejected
        return run.outputs[0].data

    def snapshot(self) -> dict:
        """Which path the last forward took, the path counts and the tape's state."""
        info = next(iter(self._compiled.tape_info().values()), None)
        return {
            "path": "replay" if self._last_mode == "replay" else "eager",
            **self._compiled.stats,
            "tape": info["state"] if info is not None else "none",
            "rejection_reason": info["reason"] if info is not None else None,
            "tape_nbytes": info["nbytes"] if info is not None else 0,
        }
