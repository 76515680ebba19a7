"""Input-space gradients through the autograd substrate.

Training only ever differentiates with respect to *parameters*; the
input arrays are wrapped in plain (non-grad) Tensors.  Attacks need the
converse: ``d loss / d input`` with the weights frozen.
:func:`input_gradient` runs one forward/backward with the window image
as a ``requires_grad`` leaf.

The flat feature vector is rebuilt *inside* the graph from the image
and the day-type bits (exactly how ``repro.data`` derives it), so the
gradient reaches the image through every predictor body: F reads only
``flat``, C/L/H read ``images`` — either way the image leaf sees the
full chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn

__all__ = ["InputGradient", "input_gradient"]


@dataclass(frozen=True)
class InputGradient:
    """One forward/backward against the inputs.

    ``grad_images`` is ``d objective / d image`` with shape
    ``(B, image_rows, alpha)``; ``predictions`` the scaled forward
    outputs; ``loss`` the scalar objective that was differentiated.
    """

    grad_images: np.ndarray
    predictions: np.ndarray
    loss: float


def input_gradient(predictor, images: np.ndarray, day_types: np.ndarray,
                   targets: np.ndarray | None = None) -> InputGradient:
    """Gradient of the prediction loss w.r.t. the input window image.

    With ``targets`` (scaled speeds) the objective is the *summed*
    squared error — a sum, not a mean, so each sample's gradient is
    independent of the batch size.  Without targets the objective is the
    summed prediction, giving ``d prediction / d input`` per sample.

    Raises
    ------
    RuntimeError
        When called inside :func:`repro.nn.no_grad`.  ``Tensor``
        silently drops ``requires_grad`` while grad is disabled
        (``tensor.py``), which would otherwise surface here as ``None``
        gradients long after the cause is gone from the stack.
    """
    if not nn.is_grad_enabled():
        raise RuntimeError(
            "input_gradient() called inside no_grad(): Tensor silently drops "
            "requires_grad while gradients are disabled, so the input leaf "
            "could never record a tape and its gradients would be None. "
            "Call input_gradient() outside the no_grad() context."
        )
    images = np.asarray(images, dtype=np.float64)
    day_types = np.asarray(day_types, dtype=np.float64)
    images_t = nn.Tensor(images, requires_grad=True)
    day_t = nn.Tensor(day_types)
    flat_t = nn.ops.concat([images_t.reshape(images.shape[0], -1), day_t], axis=1)
    predictions = predictor.forward(images_t, day_t, flat_t)
    if targets is None:
        objective = predictions.sum()
    else:
        residual = predictions - nn.Tensor(np.asarray(targets, dtype=np.float64))
        objective = (residual * residual).sum()
    objective.backward()
    assert images_t.grad is not None
    return InputGradient(
        grad_images=images_t.grad,
        predictions=predictions.data,
        loss=float(objective.data),
    )
