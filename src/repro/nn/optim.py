"""The Adam optimiser and global-norm gradient clipping.

Adam is the one optimiser every APOTS training uses (predictor and
discriminator alike); clipping guards it against exploding or
non-finite gradients.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .module import Parameter

__all__ = ["Adam", "clip_grad_norm"]


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        # All per-parameter state lives as views into flat arrays: when
        # every parameter carries a gradient (the normal training step)
        # the whole moment update runs as a handful of ufunc calls over
        # the flat storage instead of ~10 dispatches per parameter.
        # Elementwise ops never mix elements, so flat and per-view
        # updates are the same float arithmetic bit for bit.
        sizes = [p.data.size for p in self.params]
        bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        total = int(bounds[-1])
        self._flat_m = np.zeros(total, dtype=np.float64)
        self._flat_v = np.zeros(total, dtype=np.float64)
        self._flat_g = np.empty(total, dtype=np.float64)
        self._flat_t1 = np.empty(total, dtype=np.float64)
        self._flat_t2 = np.empty(total, dtype=np.float64)

        def views(flat):
            return [
                flat[int(s):int(e)].reshape(p.data.shape)
                for p, s, e in zip(self.params, bounds[:-1], bounds[1:])
            ]

        self._m = views(self._flat_m)
        self._v = views(self._flat_v)
        self._scratch = list(zip(views(self._flat_t1), views(self._flat_t2)))
        self._grad_views = views(self._flat_g)
        # Seed each parameter's cached gradient buffer with its flat
        # view: backward then accumulates straight into _flat_g and the
        # fast path below needs no gather.  A parameter shared with
        # another optimiser may get re-seeded; the identity check in
        # step() falls back to per-view updates in that case.
        for param, gview in zip(self.params, self._grad_views):
            if param.grad is None:
                param._grad_buf = gview
        self._t = 0

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for param in self.params:
            param.zero_grad()

    def clip_grad_norm(self, max_norm: float, *, drop_nonfinite: bool = True) -> float:
        """:func:`clip_grad_norm` over this optimiser's parameters.

        Reuses per-parameter scratch arrays so the squared-norm pass
        allocates nothing — same arithmetic, hot-loop friendly.
        """
        scratch = getattr(self, "_clip_scratch", None)
        if scratch is None:
            scratch = [np.empty_like(p.data) for p in self.params]
            self._clip_scratch = scratch
        return clip_grad_norm(
            self.params, max_norm, drop_nonfinite=drop_nonfinite, scratch=scratch
        )

    def step(self) -> None:
        self._t += 1
        beta1, beta2 = self.beta1, self.beta2
        bias1 = 1.0 - beta1**self._t
        bias2 = 1.0 - beta2**self._t
        if not self.weight_decay and all(
            param.grad is gview
            for param, gview in zip(self.params, self._grad_views)
        ):
            grad = self._flat_g
            m, v = self._flat_m, self._flat_v
            t1, t2 = self._flat_t1, self._flat_t2
            self._update(grad, m, v, t1, t2, bias1, bias2)
            for param, update in zip(self.params, self._scratch):
                param.data -= update[0]
            return
        for param, m, v, (t1, t2) in zip(
            self.params, self._m, self._v, self._scratch
        ):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            self._update(grad, m, v, t1, t2, bias1, bias2)
            param.data -= t1

    def _update(self, grad, m, v, t1, t2, bias1, bias2) -> None:
        """One Adam moment/update pass, allocation-free via ``out=``.

        Each line is the same float arithmetic as the naive expression
        it replaces (multiplication by a scalar is commutative bitwise).
        """
        beta1, beta2 = self.beta1, self.beta2
        m *= beta1
        np.multiply(grad, 1.0 - beta1, out=t1)
        m += t1
        v *= beta2
        np.multiply(grad, 1.0 - beta2, out=t2)  # (1-b2)*grad ...
        np.multiply(t2, grad, out=t2)  # ... * grad, eager's order
        v += t2
        np.divide(m, bias1, out=t1)  # m_hat
        np.divide(v, bias2, out=t2)  # v_hat
        np.sqrt(t2, out=t2)
        t2 += self.eps
        np.multiply(t1, self.lr, out=t1)  # lr * m_hat
        np.divide(t1, t2, out=t1)


def clip_grad_norm(
    params: Sequence[Parameter],
    max_norm: float,
    *,
    drop_nonfinite: bool = True,
    scratch: Sequence[np.ndarray] | None = None,
) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging divergence).

    A NaN/Inf gradient makes the norm non-finite, and ``norm >
    max_norm`` is False for NaN — naive clipping would wave poisoned
    gradients straight through into the optimiser's running moments.
    With ``drop_nonfinite`` (the default) a non-finite norm instead
    clears every gradient to ``None`` so the following ``step()`` is a
    no-op, and the non-finite norm is still returned so callers (the
    :mod:`repro.obs` monitors) can surface the incident.

    ``scratch`` (one array per parameter, same shapes) makes the
    squared-norm pass allocation-free; entries with a stale shape fall
    back to the allocating expression.  The arithmetic is identical.
    """
    total = 0.0
    for i, param in enumerate(params):
        grad = param.grad
        if grad is None:
            continue
        if scratch is not None and scratch[i].shape == grad.shape:
            np.multiply(grad, grad, out=scratch[i])
            total += float(np.sum(scratch[i]))
        else:
            total += float(np.sum(grad * grad))
    norm = math.sqrt(total) if math.isfinite(total) else total
    if not math.isfinite(norm):
        if drop_nonfinite:
            for param in params:
                param.grad = None
        return norm
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for param in params:
            if param.grad is not None:
                param.grad *= scale
    return norm

