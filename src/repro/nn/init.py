"""Weight initialisation schemes.

All initialisers take an explicit ``numpy.random.Generator`` so every
experiment in the repository is reproducible from a single seed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["xavier_uniform", "kaiming_uniform", "uniform", "zeros"]


def _fan(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense or convolutional weights."""
    if len(shape) < 2:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot & Bengio (2010) uniform initialisation."""
    fan_in, fan_out = _fan(shape)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He et al. (2015) uniform initialisation for ReLU networks."""
    fan_in, _ = _fan(shape)
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def uniform(shape: tuple[int, ...], rng: np.random.Generator, bound: float) -> np.ndarray:
    """Uniform initialisation in [-bound, bound]."""
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (biases)."""
    return np.zeros(shape, dtype=np.float64)
