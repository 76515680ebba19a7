"""Activation layers (stateless Module wrappers over Tensor methods)."""

from __future__ import annotations

from ..module import Module
from ..tensor import Tensor

__all__ = ["ReLU", "LeakyReLU"]


class ReLU(Module):
    """Rectified linear unit: ``max(x, 0)``."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)
