"""The convolution layer, built on the im2col primitives."""

from __future__ import annotations

import numpy as np

from .. import init, ops
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["Conv2d"]


def _pair(value: int | tuple[int, int]) -> tuple[int, int]:
    return (value, value) if isinstance(value, int) else tuple(value)


class Conv2d(Module):
    """2-D convolution (cross-correlation) layer.

    Parameters follow the familiar convention: weight of shape
    (out_channels, in_channels, kh, kw), optional bias of shape
    (out_channels,).  Initialised with Kaiming uniform (ReLU networks).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        padding: int | tuple[int, int] = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        shape = (out_channels, in_channels) + self.kernel_size
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def output_shape(self, height: int, width: int) -> tuple[int, int]:
        """Spatial output size for a given input size."""
        kh, kw = self.kernel_size
        sh, sw = self.stride
        ph, pw = self.padding
        return (height + 2 * ph - kh) // sh + 1, (width + 2 * pw - kw) // sw + 1

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )

