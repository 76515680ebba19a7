"""Structural and convolutional differentiable operations.

These are free functions over :class:`repro.nn.tensor.Tensor` that do not
fit naturally as methods: concatenation/stacking, padding, im2col-based 2-D
convolution and the elementwise ``maximum``.

The convolution forward/backward pair is implemented as a single primitive
(rather than composed from indexing ops) because the im2col/col2im
formulation is orders of magnitude faster in numpy.

Forward computations with derived state (the convolution patch matrix)
are factored into a ``_*_forward`` helper shared with
:mod:`repro.nn.compile`, so a compiled replay recomputes bit-identical
values into the recorded buffers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import pool
from .tensor import Tensor, as_tensor

__all__ = [
    "concat",
    "stack",
    "pad2d",
    "conv2d",
    "maximum",
    "col2im",
]


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad):
        return tuple(np.split(grad, boundaries, axis=axis))

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tensors, backward, "concat", {"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(p.squeeze(axis) for p in pieces)

    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tensors, backward, "stack", {"axis": axis})


def pad2d(x: Tensor, padding: int | tuple[int, int]) -> Tensor:
    """Zero-pad the last two axes of a (N, C, H, W) tensor."""
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    if ph == 0 and pw == 0:
        return x
    pads = [(0, 0)] * (x.ndim - 2) + [(ph, ph), (pw, pw)]
    h, w = x.shape[-2:]
    padded = pool.empty(x.shape[:-2] + (h + 2 * ph, w + 2 * pw))
    padded.fill(0.0)
    padded[..., ph : ph + h, pw : pw + w] = x.data

    def backward(grad):
        slicer = tuple(
            slice(p[0], grad.shape[i] - p[1] if p[1] else None) for i, p in enumerate(pads)
        )
        return (grad[slicer],)

    return Tensor._make(padded, (x,), backward, "pad2d", {"pads": pads})


# ---------------------------------------------------------------------------
# im2col / col2im machinery
# ---------------------------------------------------------------------------
#: Patch-gradient bytes ``col2im`` folds per block of images: each of the
#: kh*kw slab adds re-reads the block, which then stays in cache.
_FOLD_BLOCK_BYTES = 1 << 20

def _patches(
    x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int]
) -> tuple[np.ndarray, int, int]:
    """Zero-copy (N, C, kh, kw, out_h, out_w) patch view of (N, C, H, W)."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    shape = (n, c, kh, kw, out_h, out_w)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2],
        x.strides[3],
        x.strides[2] * sh,
        x.strides[3] * sw,
    )
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides), out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
) -> np.ndarray:
    """Fold (N, C*kh*kw, out_h*out_w) patch gradients back into an image gradient.

    The sum runs channels-last, into an (N, H, W, C) buffer returned as its
    (N, C, H, W) view, over blocks of images whose patch gradients fit in
    cache: each image element still adds its patch terms in the same
    ``i, j`` order, so the values are those of an NCHW fold.
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    grad_x = np.zeros((n, h, w, c))
    cols = cols.reshape(n, c, kh, kw, out_h, out_w).transpose(0, 4, 5, 1, 2, 3)
    block = max(1, _FOLD_BLOCK_BYTES // max(1, grad_x.itemsize * c * kh * kw * out_h * out_w))
    for start in range(0, n, block):
        grad_block, cols_block = grad_x[start : start + block], cols[start : start + block]
        for i in range(kh):
            for j in range(kw):
                rows = slice(i, i + sh * out_h, sh)
                grad_block[:, rows, j : j + sw * out_w : sw] += cols_block[..., i, j]
    return grad_x.transpose(0, 3, 1, 2)


def _conv2d_forward(
    x_data: np.ndarray,
    w_data: np.ndarray,
    bias_data: np.ndarray | None,
    stride: tuple[int, int],
    cols_flat: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int, int, int]]:
    """The conv2d forward math, shared by the eager op and replay.

    ``cols_flat`` optionally names the (N*L, K) patch buffer to refill
    (a replay passes the one its backward captured); a fresh one is
    allocated otherwise.  Returns
    ``(out, cols_flat, w_mat, (k_dim, length, out_h, out_w))``.
    """
    n = x_data.shape[0]
    c_out, c_in, kh, kw = w_data.shape
    patches, out_h, out_w = _patches(x_data, (kh, kw), stride)
    k_dim = c_in * kh * kw
    length = out_h * out_w
    if cols_flat is None:
        cols_flat = pool.empty((n * length, k_dim))
    # (N*L, K) @ (K, C_out) keeps everything in BLAS; the patch view is
    # gathered into that operand's row-major layout in one strided copy.
    np.copyto(
        cols_flat.reshape(n, out_h, out_w, c_in, kh, kw), patches.transpose(0, 4, 5, 1, 2, 3)
    )
    w_mat = w_data.reshape(c_out, -1)  # (C_out, C*kh*kw)
    product = (cols_flat @ w_mat.T).reshape(n, length, c_out)
    out = pool.empty((n, c_out, out_h, out_w))
    np.copyto(out.reshape(n, c_out, length), product.transpose(0, 2, 1))
    if bias_data is not None:
        out += bias_data.reshape(1, c_out, 1, 1)
    return out, cols_flat, w_mat, (k_dim, length, out_h, out_w)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
) -> Tensor:
    """2-D cross-correlation over a (N, C_in, H, W) input.

    ``weight`` has shape (C_out, C_in, kh, kw), ``bias`` shape (C_out,).
    """
    stride = (stride, stride) if isinstance(stride, int) else tuple(stride)
    if padding != 0 and padding != (0, 0):
        x = pad2d(x, padding)

    x_data = x.data
    w_data = weight.data
    n, c_in, h, w = x_data.shape
    c_out, c_in_w, kh, kw = w_data.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {c_in_w}")

    out, cols_flat, w_mat, (k_dim, length, _, _) = _conv2d_forward(
        x_data, w_data, None if bias is None else bias.data, stride
    )

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_flat = grad.reshape(n, c_out, length)  # (N, C_out, L)
        grad_2d = np.ascontiguousarray(grad_flat.transpose(0, 2, 1)).reshape(n * length, c_out)
        grad_w = (grad_2d.T @ cols_flat).reshape(w_data.shape)
        grad_x = None  # a first layer's input needs no gradient: skip col2im
        if x.requires_grad:
            # col2im only splits axes, so it reads this transposed view in place.
            grad_cols = (grad_2d @ w_mat).reshape(n, length, k_dim).transpose(0, 2, 1)
            grad_x = col2im(grad_cols, x_data.shape, (kh, kw), stride)
        if bias is None:
            return grad_x, grad_w
        grad_b = grad_2d.sum(axis=0)
        return grad_x, grad_w, grad_b

    return Tensor._make(out, parents, backward, "conv2d", {"cols_flat": cols_flat, "stride": stride})


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum; ties route gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    mask = a.data >= b.data

    def backward(grad):
        return grad * mask, grad * ~mask

    return Tensor._make(np.maximum(a.data, b.data), (a, b), backward, "maximum")

