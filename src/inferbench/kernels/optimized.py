"""Optimized float kernels: tiled im2col + GEMM on one Python thread.

conv2d walks a fixed tile grid, ``_TILE_ELEMS // ow`` output rows of one
image per tile, so each tile's GEMM has the same operand shapes, and hence
the same bits, on every run.  depthwise_conv2d runs ``shifted_taps``, as
the int8 one does.  Covers every op in float32 only; the int8 path belongs
to the quantized backend.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..tensor import Tensor
from . import KernelSet
from .im2col import im2col, shifted_taps
from .shapes import SAME, VALID, conv_shape, fc_shape, pool_geometry, resize_shape
from . import reference
from .reference import _as_vec, _zero_pad

# Output positions (patch rows) per GEMM tile.
_TILE_ELEMS = 8192


def conv2d(x, w, bias, stride=(1, 1), padding=SAME):
    _, oh, ow, cout = conv_shape(x.shape, w.shape, None, stride, padding)
    kh, kw, cin, _ = w.shape
    b = _as_vec(bias, cout).astype(np.float32)
    xp = _zero_pad(x.data, kh, kw, stride, padding)
    wm = w.data.reshape(kh * kw * cin, cout)
    out = np.empty((x.shape[0], oh, ow, cout), dtype=np.float32)
    step = max(1, _TILE_ELEMS // max(1, ow))
    for n in range(x.shape[0]):
        for r0 in range(0, oh, step):
            rows = slice(r0, min(r0 + step, oh))
            # unnamed, so each patch tile is freed before the next is built
            out[n, rows] = (im2col(xp, kh, kw, stride, n, rows) @ wm + b).reshape(
                -1, ow, cout)
    return Tensor(out)


def depthwise_conv2d(x, w, bias, stride=(1, 1), padding=SAME):
    shape = conv_shape(x.shape, w.shape, None, stride, padding, depthwise=True)
    kh, kw = w.shape[:2]
    b = _as_vec(bias, shape[3]).astype(np.float32)
    xp = _zero_pad(x.data, kh, kw, stride, padding)
    out = shifted_taps(xp, w.data[:, :, :, 0], stride, np.zeros(shape, np.float32))
    out += b
    return Tensor(out)


def fully_connected(x, w, bias):
    shape = fc_shape(x.shape, w.shape, None)
    wm = w.data.reshape(w.shape[-2], w.shape[-1])
    flat = x.data.reshape(x.shape[0], -1)
    b = _as_vec(bias, wm.shape[1]).astype(np.float32)
    out = flat @ wm + b
    return Tensor(out.reshape(shape))


def pool(x, kind, window, stride=None, padding=VALID):
    h, w = x.shape[1], x.shape[2]
    window, stride, pads, _ = pool_geometry((h, w), kind, window, stride, padding)
    fill = -np.inf if kind == "max" else 0.0
    xp = np.pad(x.data, ((0, 0), *pads, (0, 0)), constant_values=fill)
    v = sliding_window_view(xp, window, axis=(1, 2))[:, :: stride[0], :: stride[1]]
    if kind == "max":
        return Tensor(v.max(axis=(4, 5)))
    s = v.sum(axis=(4, 5), dtype=np.float64)
    ones = np.pad(np.ones((h, w), dtype=np.float64), pads)
    counts = sliding_window_view(ones, window)[:: stride[0], :: stride[1]].sum(
        axis=(2, 3)
    )
    return Tensor((s / counts[None, :, :, None]).astype(np.float32))


def resize_bilinear(x, out_h, out_w):
    n, out_h, out_w, c = resize_shape(x.shape, out_h, out_w)
    h, w = x.shape[1:3]
    if (out_h, out_w) == (h, w):
        return Tensor(x.data.copy())
    sy = np.arange(out_h) * (h / out_h)
    sx = np.arange(out_w) * (w / out_w)
    y0 = np.minimum(np.floor(sy).astype(np.int64), h - 1)
    x0 = np.minimum(np.floor(sx).astype(np.int64), w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (sy - y0).astype(np.float32)[None, :, None, None]
    fx = (sx - x0).astype(np.float32)[None, None, :, None]
    d = x.data
    top = d[:, y0][:, :, x0] * (1 - fx) + d[:, y0][:, :, x1] * fx
    bot = d[:, y1][:, :, x0] * (1 - fx) + d[:, y1][:, :, x1] * fx
    return Tensor(top * (1 - fy) + bot * fy)


def make_kernel_set() -> KernelSet:
    return KernelSet("optimized", reference.float_adapters({
        "conv2d": conv2d,
        "depthwise_conv2d": depthwise_conv2d,
        "fully_connected": fully_connected,
        "pool": pool,
        "resize_bilinear": resize_bilinear,
        # Elementwise ops are already single numpy expressions.
        "add": reference.add,
        "relu": reference.relu,
        "concat_channels": reference.concat_channels,
        "softmax": reference.softmax,
    }))
