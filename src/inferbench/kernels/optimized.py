"""Optimized float kernels: GEMM-based convs on one Python thread.

conv2d takes one of two paths, by ``kn2row_applies``:

- kn2row, for a stride-1 k x k conv with at most a quarter as many output
  as input channels (the 3-channel output convs of tests 4-6, 8 and 9):
  per band of ``_TILE_ELEMS // W`` input rows, one GEMM of the
  (kh * kw * Cout, Cin) weight with the band gives every tap's output
  plane, and each plane is added, shifted and clipped, into a (Cout, oh,
  ow) accumulator that starts at the bias.  An im2col GEMM with N = 3 runs
  several times slower; with equal channels, at a ratio of 2 or on 1x1
  kernels kn2row loses or gains nothing.
- tiled im2col, for every other conv: a fixed grid of ``_TILE_ELEMS // ow``
  output rows of one image per tile.  Each tile copies only the input rows
  it reads into a zero-padded slab, never the whole padded image; an
  unpadded tile is a view of the input.

Both paths run the same operand shapes, and hence give the same bits, on
every run.  resize_bilinear interpolates along x each input row that an
output row reads, once, then blends those rows along y.  depthwise_conv2d
runs ``shifted_taps``, as the int8 one does.  Covers every op in float32
only; the int8 path belongs to the quantized backend.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..tensor import Tensor
from . import KernelSet
from .im2col import im2col, shifted_taps
from .shapes import (
    SAME, VALID, conv_shape, fc_shape, pad_amounts, pool_geometry, resize_shape,
)
from . import reference
from .reference import _as_vec, _zero_pad

# Output positions (patch rows) per im2col tile, input positions per kn2row band.
_TILE_ELEMS = 8192


def conv2d(x, w, bias, stride=(1, 1), padding=SAME):
    _, oh, ow, cout = conv_shape(x.shape, w.shape, None, stride, padding)
    b = _as_vec(bias, cout).astype(np.float32)
    out = np.empty((x.shape[0], oh, ow, cout), dtype=np.float32)
    if kn2row_applies(w.shape, stride):
        _kn2row(x.data, w.data, b, padding, out)
    else:
        _tiled(x.data, w.data, b, stride, padding, out)
    return Tensor(out)


def kn2row_applies(w_shape, stride):
    """The conv path rule: kn2row for a stride-1 k x k conv with at most a
    quarter as many output as input channels, the tiled im2col otherwise."""
    kh, kw, cin, cout = w_shape
    return tuple(stride) == (1, 1) and kh * kw > 1 and 4 * cout <= cin


def _tiled(x, w, b, stride, padding, out):
    """im2col + GEMM, one tile of ``_TILE_ELEMS // ow`` output rows at a time."""
    kh, kw, cin, cout = w.shape
    sh = stride[0]
    pt = pad_amounts(x.shape[1], kh, sh, padding)[0]
    pads = pad_amounts(x.shape[2], kw, stride[1], padding)
    wm = w.reshape(kh * kw * cin, cout)
    _, oh, ow, _ = out.shape
    step = max(1, _TILE_ELEMS // ow)
    for n in range(x.shape[0]):
        for r0 in range(0, oh, step):
            r1 = min(r0 + step, oh)
            slab = _padded_rows(x[n], r0 * sh - pt, (r1 - 1) * sh - pt + kh, pads)
            # unnamed, so each patch tile is freed before the next is built
            out[n, r0:r1] = (im2col(slab, kh, kw, stride) @ wm + b).reshape(
                r1 - r0, ow, cout)


def _padded_rows(img, lo, hi, pads):
    """Rows ``lo:hi`` of one (H, W, C) image as a (1, hi - lo, pl + W + pr,
    C) slab, zero in the ``pads`` = (pl, pr) columns and in rows outside the
    image.  With nothing to pad it is a view of the image, not a copy."""
    h, w, c = img.shape
    pl, pr = pads
    if lo >= 0 and hi <= h and pl == pr == 0:
        return img[None, lo:hi]
    slab = np.zeros((1, hi - lo, pl + w + pr, c), dtype=img.dtype)
    a, e = max(lo, 0), min(hi, h)
    slab[0, a - lo : e - lo, pl : pl + w] = img[a:e]
    return slab


def _kn2row(x, w, b, padding, out):
    """Stride-1 conv as one GEMM per band of ``_TILE_ELEMS // W`` input rows,
    Y = W^T X^T, with each tap's plane of Y then added, shifted and clipped
    to the output, into a channel-major accumulator that starts at the bias.
    Every tap of an output position lies in the same or a later band, so the
    taps of each sum are added in row-major order."""
    _, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    _, oh, ow, _ = out.shape
    pt = pad_amounts(h, kh, 1, padding)[0]
    pl = pad_amounts(wd, kw, 1, padding)[0]
    wt = w.transpose(0, 1, 3, 2).reshape(kh * kw * cout, cin)
    step = max(1, _TILE_ELEMS // wd)
    for n in range(x.shape[0]):
        acc = np.full((cout, oh, ow), b[:, None, None], dtype=np.float32)
        for y0 in range(0, h, step):
            y1 = min(y0 + step, h)
            y = (wt @ x[n, y0:y1].reshape(-1, cin).T).reshape(kh, kw, cout, y1 - y0, wd)
            for i in range(kh):
                # output rows a:e read band rows a + i - pt - y0 onwards
                a, e = max(0, y0 + pt - i), min(oh, y1 + pt - i)
                for j in range(kw):
                    c0, c1 = max(0, pl - j), min(ow, wd + pl - j)
                    if a < e and c0 < c1:
                        acc[:, a:e, c0:c1] += y[i, j, :, a + i - pt - y0 : e + i - pt - y0,
                                               c0 + j - pl : c1 + j - pl]
            del y  # freed before the next band's GEMM
        out[n] = acc.transpose(1, 2, 0)


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
    # x-lerp each input row that some output row reads, once
    rows = np.union1d(y0, y1)
    r = np.empty((n, h, out_w, c), dtype=np.float32)
    d = x.data[:, rows]
    r[:, rows] = d[:, :, x0] * (1 - fx) + d[:, :, x1] * fx
    return Tensor(r[:, y0] * (1 - fy) + r[:, y1] * fy)


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
