"""Optimized float kernels: tiled im2col + GEMM, optional multi-threading.

The tiling grid is fixed regardless of the worker count, and each tile is
computed by exactly one worker with identical operand shapes, so results are
bit-identical at any thread count.  Covers every op in float32 only; the
int8 path belongs to the quantized backend.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from ..tensor import Tensor
from . import KernelSet
from .im2col import im2col
from .shapes import SAME, VALID, conv_out_hw, pad_amounts
from . import reference
from .reference import _as_vec, _check_conv_shapes, _check_fc_rows, _zero_pad

# Patch rows per GEMM tile; fixed so the reduction grid never depends on
# the worker count.
_TILE_ELEMS = 8192


class OptimizedBackend:
    """Cache-tiled float32 kernel collection."""

    def __init__(self, threads: int = 1):
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.threads = threads

    def _run_tiles(self, tasks):
        if self.threads == 1 or len(tasks) <= 1:
            for t in tasks:
                t()
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as ex:
                list(ex.map(lambda f: f(), tasks))

    def conv2d(self, x, w, bias, stride=(1, 1), padding=SAME):
        kh, kw, cin, cout = _check_conv_shapes(x, w)
        oh, ow = conv_out_hw(x.shape[1:3], (kh, kw), stride, padding)
        b = _as_vec(bias, cout).astype(np.float32)
        xp = _zero_pad(x.data, kh, kw, stride, padding)
        wm = w.data.reshape(kh * kw * cin, cout)
        out = np.empty((x.shape[0], oh, ow, cout), dtype=np.float32)
        rows = max(1, _TILE_ELEMS // max(1, ow))

        def tile(n, r0, r1):
            def run():
                block = im2col(xp, kh, kw, stride, n, slice(r0, r1))
                out[n, r0:r1] = (block @ wm + b).reshape(r1 - r0, ow, cout)

            return run

        tasks = [
            tile(n, r0, min(r0 + rows, oh))
            for n in range(x.shape[0])
            for r0 in range(0, oh, rows)
        ]
        self._run_tiles(tasks)
        return Tensor(out)

    def depthwise_conv2d(self, x, w, bias, stride=(1, 1), padding=SAME):
        kh, kw, c, _ = _check_conv_shapes(x, w, depthwise=True)
        oh, ow = conv_out_hw(x.shape[1:3], (kh, kw), stride, padding)
        b = _as_vec(bias, c).astype(np.float32)
        xp = _zero_pad(x.data, kh, kw, stride, padding)
        v = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, :: stride[0], :: stride[1]]
        wk = w.data[:, :, :, 0]
        out = np.empty((x.shape[0], oh, ow, c), dtype=np.float32)
        rows = max(1, _TILE_ELEMS // max(1, ow))

        def tile(n, r0, r1):
            def run():
                out[n, r0:r1] = np.einsum(
                    "rwckl,klc->rwc", v[n, r0:r1], wk, optimize=True
                ) + b

            return run

        tasks = [
            tile(n, r0, min(r0 + rows, oh))
            for n in range(x.shape[0])
            for r0 in range(0, oh, rows)
        ]
        self._run_tiles(tasks)
        return Tensor(out)

    def fully_connected(self, x, w, bias):
        wm = w.data.reshape(w.shape[-2], w.shape[-1])
        flat = x.data.reshape(x.shape[0], -1)
        _check_fc_rows(flat, wm.shape[0])
        b = _as_vec(bias, wm.shape[1]).astype(np.float32)
        out = flat @ wm + b
        return Tensor(out.reshape(x.shape[0], 1, 1, wm.shape[1]))

    def pool(self, x, kind, window, stride=None, padding=VALID):
        if kind not in ("max", "avg"):
            raise ValueError(f"unknown pool kind {kind!r}")
        if window is None:
            window, stride, padding = (x.shape[1], x.shape[2]), (1, 1), VALID
        if stride is None:
            stride = window
        h, w = x.shape[1], x.shape[2]
        pt, pb = pad_amounts(h, window[0], stride[0], padding)
        pl, pr = pad_amounts(w, window[1], stride[1], padding)
        fill = -np.inf if kind == "max" else 0.0
        xp = np.pad(
            x.data, ((0, 0), (pt, pb), (pl, pr), (0, 0)), constant_values=fill
        )
        v = sliding_window_view(xp, window, axis=(1, 2))[:, :: stride[0], :: stride[1]]
        if kind == "max":
            return Tensor(v.max(axis=(4, 5)))
        s = v.sum(axis=(4, 5), dtype=np.float64)
        ones = np.pad(np.ones((h, w), dtype=np.float64), ((pt, pb), (pl, pr)))
        counts = sliding_window_view(ones, window)[:: stride[0], :: stride[1]].sum(
            axis=(2, 3)
        )
        return Tensor((s / counts[None, :, :, None]).astype(np.float32))

    def resize_bilinear(self, x, out_h, out_w):
        if out_h < 1 or out_w < 1:
            raise ShapeError("output extents must be >= 1")
        n, h, w, c = x.shape
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

    def kernel_set(self) -> KernelSet:
        funcs = {
            "conv2d": self.conv2d,
            "depthwise_conv2d": self.depthwise_conv2d,
            "fully_connected": self.fully_connected,
            "pool": self.pool,
            "resize_bilinear": self.resize_bilinear,
            # Elementwise ops are already single numpy expressions.
            "add": reference.add,
            "relu": reference.relu,
            "concat_channels": reference.concat_channels,
            "softmax": reference.softmax,
        }
        return KernelSet("optimized", reference.float_adapters(funcs))


def make_kernel_set(threads: int = 1) -> KernelSet:
    return OptimizedBackend(threads).kernel_set()
