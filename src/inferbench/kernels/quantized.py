"""Quantized backend: int8 inference via integer im2col GEMM.

Integer accumulation is exact, so this path agrees bit-for-bit with the
naive reference int8 kernels; only speed differs.  Only the two conv
kernels live here; every other int8 op, fully connected included, is the
reference kernel.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..tensor import INT8Q, Tensor
from . import KernelSet
from .shapes import SAME, conv_out_hw, pad_amounts
from .reference import (
    _check_conv_shapes,
    _check_q_config,
    int8_adapters,
    requantize,
)


def qconv2d(x, w, bias_i32, stride, padding, out_qp):
    kh, kw, cin, cout = _check_conv_shapes(x, w)
    _check_q_config(kh, kw, cin)
    oh, ow = conv_out_hw(x.shape[1:3], (kh, kw), stride, padding)
    pt, pb = pad_amounts(x.shape[1], kh, stride[0], padding)
    pl, pr = pad_amounts(x.shape[2], kw, stride[1], padding)
    xd = x.data.astype(np.int64) - x.qparams.zero_point
    xp = np.pad(xd, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    v = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, :: stride[0], :: stride[1]]
    wm = (w.data.astype(np.int64) - w.qparams.zero_point).reshape(kh * kw * cin, cout)
    b = np.zeros(cout, dtype=np.int64) if bias_i32 is None else np.asarray(bias_i32)
    acc = np.empty((x.shape[0], oh, ow, cout), dtype=np.int64)
    for n in range(x.shape[0]):
        block = np.ascontiguousarray(v[n].transpose(0, 1, 3, 4, 2)).reshape(
            -1, kh * kw * cin
        )
        acc[n] = (block @ wm + b).reshape(oh, ow, cout)
    return Tensor(requantize(acc, x.qparams, w.qparams, out_qp), INT8Q, out_qp)


def qdepthwise_conv2d(x, w, bias_i32, stride, padding, out_qp):
    kh, kw, c, _ = _check_conv_shapes(x, w, depthwise=True)
    _check_q_config(kh, kw, 1)
    oh, ow = conv_out_hw(x.shape[1:3], (kh, kw), stride, padding)
    pt, pb = pad_amounts(x.shape[1], kh, stride[0], padding)
    pl, pr = pad_amounts(x.shape[2], kw, stride[1], padding)
    xd = x.data.astype(np.int64) - x.qparams.zero_point
    xp = np.pad(xd, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    v = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, :: stride[0], :: stride[1]]
    wk = w.data.astype(np.int64)[:, :, :, 0] - w.qparams.zero_point
    b = np.zeros(c, dtype=np.int64) if bias_i32 is None else np.asarray(bias_i32)
    acc = np.einsum("nrwckl,klc->nrwc", v, wk) + b
    return Tensor(requantize(acc, x.qparams, w.qparams, out_qp), INT8Q, out_qp)


def make_kernel_set() -> KernelSet:
    return KernelSet(
        "quantized", int8_adapters(qconv2d, qdepthwise_conv2d)
    )
