"""Quantized backend: int8 inference on exact float32 BLAS GEMMs.

This backend supplies exact accumulators (``ACCUMULATORS``), and
``reference.int8_adapters`` adds the one output stage that the reference
backend shares, so the two agree bit for bit; only speed differs.

- conv2d and fully_connected compute (x - zp_x) @ (w - zp_w), the conv
  through the same im2col as the optimized float conv.  numpy multiplies
  integer matrices without BLAS, float ones with it, so the reduction runs
  as float32 GEMMs over K-chunks of at most 256 rows, whose partial sums
  are integers below 256 * 255**2 < 2**24 in any order the BLAS adds them.
  The chunks and the bias are added in float64, exact for any conv
  that ``reference.MAX_Q_KERNEL``/``MAX_Q_CHANNELS`` admit (see there) and
  for any fully connected layer below K = 2**53 / 255**2 ~ 1.4e11 rows.
  The chunk is 256 rows, not the largest exact length, 258
  (258 * 255**2 < 2**24 < 259 * 255**2): 256 cuts the power-of-two K of
  the 1x1 convs into equal chunks that start 1 KiB apart in each patch row.
- depthwise_conv2d runs ``shifted_taps``, the loop of the float depthwise
  conv, on int32 centered codes: exact (|acc| <= 255**2 * 81 < 2**31),
  and half the bytes of int64.

Every other int8 op is the reference kernel.  ``workloads.quantize_graph``
folds a ReLU into the clip of the conv, depthwise or FC layer before it;
a ReLU it keeps runs ``reference.qrelu``.
"""

from __future__ import annotations

import numpy as np

from . import KernelSet
from .im2col import im2col, shifted_taps
from .shapes import conv_shape, fc_shape
from .reference import _centered, _zero_pad, int8_adapters

# reduction rows per float32 GEMM; exact while _CHUNK * 255**2 < 2**24
_CHUNK = 256


def _exact_gemm(a, w, bias_i32):
    """``a @ (w - zp_w) + bias`` as float64 holding exact integers.

    ``a`` holds centered codes as float32; each K-chunk is one float32 GEMM.
    """
    wc = _centered(w, np.float32).reshape(-1, w.shape[-1])
    acc = (a[:, :_CHUNK] @ wc[:_CHUNK]).astype(np.float64)
    for k in range(_CHUNK, wc.shape[0], _CHUNK):
        acc += a[:, k : k + _CHUNK] @ wc[k : k + _CHUNK]
    if bias_i32 is not None:
        acc += bias_i32
    return acc


def _conv_acc(x, w, bias_i32, stride, padding):
    shape = conv_shape(x.shape, w.shape, getattr(bias_i32, "shape", None),
                       stride, padding)
    kh, kw = w.shape[:2]
    # zero padding of centered codes represents real zeros
    xp = _zero_pad(_centered(x, np.float32), kh, kw, stride, padding)
    return _exact_gemm(im2col(xp, kh, kw, stride), w, bias_i32).reshape(shape)


def _depthwise_acc(x, w, bias_i32, stride, padding):
    shape = conv_shape(x.shape, w.shape, getattr(bias_i32, "shape", None),
                       stride, padding, depthwise=True)
    kh, kw = w.shape[:2]
    xp = _zero_pad(_centered(x, np.int32), kh, kw, stride, padding)
    wk = _centered(w, np.int32)[:, :, :, 0]
    acc = shifted_taps(xp, wk, stride, np.zeros(shape, dtype=np.int32))
    if bias_i32 is not None:
        acc = acc + np.asarray(bias_i32, dtype=np.int64)
    return acc


def _fc_acc(x, w, bias_i32):
    shape = fc_shape(x.shape, w.shape, getattr(bias_i32, "shape", None))
    flat = _centered(x, np.float32).reshape(x.shape[0], -1)
    return _exact_gemm(flat, w, bias_i32).reshape(shape)


ACCUMULATORS = {
    "conv2d": _conv_acc,
    "depthwise_conv2d": _depthwise_acc,
    "fully_connected": _fc_acc,
}


def make_kernel_set() -> KernelSet:
    return KernelSet("quantized", int8_adapters(ACCUMULATORS))
