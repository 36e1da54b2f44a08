"""Quantized backend: int8 inference on exact float32 BLAS GEMMs.

Every accumulator here is exact, so this backend agrees bit for bit with
the reference int8 kernels and requantizes with the same
``reference.requantize``; only speed differs.

- conv2d and fully_connected compute (x - zp_x) @ (w - zp_w), the conv
  through the same im2col as the optimized float conv.  numpy multiplies
  integer matrices without BLAS, float ones with it.  Every operand is an
  integer of magnitude at most 255, so every product is at most 255**2.
  The reduction runs as float32 GEMMs over K-chunks of at most 256 rows:
  a chunk's partial sums are integers of magnitude at most
  256 * 255**2 = 16,646,400 < 2**24, which float32 holds exactly, in any
  order the BLAS adds them.  The chunk results are added in float64, where
  ``reference.MAX_Q_KERNEL``/``MAX_Q_CHANNELS`` cap a conv's reduction at
  K = 9 * 9 * 1024, so every partial sum is at most 255**2 * 82944 ~ 5.4e9
  < 2**53.  A fully connected layer would need K > 2**53 / 255**2 ~ 1.4e11,
  a weight far larger than memory, to lose exactness.  The int32 bias is
  added in float64 too, and ``requantize`` takes the float64 accumulator
  as it is.  The chunk is 256 rows, not the largest exact length, 258
  (258 * 255**2 < 2**24 < 259 * 255**2): 256 cuts the power-of-two K of
  the 1x1 convs into equal chunks that start 1 KiB apart in each patch
  row, and 258 would save a chunk only for K in (256 m, 258 m].
- depthwise_conv2d has no GEMM; it adds kh * kw shifted, strided slices of
  the padded input times one weight tap each.  int32 is exact here
  (|acc| <= 255**2 * 81 < 2**31) and moves half the bytes of int64.
- relu looks each code up in a 256-entry table that ``reference.qrelu``
  builds for the node's (in, out) qparams, exact because qrelu is
  elementwise.  The tables are cached per qparams pair, 256 bytes each.

Every other int8 op is the reference kernel.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..tensor import INT8Q, Tensor
from . import KernelSet, reference
from .im2col import im2col
from .shapes import conv_shape, fc_shape
from .reference import _check_q_config, _zero_pad, int8_adapters, requantize

# all 256 int8 codes, ordered by their uint8 bit pattern
_CODES = np.arange(256, dtype=np.uint8).view(np.int8).reshape(1, 1, 1, 256)

# reduction rows per float32 GEMM; exact while _CHUNK * 255**2 < 2**24
_CHUNK = 256


def _centered(t):
    """A tensor's codes minus its zero point, as float32 (exact integers)."""
    return np.subtract(t.data, t.qparams.zero_point, dtype=np.float32)


def _exact_gemm(a, w, bias_i32):
    """``a @ (w - zp_w) + bias`` as float64 holding exact integers.

    ``a`` holds centered codes as float32; each K-chunk is one float32 GEMM.
    """
    wc = _centered(w).reshape(-1, w.shape[-1])
    acc = (a[:, :_CHUNK] @ wc[:_CHUNK]).astype(np.float64)
    for k in range(_CHUNK, wc.shape[0], _CHUNK):
        acc += a[:, k : k + _CHUNK] @ wc[k : k + _CHUNK]
    if bias_i32 is not None:
        acc += bias_i32
    return acc


def qconv2d(x, w, bias_i32, stride, padding, out_qp):
    shape = conv_shape(x.shape, w.shape, None, stride, padding)
    kh, kw, cin, _ = w.shape
    _check_q_config(kh, kw, cin)
    # zero padding of centered codes represents real zeros
    xp = _zero_pad(_centered(x), kh, kw, stride, padding)
    acc = _exact_gemm(im2col(xp, kh, kw, stride), w, bias_i32)
    acc = acc.reshape(shape)
    return Tensor(requantize(acc, x.qparams, w.qparams, out_qp), INT8Q, out_qp)


def qdepthwise_conv2d(x, w, bias_i32, stride, padding, out_qp):
    _, oh, ow, c = conv_shape(x.shape, w.shape, None, stride, padding, depthwise=True)
    kh, kw = w.shape[:2]
    _check_q_config(kh, kw, 1)
    sh, sw = stride
    xp = _zero_pad(np.subtract(x.data, x.qparams.zero_point, dtype=np.int32),
                   kh, kw, stride, padding)
    wk = w.data[:, :, :, 0].astype(np.int32) - w.qparams.zero_point
    acc = np.zeros((x.shape[0], oh, ow, c), dtype=np.int32)
    for i in range(kh):
        for j in range(kw):
            acc += xp[:, i : i + sh * (oh - 1) + 1 : sh,
                      j : j + sw * (ow - 1) + 1 : sw] * wk[i, j]
    if bias_i32 is not None:
        acc = acc + np.asarray(bias_i32, dtype=np.int64)
    return Tensor(requantize(acc, x.qparams, w.qparams, out_qp), INT8Q, out_qp)


def qfully_connected(x, w, bias_i32, out_qp):
    shape = fc_shape(x.shape, w.shape, None)
    flat = _centered(x).reshape(x.shape[0], -1)
    q = requantize(_exact_gemm(flat, w, bias_i32), x.qparams, w.qparams, out_qp)
    return Tensor(q.reshape(shape), INT8Q, out_qp)


@lru_cache(maxsize=256)
def _relu_table(in_qp, out_qp):
    """``reference.qrelu`` of every code, indexed by its uint8 bit pattern."""
    table = reference.qrelu(Tensor(_CODES, INT8Q, in_qp), out_qp).data.reshape(256)
    table.flags.writeable = False
    return table


def qrelu(x, out_qp):
    table = _relu_table(x.qparams, out_qp)
    return Tensor(np.take(table, x.data.view(np.uint8)), INT8Q, out_qp)


def make_kernel_set() -> KernelSet:
    return KernelSet("quantized", int8_adapters({
        "conv2d": qconv2d,
        "depthwise_conv2d": qdepthwise_conv2d,
        "fully_connected": qfully_connected,
        "relu": qrelu,
    }))
