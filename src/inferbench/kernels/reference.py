"""Reference kernels: per-pixel loops with no blocking.

These are the correctness oracle for every other backend, and each op's
maths is written once for both dtypes.  Conv, depthwise conv and fully
connected share one direct loop each (``_direct_conv``, ``_direct_fc``):
on float32 values for the float path, on int64 centered codes for the int8
path's exact accumulators (``ACCUMULATORS``).  Each int8 backend supplies
only such accumulators, and ``int8_adapters`` wraps them all in one output
stage that requantizes with round-half-away-from-zero.  Add, softmax,
concat and resize in int8 are the float op between dequantize and quantize
(``_on_real_values``); pool and relu work on the codes.  Operand shapes
are checked by the rules in ``shapes``.  The reference set covers every
(op, dtype) pair by contract.
"""

from __future__ import annotations

import numpy as np

from ..errors import QuantizationError
from ..tensor import FLOAT32, INT8Q, QuantParams, Tensor, dequantize, quantize, round_half_away
from . import OPS, KernelSet
from .shapes import (
    SAME, VALID, add_shape, check_bias, concat_shape, conv_shape, fc_shape,
    pad_amounts, pool_geometry, resize_shape,
)


def _as_vec(bias, n):
    if bias is None:
        return np.zeros(n, dtype=np.float32)
    b = bias.data if isinstance(bias, Tensor) else np.asarray(bias)
    b = b.reshape(-1)
    check_bias(b.shape, n)
    return b


def _zero_pad(x, kh, kw, stride, padding):
    pt, pb = pad_amounts(x.shape[1], kh, stride[0], padding)
    pl, pr = pad_amounts(x.shape[2], kw, stride[1], padding)
    if not (pt or pb or pl or pr):
        return x
    n, h, w, c = x.shape
    xp = np.zeros((n, pt + h + pb, pl + w + pr, c), dtype=x.dtype)
    xp[:, pt : pt + h, pl : pl + w] = x
    return xp


# The direct loops below serve both dtypes.  Their operands are arrays in
# the accumulator's dtype: float32 values, or int64 codes minus their zero
# points (``_centered``), whose sums are exact and whose zero padding
# stands for real zeros.


def _direct_conv(xd, wd, bias, stride, padding, depthwise=False):
    """Conv or depthwise conv plus bias, one output position at a time."""
    shape = conv_shape(xd.shape, wd.shape, None, stride, padding, depthwise)
    kh, kw = wd.shape[:2]
    b = _as_vec(bias, shape[3]).astype(xd.dtype)
    xp = _zero_pad(xd, kh, kw, stride, padding)
    if depthwise:
        wm = wd[:, :, :, 0]

        def window_dot(patch):
            return np.sum(patch * wm, axis=(0, 1))
    else:
        def window_dot(patch):
            return np.tensordot(patch, wd, axes=([0, 1, 2], [0, 1, 2]))
    out = np.empty(shape, dtype=xd.dtype)
    for n in range(shape[0]):
        for i in range(shape[1]):
            hs = i * stride[0]
            for j in range(shape[2]):
                ws = j * stride[1]
                out[n, i, j, :] = window_dot(xp[n, hs : hs + kh, ws : ws + kw, :]) + b
    return out


def _direct_fc(xd, wd, bias):
    """Fully connected plus bias on the flattened input, one dot per output."""
    shape = fc_shape(xd.shape, wd.shape, None)
    wm = wd.reshape(wd.shape[-2], wd.shape[-1])
    flat = xd.reshape(xd.shape[0], -1)
    b = _as_vec(bias, shape[3]).astype(xd.dtype)
    out = np.empty((shape[0], shape[3]), dtype=xd.dtype)
    for n in range(shape[0]):
        for k in range(shape[3]):
            out[n, k] = np.dot(flat[n], wm[:, k]) + b[k]
    return out.reshape(shape)


def conv2d(x: Tensor, w: Tensor, bias, stride=(1, 1), padding=SAME) -> Tensor:
    """Naive float32 convolution: dot product per output position."""
    return Tensor(_direct_conv(x.data, w.data, bias, stride, padding))


def depthwise_conv2d(x: Tensor, w: Tensor, bias, stride=(1, 1), padding=SAME) -> Tensor:
    """Per-channel convolution; channel c of the output sees only channel c."""
    return Tensor(_direct_conv(x.data, w.data, bias, stride, padding, depthwise=True))


def fully_connected(x: Tensor, w: Tensor, bias) -> Tensor:
    """Affine map on the flattened input, float32 accumulation."""
    return Tensor(_direct_fc(x.data, w.data, bias))


def pool(x: Tensor, kind, window, stride=None, padding=VALID) -> Tensor:
    """Max or average pooling; avg divides by the in-bounds element count."""
    h, w = x.shape[1], x.shape[2]
    window, stride, ((pt, _), (pl, _)), (oh, ow) = pool_geometry(
        (h, w), kind, window, stride, padding)
    out = np.empty((x.shape[0], oh, ow, x.shape[3]), dtype=x.data.dtype)
    for n in range(x.shape[0]):
        for i in range(oh):
            h0 = i * stride[0] - pt
            h1 = min(h0 + window[0], h)
            h0 = max(h0, 0)
            for j in range(ow):
                w0 = j * stride[1] - pl
                w1 = min(w0 + window[1], w)
                w0 = max(w0, 0)
                patch = x.data[n, h0:h1, w0:w1, :]
                if kind == "max":
                    out[n, i, j, :] = patch.max(axis=(0, 1))
                else:
                    out[n, i, j, :] = _avg_patch(patch)
    if x.dtype == INT8Q:
        return Tensor(out, dtype=INT8Q, qparams=x.qparams)
    return Tensor(out)


def _avg_patch(patch):
    if patch.dtype == np.int8:
        count = patch.shape[0] * patch.shape[1]
        s = patch.astype(np.int64).sum(axis=(0, 1))
        return np.clip(round_half_away(s / count), -128, 127).astype(np.int8)
    return patch.mean(axis=(0, 1), dtype=np.float32)


def resize_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear sampling with src = dst * (in/out) (align-corners false)."""
    n, out_h, out_w, c = resize_shape(x.shape, out_h, out_w)
    h, w = x.shape[1:3]
    data = x.data
    out = np.empty((n, out_h, out_w, c), dtype=np.float32)
    hs = h / out_h
    ws = w / out_w
    for i in range(out_h):
        sy = i * hs
        y0 = min(int(np.floor(sy)), h - 1)
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(out_w):
            sx = j * ws
            x0 = min(int(np.floor(sx)), w - 1)
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            top = data[:, y0, x0, :] * (1 - fx) + data[:, y0, x1, :] * fx
            bot = data[:, y1, x0, :] * (1 - fx) + data[:, y1, x1, :] * fx
            out[:, i, j, :] = top * (1 - fy) + bot * fy
    return Tensor(out)


def add(a: Tensor, b: Tensor) -> Tensor:
    add_shape(a.shape, b.shape)
    return Tensor(a.data + b.data)


def relu(x: Tensor) -> Tensor:
    return Tensor(np.maximum(x.data, 0.0))


def concat_channels(tensors) -> Tensor:
    concat_shape([t.shape for t in tensors])
    return Tensor(np.concatenate([t.data for t in tensors], axis=3))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the channel axis."""
    z = x.data - x.data.max(axis=3, keepdims=True)
    e = np.exp(z)
    return Tensor(e / e.sum(axis=3, keepdims=True))


# --- int8 path ------------------------------------------------------------

# These caps keep the quantized backend's fast accumulators exact.  A conv
# sums K = kh * kw * cin <= 9 * 9 * 1024 = 82944 products of centered codes,
# each at most 255 * 255.  The quantized backend sums them in float32 chunks
# of at most 256 products (|chunk| <= 256 * 255**2 < 2**24) and adds the
# chunks in float64, where |acc| <= 255**2 * 82944 ~ 5.4e9 < 2**53: every
# partial sum is an exact integer, in any order.  A depthwise conv sums
# kh * kw <= 81 products, so |acc| <= 255**2 * 81 ~ 5.3e6 < 2**31: int32 does.
MAX_Q_KERNEL = 9
MAX_Q_CHANNELS = 1024


def check_q_config(kind, w_shape):
    """Refuse an int8 conv or depthwise weight past the caps; FC has none."""
    if kind == "fully_connected":
        return
    kh, kw, cin = w_shape[:3]
    if kind == "depthwise_conv2d":
        cin = 1  # each output sums one input channel
    if kh > MAX_Q_KERNEL or kw > MAX_Q_KERNEL or cin > MAX_Q_CHANNELS:
        raise QuantizationError(
            f"quantized conv limited to {MAX_Q_KERNEL}x{MAX_Q_KERNEL} kernels "
            f"and {MAX_Q_CHANNELS} input channels, got {kh}x{kw}x{cin}"
        )


def quantize_bias(bias, in_qp: QuantParams, w_qp: QuantParams):
    """Real-valued bias, or None -> flat int64 at the accumulator scale
    in_s * w_s.  Not bounded to int32: the accumulators add it exactly."""
    if bias is None:
        return None
    b = bias.data if isinstance(bias, Tensor) else np.asarray(bias)
    s = in_qp.scale * w_qp.scale
    return round_half_away(b.reshape(-1).astype(np.float64) / s).astype(np.int64)


def requantize(acc, in_qp, w_qp, out_qp):
    """Exact integer accumulator (int64, or float64 holding integers) ->
    int8 codes under out_qp, rounded, shifted and clipped in one buffer."""
    mult = (in_qp.scale * w_qp.scale) / out_qp.scale
    q = np.multiply(acc, mult, dtype=np.float64)
    round_half_away(q, out=q)
    q += out_qp.zero_point
    return np.clip(q, -128, 127, out=q).astype(np.int8)


def _centered(t, dtype=np.int64):
    """A tensor's int8 codes minus its zero point: exact integers in ``dtype``."""
    return np.subtract(t.data, t.qparams.zero_point, dtype=dtype)


def _on_centered(direct, **kw):
    return lambda x, w, bias_i32, *geometry: direct(
        _centered(x), _centered(w), bias_i32, *geometry, **kw)


# The exact int8 accumulators, bias included: the direct loops above.
ACCUMULATORS = {
    "conv2d": _on_centered(_direct_conv),
    "depthwise_conv2d": _on_centered(_direct_conv, depthwise=True),
    "fully_connected": _on_centered(_direct_fc),
}


def qrelu(x: Tensor, out_qp) -> Tensor:
    clamped = np.maximum(x.data, np.int8(x.qparams.zero_point))
    t = Tensor(clamped, INT8Q, x.qparams)
    if out_qp == x.qparams:
        return t
    return quantize(dequantize(t), out_qp)


def _real(arg):
    if isinstance(arg, Tensor):
        return dequantize(arg)
    if isinstance(arg, (list, tuple)):
        return [dequantize(t) for t in arg]
    return arg


def _on_real_values(float_fn):
    """The int8 op of ``float_fn``: dequantize, the float op, quantize to out_qp.

    This is the real-valued op between dequantize and quantize that defines
    a quantized op (Jacob et al., arXiv 1712.05877).
    """
    def run(*args):
        return quantize(float_fn(*map(_real, args[:-1])), args[-1])

    return run


qadd = _on_real_values(add)
qsoftmax = _on_real_values(softmax)
qconcat_channels = _on_real_values(concat_channels)
qresize_bilinear = _on_real_values(resize_bilinear)


def qpool(x: Tensor, kind, window, stride, padding, out_qp) -> Tensor:
    out = pool(x, kind, window, stride, padding)
    if out_qp == x.qparams:
        return out
    return quantize(dequantize(out), out_qp)


# --- uniform adapters -----------------------------------------------------


def _float_entry(fn, args):
    return lambda i, w, a: fn(*args(i, w, a))


def float_adapters(funcs):
    """Build the uniform (inputs, weights, attrs) table from math functions,
    each node decoded by its ``OPS`` entry's ``args``."""
    return {(kind, FLOAT32): _float_entry(funcs[kind], op.args)
            for kind, op in OPS.items()}


def _int8_entry(fn, args):
    return lambda i, w, a: fn(*args(i, w, a), a["out_qp"])


def _int8_mac_entry(kind, accumulate, args):
    """The one int8 output stage (Jacob et al., arXiv 1712.05877, 2.2-2.4):
    bias to the accumulator scale, the caps, the accumulator, requantize."""
    def run(i, w, a):
        x, wt, bias, *geometry = args(i, w, a)
        bias_i32 = quantize_bias(bias, x.qparams, wt.qparams)
        check_q_config(kind, wt.shape)
        acc = accumulate(x, wt, bias_i32, *geometry)
        out_qp = a["out_qp"]
        return Tensor(requantize(acc, x.qparams, wt.qparams, out_qp), INT8Q, out_qp)

    return run


_SHARED_INT8 = {
    "relu": qrelu,
    "pool": qpool,
    "resize_bilinear": qresize_bilinear,
    "add": qadd,
    "concat_channels": qconcat_channels,
    "softmax": qsoftmax,
}


def int8_adapters(accumulators):
    """int8 table: each op with weights wraps its entry of ``accumulators``
    (a missing one is a ``KeyError`` here), the others are shared."""
    return {(kind, INT8Q): _int8_mac_entry(kind, accumulators[kind], op.args)
            if op.weights else _int8_entry(_SHARED_INT8[kind], op.args)
            for kind, op in OPS.items()}


_FLOAT_FUNCS = {
    "conv2d": conv2d,
    "depthwise_conv2d": depthwise_conv2d,
    "fully_connected": fully_connected,
    "pool": pool,
    "resize_bilinear": resize_bilinear,
    "add": add,
    "relu": relu,
    "concat_channels": concat_channels,
    "softmax": softmax,
}


def make_kernel_set() -> KernelSet:
    """Total-coverage reference kernel set (every op, both dtypes)."""
    ops = float_adapters(_FLOAT_FUNCS)
    ops.update(int8_adapters(ACCUMULATORS))
    return KernelSet("reference", ops)
