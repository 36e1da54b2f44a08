"""Shape rules: the one copy the kernels and the op table share.

Output extents, padding, pool windows, the check that every window, stride
and resize extent is a pair of integer extents >= 1, the bias length, and
the operand rules of conv, fully connected, pool, resize, add and concat
all live here.  Each ``*_shape`` rule takes shapes, not tensors, returns
the output shape and raises ``ShapeError`` when the operands do not fit.
``kernels.OPS`` names each op's rule and decodes a node's attributes into
its arguments, so ``validate`` and every backend's kernel reject the same
graphs with the same message.

Padding follows the TensorFlow convention:
  same  -> out = ceil(in / stride), zero padding split top/bottom with the
           extra row at the bottom/right
  valid -> out = floor((in - k) / stride) + 1, requires in >= k
"""

import math

import numpy as np

from ..errors import ShapeError

SAME = "same"
VALID = "valid"


def out_extent(in_e, k, stride, padding):
    if padding == SAME:
        return -(-in_e // stride)
    if padding == VALID:
        if in_e < k:
            raise ShapeError(f"valid padding needs extent >= kernel ({in_e} < {k})")
        return (in_e - k) // stride + 1
    raise ShapeError(f"unknown padding {padding!r}")


def pad_amounts(in_e, k, stride, padding):
    """(before, after) zero padding for one spatial axis."""
    if padding == VALID:
        return 0, 0
    out_e = out_extent(in_e, k, stride, padding)
    total = max((out_e - 1) * stride + k - in_e, 0)
    before = total // 2
    return before, total - before


_INTEGER = (int, np.integer)


def extents_hw(value, what):
    """``value`` as an (h, w) pair of integer extents >= 1, from a pair or
    one integer for both; Python and numpy integers count, nothing else."""
    pair = (value, value) if isinstance(value, _INTEGER) else value
    if isinstance(pair, (tuple, list)) and len(pair) == 2:
        h, w = pair
        if isinstance(h, _INTEGER) and isinstance(w, _INTEGER) and h >= 1 and w >= 1:
            return int(h), int(w)
    raise ShapeError(f"{what} must be two integer extents >= 1, got {value!r}")


def conv_out_hw(in_hw, k_hw, stride_hw, padding):
    extents_hw(k_hw, "window")
    extents_hw(stride_hw, "stride")
    return (
        out_extent(in_hw[0], k_hw[0], stride_hw[0], padding),
        out_extent(in_hw[1], k_hw[1], stride_hw[1], padding),
    )


def pool_geometry(in_hw, kind, window, stride, padding):
    """A pool's effective (window, stride, ((top, bottom), (left, right)), out_hw).

    A window of None pools the whole map; a stride of None equals the window.
    """
    if kind not in ("max", "avg"):
        raise ShapeError(f"unknown pool kind {kind!r}")
    if window is None:
        window, stride, padding = tuple(in_hw), (1, 1), VALID
    window = extents_hw(window, "pool window")
    stride = window if stride is None else extents_hw(stride, "pool stride")
    out_hw = conv_out_hw(in_hw, window, stride, padding)
    pads = tuple(pad_amounts(*axis, padding) for axis in zip(in_hw, window, stride))
    return window, stride, pads, out_hw


def pool_shape(x_shape, kind, window, stride, padding):
    *_, (oh, ow) = pool_geometry(x_shape[1:3], kind, window, stride, padding)
    return (x_shape[0], oh, ow, x_shape[3])


def resize_shape(x_shape, out_h, out_w):
    return (x_shape[0], *extents_hw((out_h, out_w), "resize output"), x_shape[3])


def check_bias(b_shape, channels):
    """A bias of ``b_shape`` holds one value per output channel; None is no bias."""
    if b_shape is not None and math.prod(b_shape) != channels:
        raise ShapeError(f"bias length {math.prod(b_shape)} != channels {channels}")


def conv_shape(x_shape, w_shape, b_shape, stride, padding, depthwise=False):
    """NHWC output shape of a conv of ``x_shape`` by an HWIO ``w_shape``.

    A depthwise weight is (kh, kw, C, 1) and keeps the C channels apart.
    ``b_shape`` None skips the bias check (``reference._as_vec`` makes it).
    """
    kh, kw, cin, cout = w_shape
    if depthwise:
        if cout != 1:
            raise ShapeError(f"depthwise weights need trailing extent 1, got {cout}")
        cout = cin
    if x_shape[3] != cin:
        raise ShapeError(f"input channels {x_shape[3]} != weight Cin {cin}")
    check_bias(b_shape, cout)
    return (x_shape[0], *conv_out_hw(x_shape[1:3], (kh, kw), stride, padding), cout)


def fc_shape(x_shape, w_shape, b_shape):
    """Output shape of a fully connected layer on the flattened input."""
    rows, cols = w_shape[-2:]
    flat = x_shape[1] * x_shape[2] * x_shape[3]
    if flat != rows:
        raise ShapeError(f"flattened input length {flat} != weight rows {rows}")
    check_bias(b_shape, cols)
    return (x_shape[0], 1, 1, cols)


def add_shape(a_shape, b_shape):
    if a_shape != b_shape:
        raise ShapeError(f"add operands differ: {a_shape} vs {b_shape}")
    return a_shape


def concat_shape(shapes):
    """Output shape of a channel concat; the N, H and W extents must agree."""
    base = shapes[0][:3]
    for s in shapes[1:]:
        if s[:3] != base:
            raise ShapeError(f"concat spatial extents differ: {s[:3]} vs {base}")
    return (*base, sum(s[3] for s in shapes))
