"""The conv loops of the float and int8 backends: im2col and shifted taps."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def im2col(xp, kh, kw, stride):
    """Patch matrix of a padded NHWC input, one row per output position.

    Rows run in (n, oh, ow) order and columns in (kh, kw, C) order, matching
    an HWIO weight reshaped to (kh * kw * C, Cout).  For a stride-1 1x1 conv
    on a contiguous input the window view is the input itself, so the matrix
    is a reshape with no copy at all.
    """
    v = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, :: stride[0], :: stride[1]]
    block = np.ascontiguousarray(np.moveaxis(v, -3, -1))
    return block.reshape(-1, kh * kw * xp.shape[3])


def shifted_taps(xp, wk, stride, acc):
    """Add into ``acc`` each tap of a depthwise conv: the padded input
    ``xp`` shifted by (i, j) and strided like the (N, oh, ow, C) output,
    times row (i, j) of the (kh, kw, C) weight ``wk``, in row-major order.
    The dtypes give the arithmetic: float32, or exact int32 centered codes.
    """
    _, oh, ow, _ = acc.shape
    sh, sw = stride
    for i in range(wk.shape[0]):
        for j in range(wk.shape[1]):
            acc += xp[:, i : i + sh * (oh - 1) + 1 : sh,
                      j : j + sw * (ow - 1) + 1 : sw] * wk[i, j]
    return acc
