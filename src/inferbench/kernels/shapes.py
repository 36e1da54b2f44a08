"""Spatial-extent arithmetic shared by kernels and the graph analyzers.

Padding follows the TensorFlow convention:
  same  -> out = ceil(in / stride), zero padding split top/bottom with the
           extra row at the bottom/right
  valid -> out = floor((in - k) / stride) + 1, requires in >= k
"""

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
    raise ValueError(f"unknown padding {padding!r}")


def pad_amounts(in_e, k, stride, padding):
    """(before, after) zero padding for one spatial axis."""
    if padding == VALID:
        return 0, 0
    out_e = out_extent(in_e, k, stride, padding)
    total = max((out_e - 1) * stride + k - in_e, 0)
    before = total // 2
    return before, total - before


def conv_out_hw(in_hw, k_hw, stride_hw, padding):
    return (
        out_extent(in_hw[0], k_hw[0], stride_hw[0], padding),
        out_extent(in_hw[1], k_hw[1], stride_hw[1], padding),
    )


def stride_hw(attrs):
    """A node's (stride_h, stride_w); an int stride applies to both axes."""
    s = attrs.get("stride", (1, 1))
    return (s, s) if isinstance(s, int) else tuple(s)
