"""The op table and kernel sets.

``OPS`` declares each of the nine operator kinds once.  ``graph.validate``
checks nodes against it, ``graph._infer_shape`` and the analyzers read
shapes and MACs from it, and every backend's kernel table decodes nodes
through it (``reference.float_adapters`` and ``int8_adapters``).  The
shape rules it names live in ``shapes``.

A kernel set maps (op_kind, dtype) pairs to callables with the uniform
signature ``fn(inputs, weights, attrs) -> Tensor``.  The table is the whole
declaration of a backend: dispatch runs a graph on it only if its keys hold
every (op, dtype) pair the graph uses.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from ..errors import ExecutionError
from ..tensor import FLOAT32, INT8Q
from .shapes import (
    SAME, VALID, add_shape, concat_shape, conv_shape, extents_hw, fc_shape,
    pool_shape, resize_shape,
)


@dataclass(frozen=True)
class Op:
    """What a node of one kind holds, and how every layer reads it.

    ``args(inputs, weights, attrs)`` gives the math function's leading
    arguments, every default filled in; an int8 op without weights also
    takes the node's ``out_qp`` last.  ``shape`` takes the same arguments
    with shapes in place of tensors.  ``macs(out_shape, weight_shape)`` is
    set for the ops with weights, which hold their weight and then their bias.
    """

    args: Callable
    shape: Callable
    inputs: tuple = (1, 1)  # (fewest, most); most None for no limit
    weights: int = 0
    attrs: tuple = ()  # the attributes with no default
    macs: Optional[Callable] = None


def _conv_args(i, w, a):
    stride = extents_hw(a.get("stride", (1, 1)), "stride")
    return i[0], w[0], w[1], stride, a.get("padding", SAME)


def _weight_macs(out_shape, w_shape):
    """Every output position multiplies each weight element once."""
    return math.prod(out_shape[:3]) * math.prod(w_shape)


_UNARY = Op(lambda i, w, a: (i[0],), lambda x_shape: x_shape)

OPS = {
    "conv2d": Op(_conv_args, conv_shape, weights=2, macs=_weight_macs),
    "depthwise_conv2d": Op(_conv_args, partial(conv_shape, depthwise=True),
                           weights=2, macs=_weight_macs),
    "fully_connected": Op(lambda i, w, a: (i[0], w[0], w[1]), fc_shape,
                          weights=2, macs=_weight_macs),
    "pool": Op(lambda i, w, a: (i[0], a["kind"], a.get("window"),
                                a.get("pool_stride"), a.get("padding", VALID)),
               pool_shape, attrs=("kind",)),
    "resize_bilinear": Op(lambda i, w, a: (i[0], a["out_h"], a["out_w"]),
                          resize_shape, attrs=("out_h", "out_w")),
    "add": Op(lambda i, w, a: (i[0], i[1]), add_shape, inputs=(2, 2)),
    "relu": _UNARY,
    "concat_channels": Op(lambda i, w, a: (i,), concat_shape, inputs=(1, None)),
    "softmax": _UNARY,
}


class KernelSet:
    """Operator table for one backend."""

    def __init__(self, backend_id, ops):
        self.backend_id = backend_id
        self.ops = dict(ops)

    def supports(self, op_kind, dtype):
        return (op_kind, dtype) in self.ops

    def apply(self, op_kind, dtype, inputs, weights, attrs):
        try:
            fn = self.ops[(op_kind, dtype)]
        except KeyError:
            raise ExecutionError(
                f"backend {self.backend_id!r} lacks ({op_kind}, {dtype})"
            ) from None
        return fn(inputs, weights, attrs)


__all__ = ["OPS", "KernelSet", "SAME", "VALID", "FLOAT32", "INT8Q"]
