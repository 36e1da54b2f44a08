"""Kernel sets: uniform operator tables consumed by the graph executor.

A kernel set maps (op_kind, dtype) pairs to callables with the uniform
signature ``fn(inputs, weights, attrs) -> Tensor``.  The table is the whole
declaration of a backend: dispatch runs a graph on it only if its keys hold
every (op, dtype) pair the graph uses.
"""

from ..errors import ExecutionError
from ..tensor import FLOAT32, INT8Q
from .shapes import SAME, VALID

OP_KINDS = (
    "conv2d",
    "depthwise_conv2d",
    "fully_connected",
    "pool",
    "resize_bilinear",
    "add",
    "relu",
    "concat_channels",
    "softmax",
)


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


__all__ = ["OP_KINDS", "KernelSet", "SAME", "VALID", "FLOAT32", "INT8Q"]
