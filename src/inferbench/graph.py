"""Dataflow graph model: validation, execution, and static analyzers.

A GraphSpec is an ordered list of operator nodes over a named weight store.
Nodes may only reference earlier nodes or the graph input, so the list order
is already a topological order and cycles are impossible by construction.
``validate`` records each node's release list once (``Graph.releases``);
``execute`` and ``peak_activation_bytes`` both walk it.  Window geometry
lives in ``kernels.shapes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ExecutionError, GraphValidationError, ShapeError
from .kernels import OP_KINDS
from .kernels.shapes import (
    SAME, VALID, add_shape, concat_shape, conv_shape, extents_hw, fc_shape,
    pool_geometry, stride_hw,
)
from .tensor import DTYPE_WIDTH, FLOAT32, INT8Q, Tensor

INPUT_ID = "input"


@dataclass
class OperatorNode:
    id: str
    op_kind: str
    input_ids: list
    attributes: dict = field(default_factory=dict)
    weight_refs: list = field(default_factory=list)


@dataclass
class GraphSpec:
    name: str
    input_shape: tuple
    nodes: list
    output_id: str
    weights: dict
    dtype_profile: str = FLOAT32


# Required attribute keys per op kind (beyond defaults).
_ATTR_SCHEMA = {
    "conv2d": (),
    "depthwise_conv2d": (),
    "fully_connected": (),
    "pool": ("kind",),
    "resize_bilinear": ("out_h", "out_w"),
    "add": (),
    "relu": (),
    "concat_channels": (),
    "softmax": (),
}

_WEIGHT_COUNT = {"conv2d": 2, "depthwise_conv2d": 2, "fully_connected": 2}

# Input count per op kind as (fewest, most), None for no limit; every op
# not listed takes exactly one input.
_INPUT_COUNT = {"add": (2, 2), "concat_channels": (1, None)}


def _infer_shape(node, in_shapes, weights):
    """Output shape of one node given its input shapes and weight tensors."""
    kind = node.op_kind
    a = node.attributes
    x = in_shapes[0]
    if kind in ("conv2d", "depthwise_conv2d"):
        return conv_shape(x, weights[0].shape, stride_hw(a), a.get("padding", SAME),
                          depthwise=kind == "depthwise_conv2d")
    if kind == "fully_connected":
        return fc_shape(x, weights[0].shape)
    if kind == "pool":
        *_, (oh, ow) = pool_geometry(x[1:3], a["kind"], a.get("window"),
                                     a.get("pool_stride"), a.get("padding", VALID))
        return (x[0], oh, ow, x[3])
    if kind == "resize_bilinear":
        return (x[0], *extents_hw((a["out_h"], a["out_w"]), "resize output"), x[3])
    if kind == "add":
        return add_shape(x, in_shapes[1])
    if kind == "concat_channels":
        return concat_shape(in_shapes)
    # relu / softmax
    return x


class Graph:
    """A validated GraphSpec with per-node output shapes and release lists.

    ``releases[i]`` names the buffers whose last consumer is node i.
    """

    def __init__(self, spec, node_shapes):
        self.spec = spec
        self.node_shapes = node_shapes
        last_use = {ref: i for i, node in enumerate(spec.nodes)
                    for ref in node.input_ids}
        last_use.pop(spec.output_id, None)  # the output survives the walk
        self.releases = [[] for _ in spec.nodes]
        for ref, i in last_use.items():
            self.releases[i].append(ref)

    @property
    def name(self):
        return self.spec.name

    @property
    def dtype_profile(self):
        return self.spec.dtype_profile

    @property
    def output_shape(self):
        return self.node_shapes[self.spec.output_id]


def validate(spec: GraphSpec) -> Graph:
    """Check structural invariants and shape-propagate every node."""
    if len(spec.input_shape) != 4:
        raise GraphValidationError("input_shape must have 4 extents")
    if spec.dtype_profile not in DTYPE_WIDTH:
        raise GraphValidationError(f"unknown dtype_profile {spec.dtype_profile!r}")
    seen = {INPUT_ID}
    for node in spec.nodes:
        if node.op_kind not in OP_KINDS:
            raise GraphValidationError(
                f"node {node.id!r}: unknown op {node.op_kind!r}", node_id=node.id
            )
        if node.id in seen:
            raise GraphValidationError(
                f"duplicate node id {node.id!r}", node_id=node.id
            )
        n_in = len(node.input_ids)
        fewest, most = _INPUT_COUNT.get(node.op_kind, (1, 1))
        if n_in < fewest or (most is not None and n_in > most):
            wanted = f"{fewest}" if fewest == most else f"at least {fewest}"
            raise GraphValidationError(
                f"node {node.id!r}: {node.op_kind} needs {wanted} input(s), "
                f"got {n_in}",
                node_id=node.id,
            )
        for ref in node.input_ids:
            if ref not in seen:
                raise GraphValidationError(
                    f"node {node.id!r} references {ref!r} which is not an "
                    "earlier node or the graph input",
                    node_id=node.id,
                )
        for key in _ATTR_SCHEMA[node.op_kind]:
            if key not in node.attributes:
                raise GraphValidationError(
                    f"node {node.id!r} missing attribute {key!r}", node_id=node.id
                )
        expected_w = _WEIGHT_COUNT.get(node.op_kind, 0)
        if len(node.weight_refs) != expected_w:
            raise GraphValidationError(
                f"node {node.id!r} needs {expected_w} weight refs, "
                f"got {len(node.weight_refs)}",
                node_id=node.id,
            )
        for ref in node.weight_refs:
            if ref not in spec.weights:
                raise GraphValidationError(
                    f"node {node.id!r} references missing weight {ref!r}",
                    node_id=node.id,
                )
        if spec.dtype_profile == INT8Q:
            if node.attributes.get("out_qp") is None:
                raise GraphValidationError(
                    f"node {node.id!r}: int8 profile needs attribute 'out_qp'",
                    node_id=node.id,
                )
            # the kernels quantize a real-valued bias at the accumulator scale
            if (node.op_kind in _WEIGHT_COUNT
                    and [spec.weights[r].dtype for r in node.weight_refs]
                    != [INT8Q, FLOAT32]):
                raise GraphValidationError(
                    f"node {node.id!r}: weight dtype does not match int8 profile "
                    "(int8 weight, float32 bias)",
                    node_id=node.id,
                )
        seen.add(node.id)
    if spec.output_id not in seen or spec.output_id == INPUT_ID:
        raise GraphValidationError(f"output id {spec.output_id!r} is not a node")

    # Every node must contribute to the output.
    needed = {spec.output_id}
    for node in reversed(spec.nodes):
        if node.id in needed:
            needed.update(node.input_ids)
    for node in spec.nodes:
        if node.id not in needed:
            raise GraphValidationError(
                f"node {node.id!r} does not contribute to the output",
                node_id=node.id,
            )

    shapes = {INPUT_ID: tuple(spec.input_shape)}
    for node in spec.nodes:
        in_shapes = [shapes[i] for i in node.input_ids]
        weights = [spec.weights[r] for r in node.weight_refs]
        try:
            shapes[node.id] = _infer_shape(node, in_shapes, weights)
        except ShapeError as e:
            raise GraphValidationError(
                f"node {node.id!r}: {e}", node_id=node.id
            ) from e
    return Graph(spec, shapes)


def execute(graph: Graph, x: Tensor, kernels, observer=None) -> Tensor:
    """Topological evaluation; each buffer is freed after its last consumer."""
    spec = graph.spec
    if x.shape != tuple(spec.input_shape):
        raise ExecutionError(
            f"input shape {x.shape} != graph input {tuple(spec.input_shape)}"
        )
    dtype = spec.dtype_profile
    if x.dtype != dtype:
        raise ExecutionError(f"input dtype {x.dtype} != profile {dtype}")
    values = {INPUT_ID: x}
    for node, dead in zip(spec.nodes, graph.releases):
        ins = [values[i] for i in node.input_ids]
        weights = [spec.weights[r] for r in node.weight_refs]
        try:
            out = kernels.apply(node.op_kind, dtype, ins, weights, node.attributes)
        except MemoryError:
            # allocation failure is a real signal (memory probe), not a bug
            raise
        except Exception as e:
            raise ExecutionError(f"node {node.id!r}: {e}", node_id=node.id) from e
        values[node.id] = out
        if observer is not None:
            observer(node.id, out)
        for ref in dead:
            del values[ref]
    return values[spec.output_id]


def count_params(graph) -> int:
    """Total stored weight and bias elements."""
    spec = graph.spec if isinstance(graph, Graph) else graph
    return sum(t.size for t in spec.weights.values())


def _walk(graph: Graph):
    """Each node with its output shape."""
    for node in graph.spec.nodes:
        yield node, graph.node_shapes[node.id]


def _node_macs(node, out_shape, weights):
    kind = node.op_kind
    if kind == "conv2d":
        kh, kw, cin, cout = weights[node.weight_refs[0]].shape
        return out_shape[0] * out_shape[1] * out_shape[2] * kh * kw * cin * cout
    if kind == "depthwise_conv2d":
        kh, kw, c, _ = weights[node.weight_refs[0]].shape
        return out_shape[0] * out_shape[1] * out_shape[2] * kh * kw * c
    if kind == "fully_connected":
        rows, cols = weights[node.weight_refs[0]].shape[-2:]
        return out_shape[0] * rows * cols
    return 0


def count_macs(graph: Graph) -> int:
    """Multiply-accumulate count; non-MAC ops contribute zero here."""
    weights = graph.spec.weights
    return sum(_node_macs(node, shape, weights) for node, shape in _walk(graph))


def count_other_ops(graph: Graph) -> int:
    """Output elements produced by non-MAC ops (pool/resize/elementwise)."""
    return sum(math.prod(shape) for node, shape in _walk(graph)
               if node.op_kind not in _WEIGHT_COUNT)


def _live_buffers(graph: Graph):
    """Each node with {buffer id: bytes} of what is live while it runs.

    One dict, updated in place as the walk goes on.
    """
    width = DTYPE_WIDTH[graph.spec.dtype_profile]
    live = {INPUT_ID: math.prod(graph.spec.input_shape) * width}
    for (node, shape), dead in zip(_walk(graph), graph.releases):
        live[node.id] = math.prod(shape) * width
        yield node, live
        for ref in dead:
            del live[ref]


def peak_activation_bytes(graph: Graph) -> int:
    """Max live activation bytes over a liveness-accurate execution walk.

    While a node runs, its inputs and its output buffer are live together;
    a buffer dies right after its last consumer finishes, at the point
    ``execute`` frees it.  Weights are not included here (report them
    separately).
    """
    return max(sum(live.values()) for _, live in _live_buffers(graph))
