"""Dataflow graph model: validation, execution, and static analyzers.

A GraphSpec is an ordered list of operator nodes over a named weight store.
Nodes may only reference earlier nodes or the graph input, so the list order
is already a topological order and cycles are impossible by construction.
``validate`` records each node's release list once (``Graph.releases``);
``execute`` and ``peak_activation_bytes`` both walk it.  What a node of
each kind holds (arity, weights, required attributes), its output shape
and its MAC count come from ``kernels.OPS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ExecutionError, GraphValidationError, QuantizationError, ShapeError
from .kernels import OPS
from .kernels.reference import check_q_config
from .tensor import DTYPE_WIDTH, FLOAT32, INT8Q, QuantParams, Tensor

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


def _infer_shape(node, in_shapes, weights):
    """Output shape of one node given its input shapes and weight tensors."""
    op = OPS[node.op_kind]
    return op.shape(*op.args(in_shapes, [w.shape for w in weights], node.attributes))


# A weighted node's (weight, bias) dtypes per profile, as a message names
# them; the int8 kernels quantize a real-valued bias at the accumulator scale.
_WEIGHT_DTYPES = {
    FLOAT32: ([FLOAT32, FLOAT32], "float32 weight and bias"),
    INT8Q: ([INT8Q, FLOAT32], "int8 weight, float32 bias"),
}


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
    """Check structural invariants and the int8 caps; shape-propagate every node."""
    if len(spec.input_shape) != 4:
        raise GraphValidationError("input_shape must have 4 extents")
    if spec.dtype_profile not in DTYPE_WIDTH:
        raise GraphValidationError(f"unknown dtype_profile {spec.dtype_profile!r}")
    dtypes, wanted = _WEIGHT_DTYPES[spec.dtype_profile]
    seen = {INPUT_ID}
    for node in spec.nodes:
        op = OPS.get(node.op_kind)
        if op is None:
            raise GraphValidationError(
                f"node {node.id!r}: unknown op {node.op_kind!r}", node_id=node.id
            )
        if node.id in seen:
            raise GraphValidationError(
                f"duplicate node id {node.id!r}", node_id=node.id
            )
        n_in = len(node.input_ids)
        fewest, most = op.inputs
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
        for key in op.attrs:
            if key not in node.attributes:
                raise GraphValidationError(
                    f"node {node.id!r} missing attribute {key!r}", node_id=node.id
                )
        if len(node.weight_refs) != op.weights:
            raise GraphValidationError(
                f"node {node.id!r} needs {op.weights} weight refs, "
                f"got {len(node.weight_refs)}",
                node_id=node.id,
            )
        for ref in node.weight_refs:
            if ref not in spec.weights:
                raise GraphValidationError(
                    f"node {node.id!r} references missing weight {ref!r}",
                    node_id=node.id,
                )
        if (spec.dtype_profile == INT8Q
                and not isinstance(node.attributes.get("out_qp"), QuantParams)):
            raise GraphValidationError(
                f"node {node.id!r}: int8 profile needs a QuantParams 'out_qp'",
                node_id=node.id,
            )
        if (op.weights
                and [spec.weights[r].dtype for r in node.weight_refs] != dtypes):
            raise GraphValidationError(
                f"node {node.id!r}: weight dtype does not match "
                f"{spec.dtype_profile} profile ({wanted})",
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
            if spec.dtype_profile == INT8Q and weights:
                check_q_config(node.op_kind, weights[0].shape)
        except (ShapeError, QuantizationError) as e:
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


def count_macs(graph: Graph) -> int:
    """Multiply-accumulate count of the weighted ops (conv, depthwise, FC)."""
    weights = graph.spec.weights
    return sum(OPS[node.op_kind].macs(shape, weights[node.weight_refs[0]].shape)
               for node, shape in _walk(graph) if OPS[node.op_kind].weights)


def count_other_ops(graph: Graph) -> int:
    """Output elements produced by the ops without weights (pool/resize/elementwise)."""
    return sum(math.prod(shape) for node, shape in _walk(graph)
               if not OPS[node.op_kind].weights)


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
