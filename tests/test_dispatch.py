import functools

import numpy as np
import pytest

from inferbench.dispatch import (
    ALL_OPS_SUPPORTED,
    FALLBACK_UNSUPPORTED_OP,
    OPTIMIZED,
    QUANTIZED,
    REFERENCE,
    BackendRegistry,
    default_registry,
)
from inferbench.errors import DispatchError
from inferbench.graph import INPUT_ID, GraphSpec, OperatorNode, validate
from inferbench.kernels import KernelSet, reference
from inferbench.tensor import FLOAT32, INT8Q, Tensor
from inferbench.workloads import generate_input, instantiate

RNG = np.random.default_rng(3)


def _float_graph_with(op_nodes, weights):
    return validate(GraphSpec("g", (1, 4, 4, 3), op_nodes, op_nodes[-1].id,
                              weights))


def _conv_relu_graph():
    weights = {
        "c_w": Tensor(RNG.uniform(-0.1, 0.1, (3, 3, 3, 2)).astype(np.float32)),
        "c_b": Tensor(RNG.uniform(-0.1, 0.1, (1, 1, 1, 2)).astype(np.float32)),
    }
    nodes = [
        OperatorNode("c", "conv2d", [INPUT_ID], {}, ["c_w", "c_b"]),
        OperatorNode("r", "relu", ["c"]),
    ]
    return _float_graph_with(nodes, weights)


def test_full_support_selects_preferred():
    reg = default_registry()
    decision = reg.select_backend(_conv_relu_graph(), OPTIMIZED)
    assert decision.chosen_backend_id == OPTIMIZED
    assert decision.reason == ALL_OPS_SUPPORTED


def test_single_missing_op_forces_whole_graph_fallback():
    reg = BackendRegistry()
    ref = reference.make_kernel_set()
    reg.register(ref)
    partial_ops = {k: v for k, v in ref.ops.items()
                   if not (k == ("relu", FLOAT32))}
    partial = KernelSet("partial", partial_ops)
    reg.register(partial)
    decision = reg.select_backend(_conv_relu_graph(), "partial")
    assert decision.chosen_backend_id == REFERENCE
    assert decision.reason == FALLBACK_UNSUPPORTED_OP
    assert decision.node_id == "r"
    assert decision.op_kind == "relu"


def test_quantized_backend_rejects_float_graphs():
    reg = default_registry()
    decision = reg.select_backend(_conv_relu_graph(), QUANTIZED)
    assert decision.chosen_backend_id == REFERENCE
    assert decision.reason == FALLBACK_UNSUPPORTED_OP


def test_optimized_backend_rejects_int8_graphs():
    reg = default_registry()
    graph, spec = instantiate(1, scale=0.2)
    assert graph.dtype_profile == INT8Q
    decision = reg.select_backend(graph, OPTIMIZED)
    assert decision.chosen_backend_id == REFERENCE
    decision = reg.select_backend(graph, QUANTIZED)
    assert decision.chosen_backend_id == QUANTIZED


def test_duplicate_backend_registration_rejected():
    reg = BackendRegistry()
    ref = reference.make_kernel_set()
    reg.register(ref)
    with pytest.raises(DispatchError):
        reg.register(ref)


def test_unknown_backend_rejected():
    reg = default_registry()
    with pytest.raises(DispatchError):
        reg.kernels("tpu")


# (test id, preferred backend) -> (chosen backend, reason, node id, op kind)
# at scale 0.1: the first node a backend's table lacks stops the walk.
_FALLBACK = FALLBACK_UNSUPPORTED_OP
DECISIONS = {
    (1, REFERENCE): (REFERENCE, ALL_OPS_SUPPORTED, None, None),
    (1, OPTIMIZED): (REFERENCE, _FALLBACK, "conv0", "conv2d"),
    (1, QUANTIZED): (QUANTIZED, ALL_OPS_SUPPORTED, None, None),
    (2, QUANTIZED): (REFERENCE, _FALLBACK, "stem1", "conv2d"),
    (3, QUANTIZED): (REFERENCE, _FALLBACK, "stem1", "conv2d"),
    (4, QUANTIZED): (REFERENCE, _FALLBACK, "conv1", "conv2d"),
    (5, QUANTIZED): (REFERENCE, _FALLBACK, "conv1", "conv2d"),
    (6, QUANTIZED): (REFERENCE, _FALLBACK, "down", "resize_bilinear"),
    (7, QUANTIZED): (REFERENCE, _FALLBACK, "q_down", "resize_bilinear"),
    (8, QUANTIZED): (REFERENCE, _FALLBACK, "head", "conv2d"),
    (9, QUANTIZED): (REFERENCE, _FALLBACK, "conv1", "conv2d"),
}
for _t in range(2, 10):
    for _b in (REFERENCE, OPTIMIZED):
        DECISIONS[(_t, _b)] = (_b, ALL_OPS_SUPPORTED, None, None)


@functools.lru_cache(maxsize=None)
def _small_graph(test_id):
    return instantiate(test_id, scale=0.1)[0]


@pytest.mark.parametrize("test_id,preferred", sorted(DECISIONS))
def test_dispatch_decisions_on_every_workload(test_id, preferred):
    d = default_registry(1).select_backend(_small_graph(test_id), preferred)
    assert (d.chosen_backend_id, d.reason, d.node_id, d.op_kind) == \
        DECISIONS[(test_id, preferred)]


def test_equivalence_check_float_small_graph():
    reg = default_registry()
    g = _conv_relu_graph()
    x = Tensor(RNG.uniform(0, 1, (1, 4, 4, 3)).astype(np.float32))
    dev = reg.equivalence_check(g, x, REFERENCE, OPTIMIZED)
    assert dev < 1e-5


def test_equivalence_check_int8_exact():
    reg = default_registry()
    graph, spec = instantiate(1, scale=0.2)
    x = generate_input(spec, 5)
    dev = reg.equivalence_check(graph, x, REFERENCE, QUANTIZED)
    assert dev == 0  # both paths accumulate in exact integers
