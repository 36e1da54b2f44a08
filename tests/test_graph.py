from dataclasses import replace

import numpy as np
import pytest

from inferbench.errors import ExecutionError, GraphValidationError
from inferbench.graph import (
    INPUT_ID,
    GraphSpec,
    OperatorNode,
    count_macs,
    count_other_ops,
    count_params,
    execute,
    peak_activation_bytes,
    validate,
)
from inferbench.kernels import KernelSet, reference
from inferbench.tensor import Tensor
from inferbench.workloads import instantiate

import oracles

RNG = np.random.default_rng(7)
KERNELS = reference.make_kernel_set()


def _w(shape):
    return Tensor(RNG.uniform(-0.5, 0.5, size=shape).astype(np.float32))


def _simple_spec():
    """input -> conv 3x3 (4ch) -> relu -> conv 1x1 (2ch)."""
    weights = {
        "c1_w": _w((3, 3, 3, 4)), "c1_b": _w((1, 1, 1, 4)),
        "c2_w": _w((1, 1, 4, 2)), "c2_b": _w((1, 1, 1, 2)),
    }
    nodes = [
        OperatorNode("c1", "conv2d", [INPUT_ID], {"stride": (1, 1)},
                     ["c1_w", "c1_b"]),
        OperatorNode("r1", "relu", ["c1"]),
        OperatorNode("c2", "conv2d", ["r1"], {"stride": (1, 1)},
                     ["c2_w", "c2_b"]),
    ]
    return GraphSpec("tiny", (1, 6, 6, 3), nodes, "c2", weights)


def test_validate_propagates_shapes():
    g = validate(_simple_spec())
    assert g.node_shapes["c1"] == (1, 6, 6, 4)
    assert g.output_shape == (1, 6, 6, 2)


def test_validate_rejects_dangling_input_ref():
    spec = _simple_spec()
    spec.nodes[0].input_ids = ["ghost"]
    with pytest.raises(GraphValidationError):
        validate(spec)


def test_validate_rejects_forward_reference():
    spec = _simple_spec()
    spec.nodes[0].input_ids = ["c2"]  # later node: breaks topo-order rule
    with pytest.raises(GraphValidationError):
        validate(spec)


def test_validate_rejects_duplicate_ids():
    spec = _simple_spec()
    spec.nodes[1].id = "c1"
    with pytest.raises(GraphValidationError):
        validate(spec)


def test_validate_rejects_missing_attr():
    spec = _simple_spec()
    spec.nodes.insert(1, OperatorNode("p", "pool", ["c1"], {"window": (2, 2)}))
    spec.nodes[2].input_ids = ["p"]
    with pytest.raises(GraphValidationError, match="kind"):
        validate(spec)


def test_validate_rejects_missing_weight():
    spec = _simple_spec()
    del spec.weights["c2_w"]
    with pytest.raises(GraphValidationError):
        validate(spec)


def test_validate_rejects_unused_node():
    spec = _simple_spec()
    spec.weights["d_w"] = _w((1, 1, 3, 2))
    spec.weights["d_b"] = _w((1, 1, 1, 2))
    spec.nodes.append(OperatorNode("dead", "conv2d", [INPUT_ID], {},
                                   ["d_w", "d_b"]))
    with pytest.raises(GraphValidationError, match="contribute"):
        validate(spec)


def test_validate_rejects_bad_output():
    spec = _simple_spec()
    spec.output_id = "nope"
    with pytest.raises(GraphValidationError):
        validate(spec)


def test_validate_rejects_shape_mismatch():
    spec = _simple_spec()
    spec.weights["c2_w"] = _w((1, 1, 5, 2))  # cin 5 != 4
    with pytest.raises(GraphValidationError, match="c2"):
        validate(spec)


def test_execute_matches_composed_oracle():
    spec = _simple_spec()
    g = validate(spec)
    x = RNG.uniform(0, 1, size=(1, 6, 6, 3)).astype(np.float32)
    got = execute(g, Tensor(x), KERNELS)
    h1 = oracles.conv2d_oracle(x, spec.weights["c1_w"].data,
                               spec.weights["c1_b"].data, (1, 1), "same")
    h1 = np.maximum(h1, 0)
    want = oracles.conv2d_oracle(h1, spec.weights["c2_w"].data,
                                 spec.weights["c2_b"].data, (1, 1), "same")
    np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-6)


def test_execute_rejects_wrong_input_shape():
    g = validate(_simple_spec())
    with pytest.raises(ExecutionError):
        execute(g, Tensor(np.zeros((1, 5, 5, 3), dtype=np.float32)), KERNELS)


def test_execute_reports_missing_kernel():
    g = validate(_simple_spec())
    crippled = KernelSet("partial", {
        k: v for k, v in KERNELS.ops.items() if k[0] != "relu"
    })
    x = Tensor(np.zeros((1, 6, 6, 3), dtype=np.float32))
    with pytest.raises(ExecutionError, match="relu"):
        execute(g, x, crippled)


def test_kernel_set_apply_reports_an_absent_op():
    crippled = KernelSet("partial", {})
    x = Tensor(np.zeros((1, 2, 2, 1), dtype=np.float32))
    with pytest.raises(ExecutionError, match=r"'partial' lacks \(relu, float32\)"):
        crippled.apply("relu", "float32", [x], [], {})


def test_execute_reports_a_key_error_inside_a_kernel_as_a_node_failure():
    def broken(inputs, weights, attrs):
        return {}["table"]

    ops = dict(KERNELS.ops)
    ops[("relu", "float32")] = broken
    x = Tensor(np.zeros((1, 6, 6, 3), dtype=np.float32))
    with pytest.raises(ExecutionError) as info:
        execute(validate(_simple_spec()), x, KernelSet("reference", ops))
    assert info.value.node_id == "r1"
    assert "lacks" not in str(info.value)
    assert "'table'" in str(info.value)


def _int8_spec_without_out_qp(node_id, value=...):
    spec = instantiate(1, scale=0.1)[0].spec
    nodes = []
    for n in spec.nodes:
        attrs = dict(n.attributes)
        if n.id == node_id:
            del attrs["out_qp"]
            if value is not ...:
                attrs["out_qp"] = value
        nodes.append(OperatorNode(n.id, n.op_kind, n.input_ids, attrs,
                                  n.weight_refs))
    return replace(spec, nodes=nodes)


@pytest.mark.parametrize("node_id", ["conv0", "avgpool"])
def test_validate_rejects_int8_node_without_out_qp(node_id):
    with pytest.raises(GraphValidationError, match=node_id) as info:
        validate(_int8_spec_without_out_qp(node_id))
    assert info.value.node_id == node_id
    with pytest.raises(GraphValidationError, match="out_qp"):
        validate(_int8_spec_without_out_qp(node_id, None))


def test_execute_observer_sees_every_node():
    g = validate(_simple_spec())
    seen = []
    execute(g, Tensor(np.zeros((1, 6, 6, 3), dtype=np.float32)), KERNELS,
            observer=lambda nid, out: seen.append(nid))
    assert seen == ["c1", "r1", "c2"]


def test_count_params_simple():
    g = validate(_simple_spec())
    # 3*3*3*4 + 4 + 1*1*4*2 + 2 = 108 + 4 + 8 + 2
    assert count_params(g) == 122


def test_count_macs_simple():
    g = validate(_simple_spec())
    # conv1: 6*6*3*3*3*4 = 3888; conv2: 6*6*4*2 = 288
    assert count_macs(g) == 3888 + 288


def test_count_macs_alternate_resolution():
    g = validate(_simple_spec())
    assert count_macs(g, (1, 12, 12, 3)) == 4 * (3888 + 288)


def test_count_other_ops_counts_elementwise_outputs():
    g = validate(_simple_spec())
    assert count_other_ops(g) == 6 * 6 * 4  # the relu


def test_peak_activation_bytes_liveness():
    g = validate(_simple_spec())
    # widest moment: relu input (6*6*4) and output (6*6*4) both live
    assert peak_activation_bytes(g) == (6 * 6 * 4 + 6 * 6 * 4) * 4


def test_peak_activation_with_residual_skip():
    """A long-lived skip connection stays in the live set."""
    weights = {"c_w": _w((3, 3, 3, 3)), "c_b": _w((1, 1, 1, 3))}
    nodes = [
        OperatorNode("c", "conv2d", [INPUT_ID], {}, ["c_w", "c_b"]),
        OperatorNode("r", "relu", ["c"]),
        OperatorNode("s", "add", ["r", INPUT_ID]),
    ]
    g = validate(GraphSpec("skip", (1, 4, 4, 3), nodes, "s", weights))
    # during relu: input (skip) + conv out + relu out = 3 buffers of 4*4*3
    assert peak_activation_bytes(g) == 3 * (4 * 4 * 3 * 4)
