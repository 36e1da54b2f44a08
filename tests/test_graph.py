import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inferbench.dispatch import default_registry
from inferbench.errors import ExecutionError, GraphValidationError, ShapeError
from inferbench.graph import (
    INPUT_ID,
    GraphSpec,
    OperatorNode,
    _infer_shape,
    _live_buffers,
    count_macs,
    count_other_ops,
    count_params,
    execute,
    peak_activation_bytes,
    validate,
)
from inferbench.kernels import KernelSet, optimized, quantized, reference
from inferbench.kernels.shapes import SAME, VALID
from inferbench.runner import preferred_backend
from inferbench.tensor import FLOAT32, INT8Q, QuantParams, Tensor, quantize
from inferbench.workloads import generate_input, instantiate, quantize_graph
from inferbench.zoo import GraphBuilder, WeightStream

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


def _spec_with(node):
    """The simple graph with ``node``, reading c1, inserted before c2."""
    spec = _simple_spec()
    spec.nodes.insert(2, node)
    spec.nodes[3].input_ids = [node.id]
    return spec


@pytest.mark.parametrize("node, message", [
    (OperatorNode("p", "pool", ["r1"], {"kind": "max", "window": (2, 2),
                                        "pool_stride": (0, 1)}), "stride"),
    (OperatorNode("p", "pool", ["r1"], {"kind": "max", "window": (2, 2),
                                        "pool_stride": ()}), "stride"),
    (OperatorNode("p", "pool", ["r1"], {"kind": "avg", "window": (2, 0)}), "window"),
    (OperatorNode("p", "pool", ["r1"], {"kind": "min", "window": (2, 2)}),
     "unknown pool kind 'min'"),
    (OperatorNode("p", "pool", ["r1"], {"kind": "max", "window": (2, 2),
                                        "padding": "full"}), "unknown padding"),
    (OperatorNode("p", "resize_bilinear", ["r1"], {"out_h": 0, "out_w": 4}),
     "resize output"),
    (OperatorNode("p", "pool", ["r1"], {"kind": "max", "window": (2.0, 2.0)}),
     "window"),
    (OperatorNode("p", "pool", ["r1"], {"kind": "max", "window": (2, 2),
                                        "pool_stride": 2.5}), "stride"),
    (OperatorNode("p", "resize_bilinear", ["r1"], {"out_h": 2.5, "out_w": 3}),
     "resize output"),
    (OperatorNode("p", "resize_bilinear", ["r1"], {"out_h": None, "out_w": 3}),
     "resize output"),
    (OperatorNode("p", "resize_bilinear", ["r1"], {"out_h": "x", "out_w": 3}),
     "resize output"),
    (OperatorNode("p", "resize_bilinear", ["r1"], {"out_h": (), "out_w": 3}),
     "resize output"),
], ids=["pool-stride-0", "pool-stride-empty", "pool-window-0", "pool-kind",
        "pool-padding", "resize-extent-0", "pool-window-float",
        "pool-stride-float", "resize-extent-float", "resize-extent-none",
        "resize-extent-str", "resize-extent-empty"])
def test_validate_rejects_bad_window_attributes(node, message):
    with pytest.raises(GraphValidationError, match=message) as err:
        validate(_spec_with(node))
    assert err.value.node_id == "p"
    assert "'p'" in str(err.value)


@pytest.mark.parametrize("op_kind, inputs, message", [
    ("add", [INPUT_ID], "add needs 2 input"),
    ("relu", [INPUT_ID, INPUT_ID], "relu needs 1 input"),
    ("concat_channels", [], "concat_channels needs at least 1 input"),
    ("softmax", [], "softmax needs 1 input"),
], ids=["add-one-input", "relu-two-inputs", "concat-no-inputs", "softmax-no-inputs"])
def test_validate_rejects_a_wrong_input_count(op_kind, inputs, message):
    spec = GraphSpec("one", (1, 4, 4, 2), [OperatorNode("n", op_kind, inputs)], "n", {})
    with pytest.raises(GraphValidationError, match=message) as err:
        validate(spec)
    assert err.value.node_id == "n"


def test_validate_rejects_a_conv_stride_below_one():
    spec = _simple_spec()
    spec.nodes[2].attributes["stride"] = (1, 0)
    with pytest.raises(GraphValidationError, match="stride") as err:
        validate(spec)
    assert err.value.node_id == "c2"


@pytest.mark.parametrize("stride", [(2.0, 2.0), 2.5, None])
def test_validate_rejects_a_conv_stride_that_is_not_integers(stride):
    spec = _simple_spec()
    spec.nodes[2].attributes["stride"] = stride
    with pytest.raises(GraphValidationError, match="stride") as err:
        validate(spec)
    assert err.value.node_id == "c2"


def test_validate_reads_a_numpy_integer_stride_as_an_int():
    def conv_output_shape(stride):
        weights = {"w": _w((3, 3, 3, 4)), "b": _w((1, 1, 1, 4))}
        node = OperatorNode("c", "conv2d", [INPUT_ID], {"stride": stride}, ["w", "b"])
        graph = validate(GraphSpec("s", (1, 6, 6, 3), [node], "c", weights))
        return graph.output_shape

    shape = conv_output_shape(np.int64(2))
    assert shape == conv_output_shape(2) == (1, 3, 3, 4)
    assert all(type(e) is int for e in shape)


@pytest.mark.parametrize("op_kind, w_shape, b_shape, message", [
    ("conv2d", (3, 3, 3, 4), (1, 1, 1, 5), "bias length 5 != channels 4"),
    ("depthwise_conv2d", (3, 3, 3, 1), (1, 1, 1, 4), "bias length 4 != channels 3"),
    ("fully_connected", (1, 1, 108, 4), (1, 1, 1, 7), "bias length 7 != channels 4"),
], ids=["conv", "depthwise", "fc"])
def test_validate_rejects_a_bias_of_the_wrong_length(op_kind, w_shape, b_shape,
                                                      message):
    weights = {"w": _w(w_shape), "b": _w(b_shape)}
    node = OperatorNode("n", op_kind, [INPUT_ID], {}, ["w", "b"])
    spec = GraphSpec("bias", (1, 6, 6, 3), [node], "n", weights)
    with pytest.raises(GraphValidationError, match=message) as err:
        validate(spec)
    assert err.value.node_id == "n"
    x = Tensor(np.zeros((1, 6, 6, 3), dtype=np.float32))
    for backend in (reference, optimized):
        with pytest.raises(ShapeError, match=message):
            getattr(backend, op_kind)(x, weights["w"], weights["b"])


def test_validate_rejects_int8_weights_in_a_float_graph():
    spec = _simple_spec()
    spec.weights["c1_w"] = quantize(spec.weights["c1_w"], QuantParams(0.01, 0))
    with pytest.raises(GraphValidationError,
                       match=r"float32 profile \(float32 weight and bias\)") as err:
        validate(spec)
    assert err.value.node_id == "c1"


def test_kernels_called_directly_reject_a_stride_below_one():
    x = Tensor(np.zeros((1, 4, 4, 3), dtype=np.float32))
    w = _w((3, 3, 3, 2))
    for conv in (reference.conv2d, optimized.conv2d):
        with pytest.raises(ShapeError, match="stride"):
            conv(x, w, None, stride=(0, 1))
    for pool in (reference.pool, optimized.pool):
        with pytest.raises(ShapeError, match="window"):
            pool(x, "max", (0, 2))


# One bad-shape case per operand rule of ``kernels.shapes``: rule id, op,
# input shapes, weight shape, message.  The second input of add and concat
# is node "p": a 1x1 conv to 4 channels, or a 2x2 max pool.
_SHAPE_RULE_CASES = [
    ("conv-cin", "conv2d", [(1, 6, 6, 3)], (3, 3, 2, 4), "weight Cin"),
    ("depthwise-cin", "depthwise_conv2d", [(1, 6, 6, 3)], (3, 3, 2, 1),
     "weight Cin"),
    ("depthwise-trailing", "depthwise_conv2d", [(1, 6, 6, 3)], (3, 3, 3, 2),
     "trailing extent 1"),
    ("fc-rows", "fully_connected", [(1, 6, 6, 3)], (1, 1, 100, 5),
     "weight rows"),
    ("add-operands", "add", [(1, 6, 6, 3), (1, 6, 6, 4)], None,
     "add operands differ"),
    ("concat-spatial", "concat_channels", [(1, 6, 6, 3), (1, 3, 3, 3)], None,
     "concat spatial extents differ"),
]

# op -> every backend's math function for it, with its dtype; an int8 op
# with weights has each backend's accumulator
_SHAPE_RULE_KERNELS = {
    kind: [(getattr(reference, kind), FLOAT32), (getattr(optimized, kind), FLOAT32),
           (reference.ACCUMULATORS[kind], INT8Q), (quantized.ACCUMULATORS[kind], INT8Q)]
    for kind in ("conv2d", "depthwise_conv2d", "fully_connected")
} | {
    "add": [(reference.add, FLOAT32), (reference.qadd, INT8Q)],
    "concat_channels": [(reference.concat_channels, FLOAT32),
                        (reference.qconcat_channels, INT8Q)],
}


def _bad_shape_spec(op, in_shapes, w_shape):
    weights, nodes, inputs = {}, [], [INPUT_ID]
    if len(in_shapes) == 2:
        if in_shapes[1][3] == 4:
            weights.update(p_w=_w((1, 1, 3, 4)), p_b=_w((1, 1, 1, 4)))
            nodes.append(OperatorNode("p", "conv2d", [INPUT_ID], {}, ["p_w", "p_b"]))
        else:
            nodes.append(OperatorNode("p", "pool", [INPUT_ID],
                                      {"kind": "max", "window": (2, 2)}))
        inputs.append("p")
    refs = []
    if w_shape is not None:
        weights.update(bad_w=_w(w_shape), bad_b=_w((1, 1, 1, w_shape[3])))
        refs = ["bad_w", "bad_b"]
    nodes.append(OperatorNode("bad", op, inputs, {}, refs))
    return GraphSpec("bad-shape", in_shapes[0], nodes, "bad", weights)


def _direct_args(op, in_shapes, w_shape, dtype):
    qp = QuantParams(0.01, 0)

    def operand(shape):
        t = _w(shape)
        return quantize(t, qp) if dtype == INT8Q else t

    ins = [operand(s) for s in in_shapes]
    if op == "add":
        args = ins
    elif op == "concat_channels":
        args = [ins]
    elif op == "fully_connected":
        args = [ins[0], operand(w_shape), None]
    else:
        args = [ins[0], operand(w_shape), None, (1, 1), SAME]
    return args + [qp] if dtype == INT8Q and w_shape is None else args


@pytest.mark.parametrize("case", _SHAPE_RULE_CASES, ids=[c[0] for c in _SHAPE_RULE_CASES])
def test_each_shape_rule_rejects_in_validate_and_in_every_kernel(case):
    _, op, in_shapes, w_shape, message = case
    with pytest.raises(GraphValidationError, match=message) as err:
        validate(_bad_shape_spec(op, in_shapes, w_shape))
    assert err.value.node_id == "bad"
    assert "'bad'" in str(err.value)
    for fn, dtype in _SHAPE_RULE_KERNELS[op]:
        with pytest.raises(ShapeError, match=message):
            fn(*_direct_args(op, in_shapes, w_shape, dtype))


def test_validate_rejects_an_unknown_dtype_profile():
    spec = replace(_simple_spec(), dtype_profile="fp16")
    with pytest.raises(GraphValidationError, match="dtype_profile"):
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
    for value in (None, "x", 1.0):
        with pytest.raises(GraphValidationError, match="out_qp") as info:
            validate(_int8_spec_without_out_qp(node_id, value))
        assert info.value.node_id == node_id


def _one_int8_conv(op_kind, x_shape, w_shape):
    qp = QuantParams(0.01, 0)
    cout = w_shape[2] if op_kind == "depthwise_conv2d" else w_shape[3]
    weights = {"w": quantize(_w(w_shape), qp), "b": _w((1, 1, 1, cout))}
    node = OperatorNode("big", op_kind, [INPUT_ID], {"out_qp": qp}, ["w", "b"])
    return GraphSpec("one-conv", x_shape, [node], "big", weights, INT8Q)


@pytest.mark.parametrize("op_kind, x_shape, w_shape, got", [
    ("conv2d", (1, 12, 12, 1), (11, 11, 1, 1), "11x11x1"),
    ("conv2d", (1, 2, 2, 1025), (1, 1, 1025, 1), "1x1x1025"),
    ("depthwise_conv2d", (1, 12, 12, 1), (11, 11, 1, 1), "11x11x1"),
], ids=["conv-kernel", "conv-channels", "depthwise-kernel"])
def test_validate_rejects_an_int8_conv_past_the_caps(op_kind, x_shape, w_shape, got):
    """``validate`` refuses what every int8 backend refuses; a depthwise conv
    sums one channel per output, so 1025 channels of it pass."""
    with pytest.raises(GraphValidationError,
                       match=f"'big': quantized conv limited .* got {got}") as err:
        validate(_one_int8_conv(op_kind, x_shape, w_shape))
    assert err.value.node_id == "big"
    validate(_one_int8_conv("depthwise_conv2d", (1, 4, 4, 1025), (3, 3, 1025, 1)))


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
    g = validate(replace(_simple_spec(), input_shape=(1, 12, 12, 3)))
    assert count_macs(g) == 4 * (3888 + 288)


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


@pytest.mark.parametrize("test_id", range(1, 10))
def test_execute_frees_exactly_what_the_analyzer_counts_live(test_id):
    """When each node's output is observed, exactly the analyzer's live set is alive.

    Weak references to each node output's array show which outputs
    ``execute`` still holds, so a buffer freed late or early fails the
    test.  The graph input is left out, because the caller holds it.
    """
    graph, spec = instantiate(test_id, 0.1)
    registry = default_registry()
    decision = registry.select_backend(graph, preferred_backend(test_id, spec, "auto"))
    kernels = registry.kernels(decision.chosen_backend_id)
    expected = [set(live) - {INPUT_ID} for _, live in _live_buffers(graph)]
    buffers = {}
    alive = []

    def still_alive():
        return {n for n, ref in buffers.items() if ref() is not None}

    def observer(node_id, out):
        buffers[node_id] = weakref.ref(out.data)
        alive.append(still_alive())

    y = execute(graph, generate_input(spec, 42), kernels, observer=observer)
    assert alive == expected
    assert still_alive() == {graph.spec.output_id}
    assert y.shape == graph.output_shape


@st.composite
def pool_layers(draw):
    """(input NHWC shape, kind, window, stride, padding) of a valid pool."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    shape = (draw(st.integers(1, 2)), h, w, draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(["max", "avg"]))
    if draw(st.integers(0, 4)) == 0:
        return shape, kind, None, None, draw(st.sampled_from([SAME, VALID]))
    padding = draw(st.sampled_from([SAME, VALID]))
    top = (h, w) if padding == VALID else (4, 4)
    window = (draw(st.integers(1, top[0])), draw(st.integers(1, top[1])))
    stride = draw(st.one_of(st.none(), st.tuples(st.integers(1, 3), st.integers(1, 3))))
    return shape, kind, window, stride, padding


@settings(max_examples=150, deadline=None)
@given(pool_layers(), st.integers(0, 2**32 - 1))
def test_pool_geometry_agrees_between_analyzer_and_kernels(layer, seed):
    """Global pools, default strides, SAME and VALID, strides unlike the window."""
    shape, kind, window, stride, padding = layer
    attrs = {"kind": kind, "window": window, "pool_stride": stride, "padding": padding}
    node = OperatorNode("p", "pool", [INPUT_ID], attrs)
    want = _infer_shape(node, [shape], [])
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1, 1, size=shape).astype(np.float32))
    qp = QuantParams(0.05, 3)
    xq = Tensor(rng.integers(-128, 128, size=shape), INT8Q, qp)
    outs = [
        reference.pool(x, kind, window, stride, padding),
        optimized.pool(x, kind, window, stride, padding),
        quantized.make_kernel_set().apply("pool", INT8Q, [xq], [],
                                          {**attrs, "out_qp": qp}),
    ]
    assert [o.shape for o in outs] == [want] * 3


# Every attribute key the nine ops read, and values no kernel can take
# (or, for np.int64(2), one every kernel takes as 2).
_ATTR_KEYS = ["stride", "padding", "kind", "window", "pool_stride", "out_h",
              "out_w", "out_qp"]
_ODD_VALUES = [0, -1, 2.5, "x", None, (), (1, 2, 3), (2.0, 2.0), np.int64(2)]


@st.composite
def nine_op_graphs(draw, int8=None):
    """A small valid graph over all nine ops, float or quantized to int8.

    Every int8 range is (-1, 1) but the ReLU's, which is (0, 1), giving zero
    point -128 and a ReLU that ``quantize_graph`` folds into its conv, or
    (-1, 1), giving a ReLU that stays."""
    h, w = draw(st.integers(4, 8)), draw(st.integers(4, 8))
    b = GraphBuilder("nine", (1, h, w, draw(st.integers(1, 3))),
                     WeightStream(draw(st.integers(0, 99))))
    c = b.conv("c", INPUT_ID, draw(st.integers(1, 4)), draw(st.sampled_from([1, 3])),
               act=True)
    d = b.dwconv("d", c, 3, stride=draw(st.integers(1, 2)),
                 padding=draw(st.sampled_from([SAME, VALID])))
    p = b.pool("p", d, draw(st.sampled_from(["max", "avg"])), (2, 2), (1, 1), SAME)
    r = b.resize("r", b.add("a", d, p), h, w)
    k = b.concat("k", [r, c])
    f = b.fc("f", b.global_avgpool("g", k), draw(st.integers(1, 5)))
    spec = b.finish(b.softmax("s", f))
    if draw(st.booleans()) if int8 is None else int8:
        relu = draw(st.sampled_from([(-1.0, 1.0), (0.0, 1.0)]))
        spec = quantize_graph(spec, {n.id: relu if n.op_kind == "relu" else (-1.0, 1.0)
                                     for n in spec.nodes})
    return spec


@settings(max_examples=400, deadline=None)
@given(nine_op_graphs(), st.data())
def test_validate_accepts_or_names_a_node_of_any_mutated_graph(spec, data):
    """One mutation of a valid graph: an input id dropped or added, two
    weight refs swapped, an attribute deleted or set to an odd value.
    ``validate`` accepts the result or raises ``GraphValidationError``
    naming one of its nodes; no other exception may escape."""
    validate(spec)
    nodes = [replace(n, input_ids=list(n.input_ids), attributes=dict(n.attributes),
                     weight_refs=list(n.weight_refs)) for n in spec.nodes]
    node = data.draw(st.sampled_from(nodes))
    mutation = data.draw(st.sampled_from(
        ["drop-input", "add-input", "swap-weights", "delete-attr", "set-attr"]))
    if mutation == "drop-input":
        node.input_ids.pop(data.draw(st.integers(0, len(node.input_ids) - 1)))
    elif mutation == "add-input":
        node.input_ids.append(data.draw(st.sampled_from(
            [INPUT_ID, "nowhere", *(n.id for n in nodes)])))
    elif mutation == "swap-weights":
        slots = [(i, j) for i, n in enumerate(nodes)
                 for j in range(len(n.weight_refs))]
        (i1, j1), (i2, j2) = data.draw(st.lists(st.sampled_from(slots), min_size=2,
                                                max_size=2, unique=True))
        a, b = nodes[i1].weight_refs, nodes[i2].weight_refs
        a[j1], b[j2] = b[j2], a[j1]
    elif mutation == "delete-attr" and node.attributes:
        del node.attributes[data.draw(st.sampled_from(sorted(node.attributes)))]
    elif mutation == "set-attr":  # mostly a key the node reads
        key = data.draw(st.sampled_from(sorted(node.attributes) or _ATTR_KEYS))
        node.attributes[key] = data.draw(st.sampled_from(_ODD_VALUES))
    try:
        validate(replace(spec, nodes=nodes))
    except GraphValidationError as e:
        assert e.node_id in {n.id for n in nodes}


@settings(max_examples=40, deadline=None)
@given(nine_op_graphs(int8=True), st.integers(0, 2**32 - 1))
def test_quantized_backend_equals_reference_on_nine_op_graphs(spec, seed):
    """Bit for bit, with the conv's ReLU folded or kept."""
    graph = validate(spec)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.integers(-128, 128, size=spec.input_shape).astype(np.int8), INT8Q,
               QuantParams(1.0 / 255.0, -128))
    want = execute(graph, x, reference.make_kernel_set())
    got = execute(graph, x, quantized.make_kernel_set())
    assert want.shape == got.shape == graph.output_shape
    assert np.array_equal(got.data, want.data)


@settings(max_examples=40, deadline=None)
@given(nine_op_graphs(int8=False), st.integers(0, 2**32 - 1))
def test_optimized_backend_tracks_reference_on_nine_op_graphs(spec, seed):
    """Within 1e-4 of the largest output."""
    graph = validate(spec)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(0.0, 1.0, size=spec.input_shape).astype(np.float32))
    want = execute(graph, x, reference.make_kernel_set())
    got = execute(graph, x, optimized.make_kernel_set())
    assert want.shape == got.shape == graph.output_shape
    assert np.abs(got.data - want.data).max() <= 1e-4 * np.abs(want.data).max()
