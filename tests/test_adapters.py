"""Every kernel-table entry decodes a node into the right math-function call.

Each (op, dtype) entry of the reference, optimized and quantized tables is
called through ``KernelSet.apply`` on one tiny node and compared bit for bit
with a direct call of the math function, its arguments written out here by
hand rather than decoded from the node's attributes.  For an int8 op with
weights the math function is the backend's accumulator, and the output
stage around it is written out here too.
"""

import numpy as np
import pytest

from inferbench.graph import INPUT_ID, OperatorNode, _infer_shape
from inferbench.kernels import optimized, quantized, reference
from inferbench.kernels.shapes import SAME, VALID
from inferbench.tensor import FLOAT32, INT8Q, Tensor, qparams_from_range, quantize

RNG = np.random.default_rng(11)

# op, input shapes, weight shapes, attributes, the decoded arguments that
# follow the input and weight tensors in the math function's signature
CASES = [
    ("conv2d", [(1, 5, 5, 2)], [(3, 3, 2, 3), (1, 1, 1, 3)], {},
     ((1, 1), SAME)),
    ("conv2d", [(1, 5, 5, 2)], [(3, 3, 2, 3), (1, 1, 1, 3)],
     {"stride": 2, "padding": VALID}, ((2, 2), VALID)),
    ("depthwise_conv2d", [(1, 5, 5, 2)], [(3, 3, 2, 1), (1, 1, 1, 2)],
     {"stride": (2, 1)}, ((2, 1), SAME)),
    ("fully_connected", [(1, 2, 2, 3)], [(1, 1, 12, 4), (1, 1, 1, 4)], {}, ()),
    ("pool", [(1, 4, 4, 2)], [],
     {"kind": "max", "window": (2, 2), "pool_stride": (1, 1), "padding": SAME},
     ("max", (2, 2), (1, 1), SAME)),
    ("pool", [(1, 4, 4, 2)], [], {"kind": "avg", "window": (3, 3)},
     ("avg", (3, 3), None, VALID)),
    ("pool", [(1, 4, 4, 2)], [], {"kind": "avg"}, ("avg", None, None, VALID)),
    ("resize_bilinear", [(1, 3, 3, 2)], [], {"out_h": 5, "out_w": 4}, (5, 4)),
    ("add", [(1, 3, 3, 2), (1, 3, 3, 2)], [], {}, ()),
    ("relu", [(1, 3, 3, 2)], [], {}, ()),
    ("concat_channels", [(1, 3, 3, 2), (1, 3, 3, 1)], [], {}, ()),
    ("softmax", [(1, 1, 1, 5)], [], {}, ()),
]

_SHARED_FLOAT = {op: getattr(reference, op)
                 for op in ("add", "relu", "concat_channels", "softmax")}
_SHARED_INT8 = {
    "pool": reference.qpool,
    "resize_bilinear": reference.qresize_bilinear,
    "add": reference.qadd,
    "concat_channels": reference.qconcat_channels,
    "softmax": reference.qsoftmax,
}

# backend -> dtype -> op -> the math function its table should call
MATH = {
    "reference": {
        FLOAT32: {op: getattr(reference, op) for op in
                  ("conv2d", "depthwise_conv2d", "fully_connected", "pool",
                   "resize_bilinear", *_SHARED_FLOAT)},
        INT8Q: {**reference.ACCUMULATORS, "relu": reference.qrelu, **_SHARED_INT8},
    },
    "optimized": {
        FLOAT32: {"conv2d": optimized.conv2d,
                  "depthwise_conv2d": optimized.depthwise_conv2d,
                  "fully_connected": optimized.fully_connected,
                  "pool": optimized.pool,
                  "resize_bilinear": optimized.resize_bilinear, **_SHARED_FLOAT},
    },
    "quantized": {
        INT8Q: {**quantized.ACCUMULATORS, "relu": reference.qrelu, **_SHARED_INT8},
    },
}

KERNEL_SETS = {
    "reference": reference.make_kernel_set(),
    "optimized": optimized.make_kernel_set(),
    "quantized": quantized.make_kernel_set(),
}


def _float(shape):
    return Tensor(RNG.uniform(-1.0, 1.0, size=shape).astype(np.float32))


def _int8(t):
    return quantize(t, qparams_from_range(float(t.data.min()),
                                          float(t.data.max())))


def _node(op, in_shapes, w_shapes, attrs, dtype):
    ins = [_float(s) for s in in_shapes]
    weights = [_float(s) for s in w_shapes]
    attrs = dict(attrs)
    if dtype == INT8Q:
        ins = [_int8(t) for t in ins]
        # the bias stays real-valued, as in a quantized graph
        weights = [_int8(t) for t in weights[:1]] + weights[1:]
        attrs["out_qp"] = qparams_from_range(-0.7, 1.3)
    return ins, weights, attrs


def _direct(fn, op, ins, weights, attrs, decoded, dtype):
    head = [ins] if op == "concat_channels" else list(ins)
    if dtype == FLOAT32:
        return fn(*head, *weights, *decoded)
    out_qp = attrs["out_qp"]
    if not weights:
        return fn(*head, *decoded, out_qp)
    (x,), (w, b) = ins, weights
    acc = fn(x, w, reference.quantize_bias(b, x.qparams, w.qparams), *decoded)
    codes = reference.requantize(acc, x.qparams, w.qparams, out_qp)
    return Tensor(codes, INT8Q, out_qp)


ENTRIES = [
    (backend, dtype, case)
    for backend, tables in MATH.items()
    for dtype in tables
    for case in CASES
]


def _entry_id(entry):
    backend, dtype, (op, _, _, attrs, _) = entry
    return f"{backend}-{dtype}-{op}-{'-'.join(sorted(attrs)) or 'defaults'}"


def test_tables_cover_exactly_the_declared_entries():
    for backend, tables in MATH.items():
        declared = {(op, dtype) for dtype, ops in tables.items() for op in ops}
        assert set(KERNEL_SETS[backend].ops) == declared


@pytest.mark.parametrize("entry", ENTRIES, ids=[_entry_id(e) for e in ENTRIES])
def test_apply_equals_direct_call(entry):
    backend, dtype, (op, in_shapes, w_shapes, attrs, decoded) = entry
    ins, weights, attrs = _node(op, in_shapes, w_shapes, attrs, dtype)
    got = KERNEL_SETS[backend].apply(op, dtype, ins, weights, attrs)
    want = _direct(MATH[backend][dtype][op], op, ins, weights, attrs,
                   decoded, dtype)
    assert got.dtype == want.dtype == dtype
    assert got.qparams == want.qparams
    assert got.data.dtype == want.data.dtype
    assert np.array_equal(got.data, want.data)
    node = OperatorNode("n", op, [INPUT_ID] * len(ins), attrs, [])
    assert got.shape == _infer_shape(node, [t.shape for t in ins], weights)


def test_a_missing_accumulator_fails_when_the_table_is_built():
    """Not later, at dispatch, by a table that lacks fully connected."""
    with pytest.raises(KeyError, match="depthwise_conv2d"):
        reference.int8_adapters({"conv2d": quantized.ACCUMULATORS["conv2d"]})
