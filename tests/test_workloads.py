import dataclasses
import hashlib
import json

import numpy as np
import pytest

from inferbench.errors import GraphValidationError, WorkloadError
from inferbench.graph import (
    INPUT_ID, GraphSpec, OperatorNode, count_macs, count_params, execute, validate,
)
from inferbench.kernels import OPS, KernelSet, optimized, quantized, reference
from inferbench.tensor import FLOAT32, INT8Q, QuantParams, Tensor, qparams_from_range, quantize
from inferbench.workloads import (
    DEFAULT_BUDGETS_S,
    DEFAULT_SEED,
    all_default_specs,
    generate_input,
    instantiate,
    quantize_graph,
    weight_bytes,
    _make_spec,
)
from inferbench.zoo import (
    BUILDERS,
    GraphBuilder,
    WeightStream,
    build_srcnn,
    build_vdsr,
    splitmix64,
    uniform_stream,
)

import oracles


# --- deterministic streams ------------------------------------------------


def test_splitmix64_chunking_is_stream_position_based():
    whole = splitmix64(42, 0, 10)
    parts = np.concatenate([splitmix64(42, 0, 4), splitmix64(42, 4, 6)])
    assert np.array_equal(whole, parts)


def test_uniform_stream_range_and_determinism():
    a = uniform_stream(7, 0, 1000, -0.1, 0.1)
    b = uniform_stream(7, 0, 1000, -0.1, 0.1)
    assert np.array_equal(a, b)
    assert a.min() >= -0.1 and a.max() < 0.1


def test_weight_stream_same_seed_bit_identical():
    g1 = build_srcnn(32, 32, WeightStream(9))
    g2 = build_srcnn(32, 32, WeightStream(9))
    for name in g1.weights:
        assert np.array_equal(g1.weights[name].data, g2.weights[name].data)


def test_weight_stream_different_seed_differs():
    g1 = build_srcnn(32, 32, WeightStream(1))
    g2 = build_srcnn(32, 32, WeightStream(2))
    assert not np.array_equal(g1.weights["conv1_w"].data,
                              g2.weights["conv1_w"].data)


# --- architectures --------------------------------------------------------


def test_all_builders_validate_at_small_resolution():
    sizes = {"inception_v3": 96, "inception_resnet_v1": 96}
    for name, builder in BUILDERS.items():
        s = sizes.get(name, 64)
        g = validate(builder(s, s, WeightStream(0)))
        assert g.output_shape[0] == 1


def test_vdsr_parameter_derivation():
    g = validate(build_vdsr(32, 32, WeightStream(0)))
    # 19 conv layers at 64 channels: 1,792 + 17 * 36,928 + 1,731
    assert count_params(g) == 631_299


def test_srcnn_shapes_all_same_padding():
    g = validate(build_srcnn(300, 300, WeightStream(0)))
    assert g.node_shapes["conv1"] == (1, 300, 300, 64)
    assert g.node_shapes["conv2"] == (1, 300, 300, 32)
    assert g.node_shapes["conv3"] == (1, 300, 300, 3)


def test_mobilenet_macs_against_layer_table():
    g = validate(BUILDERS["mobilenet_v1"](224, 224, WeightStream(0)))
    assert count_macs(g) == oracles.mobilenet_v1_macs()


def test_inception_v3_macs_against_layer_table():
    g = validate(BUILDERS["inception_v3"](299, 299, WeightStream(0)))
    assert count_macs(g) == oracles.inception_v3_macs()


# --- specs ----------------------------------------------------------------


def test_default_specs_cover_nine_tests():
    specs = all_default_specs()
    assert [s.test_id for s in specs] == list(range(1, 10))
    assert specs[0].quantized and not any(s.quantized for s in specs[1:])
    assert [s.accelerator_eligible for s in specs] == [
        True, True, False, True, True, False, False, True, True
    ]


def test_default_budgets():
    assert DEFAULT_BUDGETS_S == (25.0, 40.0, 40.0, 30.0, 40.0, 50.0, 20.0, 25.0)


def test_scale_shrinks_resolution_and_budget():
    s = _make_spec(4, 0.5, 42)
    assert s.input_resolution == (152, 152)  # 300 * 0.5 snapped to x8
    assert s.time_budget_s == 15.0


def test_full_scale_keeps_canonical_resolutions():
    assert _make_spec(4, 1.0, 42).input_resolution == (300, 300)
    assert _make_spec(2, 1.0, 42).input_resolution == (346, 346)
    assert _make_spec(7, 1.0, 42).input_resolution == (384, 576)


def test_min_resolution_floor():
    s = _make_spec(3, 0.05, 42)  # valid-padding stem needs room
    assert min(s.input_resolution) >= 96


def test_bad_scale_rejected():
    with pytest.raises(WorkloadError):
        _make_spec(4, 0.0, 42)
    with pytest.raises(WorkloadError):
        _make_spec(4, 1.5, 42)


def test_unknown_test_id_rejected():
    with pytest.raises(WorkloadError):
        _make_spec(10, 1.0, 42)


def test_generate_input_deterministic_and_in_range():
    _, spec = instantiate(4, 0.1)
    a = generate_input(spec, 5)
    b = generate_input(spec, 5)
    c = generate_input(spec, 6)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert a.data.min() >= 0.0 and a.data.max() <= 1.0


def test_t1_is_int8_with_float_biases():
    graph, spec = instantiate(1, scale=0.2)
    assert spec.quantized
    assert graph.dtype_profile == INT8Q
    for name, t in graph.spec.weights.items():
        if name.endswith("_b"):
            assert t.dtype == FLOAT32
        else:
            assert t.dtype == INT8Q
    for node in graph.spec.nodes:
        assert "out_qp" in node.attributes


def test_quantize_graph_picks_the_weight_by_role_not_by_name():
    weights = {"k": Tensor(uniform_stream(3, 0, 108, -1, 1).reshape(3, 3, 3, 4)),
               "c": Tensor(uniform_stream(4, 0, 4, -1, 1).reshape(1, 1, 1, 4))}
    nodes = [OperatorNode("conv", "conv2d", [INPUT_ID], {}, ["k", "c"])]
    spec = GraphSpec("roles", (1, 6, 6, 3), nodes, "conv", weights)
    q = quantize_graph(spec, {"conv": (-2.0, 2.0)})
    assert q.weights["k"].dtype == INT8Q
    assert q.weights["c"].dtype == FLOAT32
    validate(q)
    int8_bias = quantize(weights["c"], qparams_from_range(-1.0, 1.0))
    with pytest.raises(GraphValidationError, match="float32 bias") as err:
        validate(dataclasses.replace(q, weights={**q.weights, "c": int8_bias}))
    assert err.value.node_id == "conv"


def _int8_outputs_agree(graph, seed):
    """The quantized backend gives the reference's codes on one random image."""
    qp = QuantParams(1.0 / 255.0, -128)
    codes = np.random.default_rng(seed).integers(-128, 128, size=graph.spec.input_shape)
    x = Tensor(codes.astype(np.int8), INT8Q, qp)
    want = execute(graph, x, reference.make_kernel_set())
    return np.array_equal(execute(graph, x, quantized.make_kernel_set()).data, want.data)


def test_t1_int8_graph_folds_every_relu():
    graph, _ = instantiate(1, scale=0.25)
    assert len(graph.spec.nodes) == 30
    assert not [n.id for n in graph.spec.nodes if n.op_kind == "relu"]
    assert _int8_outputs_agree(graph, 0)


# output of the conv "c" -> relu "c_relu" graph, the ReLU's range, and the
# nodes of the int8 graph
FOLD_CASES = {
    "relu-is-output": (lambda b, r: r, (0.0, 2.0), ["c"]),
    "all-zero-range": (lambda b, r: r, (0.0, 0.0), ["c", "c_relu"]),
    "conv-read-twice": (lambda b, r: b.add("a", r, "c"), (0.0, 2.0),
                        ["c", "c_relu", "a"]),
}


@pytest.mark.parametrize("case", FOLD_CASES)
def test_quantize_graph_folds_a_relu_at_zero_point_minus_128_into_its_sole_reader(case):
    tail, relu_range, want_ids = FOLD_CASES[case]
    b = GraphBuilder("fold", (1, 6, 6, 3), WeightStream(5))
    spec = b.finish(tail(b, b.conv("c", INPUT_ID, 4, 3, act=True)))
    ranges = {n.id: relu_range if n.op_kind == "relu" else (-2.0, 2.0)
              for n in spec.nodes}
    q = quantize_graph(spec, ranges)
    assert [n.id for n in q.nodes] == want_ids
    out_qp = {n.id: n.attributes["out_qp"] for n in q.nodes}
    if "c_relu" in want_ids:
        assert out_qp["c"] == qparams_from_range(-2.0, 2.0)
    else:  # the conv takes the ReLU's qparams, and the output is the conv
        assert out_qp["c"] == qparams_from_range(*relu_range)
        assert out_qp["c"].zero_point == -128
        assert q.output_id == "c"
    assert _int8_outputs_agree(validate(q), 1)


def test_t1_quantized_output_tracks_float_twin():
    graph, spec = instantiate(1, scale=0.2)
    from inferbench.kernels import reference
    from inferbench.tensor import dequantize
    from inferbench.zoo import build_mobilenet_v1
    x = generate_input(spec, 11)
    qy = execute(graph, x, reference.make_kernel_set())
    h, w = spec.input_resolution
    fg = validate(build_mobilenet_v1(h, w, WeightStream(spec.seed)))
    import dataclasses
    fx = generate_input(dataclasses.replace(spec, quantized=False), 11)
    fy = execute(fg, fx, optimized.make_kernel_set())
    # softmax outputs: quantization noise stays small in absolute terms
    assert np.abs(dequantize(qy).data - fy.data).max() < 0.05


def test_weight_bytes_quantization_ratio():
    graph, spec = instantiate(1, 0.2)
    h, w = spec.input_resolution
    fg = validate(BUILDERS["mobilenet_v1"](h, w, WeightStream(spec.seed)))
    ratio = weight_bytes(fg) / weight_bytes(graph)
    assert abs(ratio - 4.0) < 0.08


# sha256 of each float network's canonical layer list at scale 1.0; they
# equal the digests of the layer lists once shipped as workload spec files
FROZEN_LAYER_DIGESTS = {
    "mobilenet_v1": "4ab618a0c98e1c542d75f4c815b5ad4d38eaa2fb380418e77d6a2f3a28783004",
    "inception_v3": "501e120a1205ca46e9120b8fd604c825e138f7a9a860f6d91ec45ba8d348a729",
    "inception_resnet_v1": "9131b38da27247f216939c0f691bf10d5094bf20bc8a29b59d6ee0becd7b77ee",
    "srcnn": "3075ab8bcd8f06dc6db1354aaec97c4e2986df954ce45158ec83413865d5e91d",
    "vdsr": "c99832341a6124020c0baceb2d225e78fd28c72bb21e6d8b2159a15ff4df71d3",
    "srgan_generator": "889af1d173cce542fce0018d25fe0cd0614bf66ae8c4e6903c18671d291a61ee",
    "icnet": "43d684eac70d151105be206d270b88b047b370aad293341ea5002a7f2b98b9c0",
    "dped": "d7ea6d8dc6525a1588d842ed14be7b1c1945e0263123e404467647b60150c5bb",
}


def _layer_digest(gspec):
    layers = [
        {"id": n.id, "op": n.op_kind, "inputs": list(n.input_ids),
         "attrs": n.attributes,
         "weights": [[r, list(gspec.weights[r].shape)] for r in n.weight_refs]}
        for n in gspec.nodes
    ]
    text = json.dumps(layers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_layer_lists_are_frozen():
    """Catches architecture drift that MAC and parameter counts miss, such
    as a swapped concat input order.  Test 1 is hashed before quantization,
    so no calibrated scale plays a part."""
    digests = {}
    for t in range(1, 9):
        spec = _make_spec(t, 1.0, DEFAULT_SEED)
        h, w = spec.input_resolution
        gspec = BUILDERS[spec.architecture](h, w, WeightStream(spec.seed))
        digests[spec.architecture] = _layer_digest(gspec)
    assert digests == FROZEN_LAYER_DIGESTS


def _frozen_tiled_conv2d(x, w, bias, stride, padding):
    """The optimized float conv's tiling and GEMM operands, written out
    without the shared ``im2col``: one ``block @ wm + b`` per tile of
    ``_TILE_ELEMS // ow`` output rows of one image."""
    from numpy.lib.stride_tricks import sliding_window_view

    from inferbench.kernels.reference import _zero_pad
    from inferbench.kernels.shapes import conv_out_hw
    kh, kw, cin, cout = w.shape
    oh, ow = conv_out_hw(x.shape[1:3], (kh, kw), stride, padding)
    xp = _zero_pad(x.data, kh, kw, stride, padding)
    v = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride[0], ::stride[1]]
    wm = w.data.reshape(kh * kw * cin, cout)
    b = bias.data.reshape(-1)
    out = np.empty((x.shape[0], oh, ow, cout), dtype=np.float32)
    rows = max(1, optimized._TILE_ELEMS // ow)
    for n in range(x.shape[0]):
        for r0 in range(0, oh, rows):
            r1 = min(r0 + rows, oh)
            block = np.ascontiguousarray(
                v[n, r0:r1].transpose(0, 1, 3, 4, 2)).reshape(-1, kh * kw * cin)
            out[n, r0:r1] = (block @ wm + b).reshape(r1 - r0, ow, cout)
    return Tensor(out)


def _frozen_kn2row_conv2d(x, w, bias, padding):
    """The optimized float conv's kn2row path written out: per band of
    ``_TILE_ELEMS // W`` input rows of one image, one GEMM of the
    (kh * kw * cout, cin) weight with the band's transposed view, then for
    each tap (i, j) in row-major order the part of its plane that lands in
    the output, added to an accumulator that starts at the bias."""
    from inferbench.kernels.shapes import conv_out_hw, pad_amounts
    n_img, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    oh, ow = conv_out_hw((h, wd), (kh, kw), (1, 1), padding)
    pt = pad_amounts(h, kh, 1, padding)[0]
    pl = pad_amounts(wd, kw, 1, padding)[0]
    wt = np.ascontiguousarray(w.data.transpose(0, 1, 3, 2)).reshape(-1, cin)
    band = max(1, optimized._TILE_ELEMS // wd)
    out = np.empty((n_img, oh, ow, cout), dtype=np.float32)
    for n in range(n_img):
        acc = np.empty((cout, oh, ow), dtype=np.float32)
        acc[:] = bias.data.reshape(-1, 1, 1)
        for y0 in range(0, h, band):
            y1 = min(y0 + band, h)
            planes = (wt @ x.data[n, y0:y1].reshape(-1, cin).T).reshape(
                kh, kw, cout, y1 - y0, wd)
            for i in range(kh):
                for j in range(kw):
                    # output (r, c) reads input (r + i - pt, c + j - pl)
                    rows = [r for r in range(oh) if y0 <= r + i - pt < y1]
                    cols = [c for c in range(ow) if 0 <= c + j - pl < wd]
                    if rows and cols:
                        r0, r1 = rows[0], rows[-1] + 1
                        c0, c1 = cols[0], cols[-1] + 1
                        acc[:, r0:r1, c0:c1] += planes[
                            i, j, :, r0 + i - pt - y0 : r1 + i - pt - y0,
                            c0 + j - pl : c1 + j - pl]
        out[n] = acc.transpose(1, 2, 0)
    return Tensor(out)


def _frozen_conv2d(x, w, bias, stride, padding):
    """The optimized float conv's rule: kn2row for a stride-1 k x k conv
    with at most a quarter as many output as input channels, else tiled."""
    kh, kw, cin, cout = w.shape
    if tuple(stride) == (1, 1) and kh * kw > 1 and 4 * cout <= cin:
        return _frozen_kn2row_conv2d(x, w, bias, padding)
    return _frozen_tiled_conv2d(x, w, bias, stride, padding)


def _frozen_resize_bilinear(x, out_h, out_w):
    """Bilinear resize from four gathered corner arrays of the output's size."""
    h, w = x.shape[1:3]
    if (out_h, out_w) == (h, w):
        return Tensor(x.data.copy())
    sy = np.arange(out_h) * (h / out_h)
    sx = np.arange(out_w) * (w / out_w)
    y0 = np.minimum(np.floor(sy).astype(np.int64), h - 1)
    x0 = np.minimum(np.floor(sx).astype(np.int64), w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (sy - y0).astype(np.float32)[None, :, None, None]
    fx = (sx - x0).astype(np.float32)[None, None, :, None]
    d = x.data
    top = d[:, y0][:, :, x0] * (1 - fx) + d[:, y0][:, :, x1] * fx
    bot = d[:, y1][:, :, x0] * (1 - fx) + d[:, y1][:, :, x1] * fx
    return Tensor(top * (1 - fy) + bot * fy)


def _node_digests(graph, x, kernels):
    digests = {}

    def observer(node_id, out):
        digests[node_id] = hashlib.sha256(out.data.tobytes()).hexdigest()

    execute(graph, x, kernels, observer=observer)
    return digests


def test_optimized_float_nodes_keep_their_bits():
    """Every node of the nine float networks gives the frozen conv's and
    resize's bits, so test 1's calibrated ranges and output codes cannot
    move."""
    kernels = optimized.make_kernel_set()
    frozen = KernelSet("frozen", {
        **kernels.ops,
        ("conv2d", FLOAT32): lambda i, w, a: _frozen_conv2d(
            *OPS["conv2d"].args(i, w, a)),
        ("resize_bilinear", FLOAT32): lambda i, w, a: _frozen_resize_bilinear(
            *OPS["resize_bilinear"].args(i, w, a)),
    })
    for t in range(1, 10):
        spec = _make_spec(t, 0.25, DEFAULT_SEED)
        h, w = spec.input_resolution
        graph = validate(BUILDERS[spec.architecture](h, w, WeightStream(spec.seed)))
        # test 1 as its calibration pass runs it
        seed = spec.seed ^ 0xCA11B if spec.quantized else spec.seed
        x = generate_input(dataclasses.replace(spec, quantized=False), seed)
        want = _node_digests(graph, x, frozen)
        assert _node_digests(graph, x, kernels) == want, f"test {t}"
