import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inferbench.errors import ShapeError
from inferbench.kernels import OPS, KernelSet, optimized, reference
from inferbench.kernels.shapes import SAME, VALID, conv_out_hw, out_extent, pad_amounts
from inferbench.tensor import FLOAT32, Tensor
from inferbench.workloads import instantiate

import oracles

RNG = np.random.default_rng(1234)


def _rand(shape, lo=-1.0, hi=1.0):
    return RNG.uniform(lo, hi, size=shape).astype(np.float32)


def _conv_case():
    n = int(RNG.integers(1, 3))
    h, w = int(RNG.integers(3, 12)), int(RNG.integers(3, 12))
    cin, cout = int(RNG.integers(1, 5)), int(RNG.integers(1, 5))
    kh, kw = int(RNG.integers(1, 4)), int(RNG.integers(1, 4))
    s = int(RNG.integers(1, 3))
    padding = SAME if RNG.integers(2) else VALID
    if padding == VALID:
        kh, kw = min(kh, h), min(kw, w)
    return n, h, w, cin, cout, kh, kw, (s, s), padding


class _SmallTileKernels(KernelSet):
    """The optimized kernels with a tile of 7 output positions, so the small
    cases here span several tiles, most with a short last tile."""

    def apply(self, op_kind, dtype, inputs, weights, attrs):
        saved = optimized._TILE_ELEMS
        optimized._TILE_ELEMS = 7
        try:
            return super().apply(op_kind, dtype, inputs, weights, attrs)
        finally:
            optimized._TILE_ELEMS = saved


_OPT = optimized.make_kernel_set()
# ids: reference, optimized0 (production tile grid), optimized1 (small tiles)
BACKENDS = [reference.make_kernel_set(), _OPT,
            _SmallTileKernels(_OPT.backend_id, _OPT.ops)]


@pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.backend_id)
def test_conv2d_matches_oracle(kernels):
    for _ in range(25):
        n, h, w, cin, cout, kh, kw, stride, padding = _conv_case()
        x = _rand((n, h, w, cin))
        wt = _rand((kh, kw, cin, cout))
        b = _rand((1, 1, 1, cout))
        got = kernels.apply(
            "conv2d", FLOAT32, [Tensor(x)], [Tensor(wt), Tensor(b)],
            {"stride": stride, "padding": padding},
        )
        want = oracles.conv2d_oracle(x, wt, b, stride, padding)
        np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-5)


@st.composite
def _float_conv_layers(draw):
    """A float conv layer for either conv path, with a tile of 1 to 64
    positions: kernels up to 9 x 9, square or not, maps down to 1 x 1 and
    narrower than the kernel (under same padding), and cout on both sides
    of cin / 4."""
    kh, kw = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    h, w = draw(st.integers(1, 13)), draw(st.integers(1, 13))
    padding = draw(st.sampled_from([SAME, VALID]))
    if padding == VALID:
        h, w = max(h, kh), max(w, kw)
    cin = draw(st.integers(1, 16))
    cout = draw(st.one_of(st.integers(1, max(1, cin // 4)), st.integers(1, 8)))
    stride = draw(st.sampled_from([(1, 1), (2, 2), (1, 2), (2, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1, 1, (draw(st.integers(1, 2)), h, w, cin)).astype(np.float32)
    wt = rng.uniform(-1, 1, (kh, kw, cin, cout)).astype(np.float32)
    b = rng.uniform(-1, 1, (1, 1, 1, cout)).astype(np.float32)
    return Tensor(x), Tensor(wt), Tensor(b), stride, padding, draw(st.integers(1, 64))


@given(_float_conv_layers())
@settings(max_examples=300, deadline=None)
def test_optimized_conv2d_paths_match_reference(layer):
    """Both conv paths, with tiles and bands that cross their boundaries,
    within 1e-5 of the largest output of the reference."""
    x, wt, b, stride, padding, tile = layer
    want = reference.conv2d(x, wt, b, stride, padding).data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimized, "_TILE_ELEMS", tile)
        got = optimized.conv2d(x, wt, b, stride, padding).data
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


# (scale, test id, node id) of every conv the kn2row rule picks
KN2ROW_NODES = [
    (s, t, node) for s in (0.25, 1.0)
    for t, node in [(4, "conv3"), (5, "conv19"), (6, "out"), (8, "out"), (9, "conv3")]
]


def test_kn2row_rule_picks_the_image_out_convs():
    """Of the nine networks at scales 0.25 and 1.0, only the last conv of
    tests 4, 5, 6, 8 and 9 runs kn2row; no node of test 1 does, so its
    calibration cannot move."""
    picked = []
    for s in (0.25, 1.0):
        for t in range(1, 10):
            graph = instantiate(t, s)[0]
            for node in graph.spec.nodes:
                if node.op_kind == "conv2d":
                    _, w, _, stride, _ = OPS["conv2d"].args(
                        [None], [graph.spec.weights[r] for r in node.weight_refs],
                        node.attributes)
                    if optimized.kn2row_applies(w.shape, stride):
                        picked.append((s, t, node.id))
    assert picked == KN2ROW_NODES


def _call_peak_bytes(fn, *args):
    """Traced bytes a call holds at its peak, beyond what is live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# the weight copy, the bias and numpy's ufunc buffers (8192 elements each)
_SMALL_BYTES = 1 << 18


@pytest.mark.parametrize("w_shape", [(3, 3, 32, 32), (5, 5, 32, 3)],
                         ids=["tiled", "kn2row"])
def test_conv2d_holds_no_padded_copy_of_the_image(w_shape):
    """On a 200 x 200 map each conv path holds, beside its output, only its
    working set: a padded slab one tile high, its patch tile and that tile's
    GEMM result, or one band's GEMM result and the accumulator.  A padded
    copy of the whole input would not fit."""
    kh, kw, cin, cout = w_shape
    h = w = 200
    # its own generator, so the module's RNG draws the same cases after it
    rng = np.random.default_rng(0)
    x, wt, b = (Tensor(rng.uniform(-1, 1, s).astype(np.float32))
                for s in [(1, h, w, cin), w_shape, (1, 1, 1, cout)])
    out_bytes = h * w * cout * 4
    rows = optimized._TILE_ELEMS // w
    if optimized.kn2row_applies(w_shape, (1, 1)):
        work = rows * w * kh * kw * cout * 4 + out_bytes
    else:
        pl, pr = pad_amounts(w, kw, 1, SAME)
        slab = (rows - 1 + kh) * (pl + w + pr) * cin * 4
        work = slab + rows * w * (kh * kw * cin + cout) * 4
    assert _call_peak_bytes(optimized.conv2d, x, wt, b) <= out_bytes + work + _SMALL_BYTES


@pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.backend_id)
def test_depthwise_matches_oracle(kernels):
    for _ in range(25):
        n, h, w, c, _, kh, kw, stride, padding = _conv_case()
        x = _rand((n, h, w, c))
        wt = _rand((kh, kw, c, 1))
        b = _rand((1, 1, 1, c))
        got = kernels.apply(
            "depthwise_conv2d", FLOAT32, [Tensor(x)], [Tensor(wt), Tensor(b)],
            {"stride": stride, "padding": padding},
        )
        want = oracles.depthwise_oracle(x, wt, b, stride, padding)
        np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.backend_id)
def test_fully_connected_matches_oracle(kernels):
    for _ in range(10):
        n = int(RNG.integers(1, 3))
        h, w, c = int(RNG.integers(1, 4)), int(RNG.integers(1, 4)), int(RNG.integers(1, 6))
        cols = int(RNG.integers(1, 8))
        x = _rand((n, h, w, c))
        wt = _rand((1, 1, h * w * c, cols))
        b = _rand((1, 1, 1, cols))
        got = kernels.apply("fully_connected", FLOAT32, [Tensor(x)],
                            [Tensor(wt), Tensor(b)], {})
        want = oracles.fc_oracle(x, wt, b)
        np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.backend_id)
@pytest.mark.parametrize("kind", ["max", "avg"])
def test_pool_matches_oracle(kernels, kind):
    for _ in range(15):
        n = int(RNG.integers(1, 3))
        h, w, c = int(RNG.integers(3, 10)), int(RNG.integers(3, 10)), int(RNG.integers(1, 4))
        kh, kw = int(RNG.integers(1, 4)), int(RNG.integers(1, 4))
        s = int(RNG.integers(1, 3))
        padding = SAME if RNG.integers(2) else VALID
        if padding == VALID:
            kh, kw = min(kh, h), min(kw, w)
        x = _rand((n, h, w, c))
        attrs = {"kind": kind, "window": (kh, kw), "pool_stride": (s, s),
                 "padding": padding}
        got = kernels.apply("pool", FLOAT32, [Tensor(x)], [], attrs)
        want = oracles.pool_oracle(x, kind, (kh, kw), (s, s), padding)
        np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.backend_id)
def test_global_avg_pool(kernels):
    x = _rand((2, 5, 7, 3))
    got = kernels.apply("pool", FLOAT32, [Tensor(x)], [],
                        {"kind": "avg", "window": None})
    want = oracles.pool_oracle(x, "avg", None, None, VALID)
    assert got.shape == (2, 1, 1, 3)
    np.testing.assert_allclose(got.data, want, rtol=1e-5)


@pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.backend_id)
def test_resize_bilinear_matches_oracle(kernels):
    for _ in range(10):
        h, w = int(RNG.integers(2, 10)), int(RNG.integers(2, 10))
        oh, ow = int(RNG.integers(1, 14)), int(RNG.integers(1, 14))
        x = _rand((1, h, w, 2))
        got = kernels.apply("resize_bilinear", FLOAT32, [Tensor(x)], [],
                            {"out_h": oh, "out_w": ow})
        want = oracles.resize_bilinear_oracle(x, oh, ow)
        np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("kernels", BACKENDS, ids=lambda k: k.backend_id)
def test_elementwise_ops(kernels):
    a, b = _rand((1, 3, 4, 5)), _rand((1, 3, 4, 5))
    got = kernels.apply("add", FLOAT32, [Tensor(a), Tensor(b)], [], {})
    np.testing.assert_allclose(got.data, a + b, rtol=1e-6)
    got = kernels.apply("relu", FLOAT32, [Tensor(a)], [], {})
    np.testing.assert_allclose(got.data, np.maximum(a, 0), rtol=1e-6)
    got = kernels.apply("softmax", FLOAT32, [Tensor(a)], [], {})
    np.testing.assert_allclose(got.data, oracles.softmax_oracle(a),
                               rtol=1e-5, atol=1e-7)
    got = kernels.apply("concat_channels", FLOAT32,
                        [Tensor(a), Tensor(b)], [], {})
    np.testing.assert_allclose(got.data, np.concatenate([a, b], axis=3))


def test_same_padding_output_size():
    # same: ceil(n / stride); valid: floor((n - k) / stride) + 1
    assert out_extent(7, 3, 2, SAME) == 4
    assert out_extent(7, 3, 2, VALID) == 3
    assert out_extent(5, 5, 1, VALID) == 1
    assert conv_out_hw((7, 5), (3, 3), (2, 2), SAME) == (4, 3)


def test_conv_rejects_channel_mismatch():
    x = Tensor(_rand((1, 4, 4, 3)))
    wt = Tensor(_rand((3, 3, 2, 4)))
    with pytest.raises(ShapeError):
        reference.conv2d(x, wt, None)


def test_backend_coverage():
    ref = reference.make_kernel_set()
    opt = optimized.make_kernel_set()
    for op in OPS:
        assert ref.supports(op, FLOAT32)
        assert ref.supports(op, "int8q")
        assert opt.supports(op, FLOAT32)
        assert not opt.supports(op, "int8q")
