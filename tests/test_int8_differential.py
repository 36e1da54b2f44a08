"""Differential tests: the fast kernels against the reference oracle.

Hypothesis draws small random layers (batch, extents, channels, kernel,
per-axis strides, padding, zero points over the whole int8 range).  The
quantized backend's int8 accumulators must equal the reference's exactly,
before the output stage the two share, whose clip could hide a difference;
the optimized float conv and depthwise conv must stay within 1e-4 relative
of the reference.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from inferbench.kernels import optimized, quantized, reference
from inferbench.kernels.shapes import SAME, VALID
from inferbench.tensor import INT8Q, QuantParams, Tensor

SETTINGS = settings(max_examples=300, deadline=None)

zero_points = st.one_of(st.sampled_from([-128, 127]), st.integers(-128, 127))
kernels_hw = st.one_of(st.just((1, 1)), st.tuples(st.integers(1, 4), st.integers(1, 4)))
strides = st.tuples(st.integers(1, 3), st.integers(1, 3))
paddings = st.sampled_from([SAME, VALID])
seeds = st.integers(0, 2**32 - 1)
channels_in = st.one_of(st.integers(1, 8), st.integers(257, 300))


def _codes(rng, shape, extremes):
    """int8 codes, either uniform or only the two ends of the range."""
    if extremes:
        return rng.choice(np.array([-128, 127], dtype=np.int8), size=shape)
    return rng.integers(-128, 128, size=shape).astype(np.int8)


@st.composite
def conv_shapes(draw, depthwise=False):
    """(input NHWC shape, weight HWIO shape, stride, padding)."""
    n, h, w = draw(st.integers(1, 2)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    # a wide conv's K = kh * kw * cin crosses the quantized backend's
    # 256-row GEMM chunks, mostly ending in a partial one
    cin = draw(st.integers(1, 8) if depthwise else channels_in)
    cout = 1 if depthwise else draw(st.integers(1, 8))
    kh, kw = draw(kernels_hw)
    padding = draw(paddings)
    if padding == VALID:
        kh, kw = min(kh, h), min(kw, w)
    return (n, h, w, cin), (kh, kw, cin, cout), draw(strides), padding


@st.composite
def conv_layers(draw, depthwise=False):
    x_shape, w_shape, stride, padding = draw(conv_shapes(depthwise))
    rng = np.random.default_rng(draw(seeds))
    extremes = draw(st.booleans())
    # only the zero points reach an accumulator, not the scales
    x = Tensor(_codes(rng, x_shape, extremes), INT8Q,
               QuantParams(0.02, draw(zero_points)))
    wt = Tensor(_codes(rng, w_shape, extremes), INT8Q,
                QuantParams(0.01, draw(zero_points)))
    channels = w_shape[2] if depthwise else w_shape[3]
    bias = None
    if draw(st.booleans()):
        bias = rng.integers(-(2**20), 2**20, size=channels)
    return x, wt, bias, stride, padding


def _same_accumulators(kind, layer):
    want = reference.ACCUMULATORS[kind](*layer)
    got = quantized.ACCUMULATORS[kind](*layer)
    assert np.array_equal(got, want)  # equal shapes and exactly equal integers


@given(conv_layers())
@SETTINGS
def test_qconv2d_matches_reference_bit_for_bit(layer):
    _same_accumulators("conv2d", layer)


@given(conv_layers(depthwise=True))
@SETTINGS
def test_qdepthwise_matches_reference_bit_for_bit(layer):
    _same_accumulators("depthwise_conv2d", layer)


@given(st.integers(1, 2), st.integers(1, 12), st.integers(1, 12), st.integers(1, 8),
       st.integers(1, 8), zero_points, zero_points, st.booleans(), st.booleans(),
       seeds)
@SETTINGS
def test_qfully_connected_matches_reference_bit_for_bit(
        n, h, w, c, cols, x_zp, w_zp, extremes, with_bias, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(_codes(rng, (n, h, w, c), extremes), INT8Q, QuantParams(0.02, x_zp))
    wt = Tensor(_codes(rng, (1, 1, h * w * c, cols), extremes), INT8Q,
                QuantParams(0.01, w_zp))
    bias = rng.integers(-(2**20), 2**20, size=cols) if with_bias else None
    _same_accumulators("fully_connected", (x, wt, bias))


@given(conv_shapes(), seeds)
@SETTINGS
def test_optimized_conv2d_matches_reference(shapes, seed):
    x_shape, w_shape, stride, padding = shapes
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1, 1, x_shape).astype(np.float32))
    wt = Tensor(rng.uniform(-1, 1, w_shape).astype(np.float32))
    b = Tensor(rng.uniform(-1, 1, (1, 1, 1, w_shape[3])).astype(np.float32))
    want = reference.conv2d(x, wt, b, stride, padding)
    got = optimized.conv2d(x, wt, b, stride, padding)
    scale = max(1.0, float(np.abs(want.data).max()))
    assert float(np.abs(got.data - want.data).max()) / scale <= 1e-4


@given(conv_shapes(depthwise=True), seeds)
@SETTINGS
def test_optimized_depthwise_matches_reference(shapes, seed):
    x_shape, w_shape, stride, padding = shapes
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1, 1, x_shape).astype(np.float32))
    wt = Tensor(rng.uniform(-1, 1, w_shape).astype(np.float32))
    b = Tensor(rng.uniform(-1, 1, (1, 1, 1, w_shape[2])).astype(np.float32))
    want = reference.depthwise_conv2d(x, wt, b, stride, padding)
    got = optimized.depthwise_conv2d(x, wt, b, stride, padding)
    scale = max(1.0, float(np.abs(want.data).max()))
    assert float(np.abs(got.data - want.data).max()) / scale <= 1e-4
