import numpy as np
import pytest

from inferbench.errors import QuantizationError, ShapeError
from inferbench.kernels import quantized, reference
from inferbench.kernels.shapes import SAME, VALID
from inferbench.tensor import (
    INT8Q,
    QuantParams,
    Tensor,
    dequantize,
    qparams_from_range,
    quantize,
)

import oracles

RNG = np.random.default_rng(99)

QSETS = [reference.make_kernel_set(), quantized.make_kernel_set()]


def _quantized_pair(shape, lo=-1.0, hi=1.0):
    x = RNG.uniform(lo, hi, size=shape).astype(np.float32)
    qp = qparams_from_range(float(x.min()), float(x.max()))
    return x, quantize(Tensor(x), qp)


def _case():
    h, w = int(RNG.integers(3, 10)), int(RNG.integers(3, 10))
    cin, cout = int(RNG.integers(1, 5)), int(RNG.integers(1, 5))
    kh, kw = int(RNG.integers(1, 4)), int(RNG.integers(1, 4))
    s = int(RNG.integers(1, 3))
    padding = SAME if RNG.integers(2) else VALID
    if padding == VALID:
        kh, kw = min(kh, h), min(kw, w)
    return h, w, cin, cout, kh, kw, (s, s), padding


@pytest.mark.parametrize("kernels", QSETS, ids=lambda k: k.backend_id)
def test_qconv_tracks_float_oracle(kernels):
    """Dequantized int8 conv stays within 2 output quanta of the float result."""
    for _ in range(20):
        h, w, cin, cout, kh, kw, stride, padding = _case()
        xf, xq = _quantized_pair((1, h, w, cin))
        wf, wq = _quantized_pair((kh, kw, cin, cout), -0.3, 0.3)
        b = RNG.uniform(-0.2, 0.2, size=(1, 1, 1, cout)).astype(np.float32)
        # the oracle sees the exact reals the int8 kernel represents
        want = oracles.conv2d_oracle(dequantize(xq).data, dequantize(wq).data,
                                     b, stride, padding)
        out_qp = qparams_from_range(float(want.min()), float(want.max()))
        got = kernels.apply(
            "conv2d", INT8Q, [xq], [wq, Tensor(b)],
            {"stride": stride, "padding": padding, "out_qp": out_qp},
        )
        assert got.dtype == INT8Q
        err = np.abs(dequantize(got).data - want)
        assert err.max() <= 2 * out_qp.scale + 1e-6


@pytest.mark.parametrize("kernels", QSETS, ids=lambda k: k.backend_id)
def test_qdepthwise_tracks_float_oracle(kernels):
    for _ in range(15):
        h, w, c, _, kh, kw, stride, padding = _case()
        xf, xq = _quantized_pair((1, h, w, c))
        wf, wq = _quantized_pair((kh, kw, c, 1), -0.3, 0.3)
        b = RNG.uniform(-0.2, 0.2, size=(1, 1, 1, c)).astype(np.float32)
        want = oracles.depthwise_oracle(dequantize(xq).data, dequantize(wq).data,
                                        b, stride, padding)
        out_qp = qparams_from_range(float(want.min()), float(want.max()))
        got = kernels.apply(
            "depthwise_conv2d", INT8Q, [xq], [wq, Tensor(b)],
            {"stride": stride, "padding": padding, "out_qp": out_qp},
        )
        err = np.abs(dequantize(got).data - want)
        assert err.max() <= 2 * out_qp.scale + 1e-6


@pytest.mark.parametrize("kernels", QSETS, ids=lambda k: k.backend_id)
def test_qfc_tracks_float_oracle(kernels):
    for _ in range(10):
        h, w, c = int(RNG.integers(1, 4)), int(RNG.integers(1, 4)), int(RNG.integers(1, 5))
        cols = int(RNG.integers(1, 8))
        xf, xq = _quantized_pair((1, h, w, c))
        wf, wq = _quantized_pair((1, 1, h * w * c, cols), -0.3, 0.3)
        b = RNG.uniform(-0.2, 0.2, size=(1, 1, 1, cols)).astype(np.float32)
        want = oracles.fc_oracle(dequantize(xq).data, dequantize(wq).data, b)
        out_qp = qparams_from_range(float(want.min()), float(want.max()))
        got = kernels.apply("fully_connected", INT8Q, [xq],
                            [wq, Tensor(b)], {"out_qp": out_qp})
        err = np.abs(dequantize(got).data - want)
        assert err.max() <= 2 * out_qp.scale + 1e-6


def test_integer_gemm_agrees_with_reference_exactly():
    """Both int8 conv paths accumulate exactly, so codes match bit-for-bit."""
    ref, opt = QSETS
    for _ in range(20):
        h, w, cin, cout, kh, kw, stride, padding = _case()
        _, xq = _quantized_pair((1, h, w, cin))
        _, wq = _quantized_pair((kh, kw, cin, cout), -0.3, 0.3)
        b = RNG.uniform(-0.2, 0.2, size=(1, 1, 1, cout)).astype(np.float32)
        out_qp = QuantParams(0.05, 0)
        attrs = {"stride": stride, "padding": padding, "out_qp": out_qp}
        ya = ref.apply("conv2d", INT8Q, [xq], [wq, Tensor(b)], attrs)
        yb = opt.apply("conv2d", INT8Q, [xq], [wq, Tensor(b)], attrs)
        assert np.array_equal(ya.data, yb.data)


# Largest accumulators the config caps allow: every centered input code is
# 0 - 255 and every centered weight code 255.  The bias cancels all but a
# few units, so one unit lost anywhere in the accumulation shows.
CAP_X_QP = QuantParams(0.5, 127)
CAP_W_QP = QuantParams(0.5, -128)


def _cap_operands(x_shape, w_shape):
    x = Tensor(np.full(x_shape, -128, dtype=np.int8), INT8Q, CAP_X_QP)
    w = Tensor(np.full(w_shape, 127, dtype=np.int8), INT8Q, CAP_W_QP)
    return x, w


# K = 259 = 256 + 3: one float32 GEMM chunk at its largest sum,
# 256 * 255**2 < 2**24, then a partial chunk of 3 rows.  The total,
# 259 * 255**2, is odd and above 2**24, so no float32 can hold it: a chunk
# longer than 258 rows, or a dropped partial chunk, moves the accumulator.
SPLIT_K = 259


def _accumulated(kind, *args):
    """The reference's and the quantized backend's accumulator, flat."""
    return [m.ACCUMULATORS[kind](*args).reshape(-1).tolist()
            for m in (reference, quantized)]


def test_int8_accumulators_exact_at_config_cap():
    k, c = reference.MAX_Q_KERNEL, reference.MAX_Q_CHANNELS
    split_acc = -(255**2) * SPLIT_K
    assert split_acc % 2 and -split_acc > 2**24
    acc = -(255**2) * k * k * c
    assert acc == -5_393_433_600  # beyond int32, within float64's 2**53
    for kh, cin, total in ((k, c, acc), (1, SPLIT_K, split_acc)):
        x, w = _cap_operands((1, kh, kh, cin), (kh, kh, cin, 2))
        reference.check_q_config("conv2d", w.shape)  # the cap itself is allowed
        bias = np.array([-total + 3, -total - 5], dtype=np.int64)
        assert _accumulated("conv2d", x, w, bias, (1, 1), VALID) == [[3, -5]] * 2

    dw_acc = -(255**2) * k * k
    x, w = _cap_operands((1, k, k, 3), (k, k, 3, 1))
    reference.check_q_config("depthwise_conv2d", w.shape)
    bias = np.array([-dw_acc + 1, -dw_acc + 2, -dw_acc - 4], dtype=np.int64)
    got = _accumulated("depthwise_conv2d", x, w, bias, (1, 1), VALID)
    assert got == [[1, 2, -4]] * 2

    for rows in (c, SPLIT_K):
        fc_acc = -(255**2) * rows
        x, w = _cap_operands((1, 1, 1, rows), (1, 1, rows, 2))
        bias = np.array([-fc_acc + 5, -fc_acc - 7], dtype=np.int64)
        assert _accumulated("fully_connected", x, w, bias) == [[5, -7]] * 2


@pytest.mark.parametrize("kind, x_shape, w_shape", [
    ("conv2d", (1, 4, 4, 3), (3, 3, 3, 4)),
    ("depthwise_conv2d", (1, 4, 4, 4), (3, 3, 4, 1)),
    ("fully_connected", (1, 1, 1, 4), (1, 1, 4, 4)),
], ids=["conv", "depthwise", "fc"])
def test_quantized_kernels_reject_a_bias_of_the_wrong_length(kind, x_shape, w_shape):
    """A 1-element bias on 4 output channels is refused, as the reference does."""
    qp = QuantParams(0.1, 0)
    x = Tensor(np.zeros(x_shape, dtype=np.int8), INT8Q, qp)
    w = Tensor(np.ones(w_shape, dtype=np.int8), INT8Q, qp)
    geometry = () if kind == "fully_connected" else ((1, 1), SAME)
    for module in (reference, quantized):
        with pytest.raises(ShapeError, match="bias length 1 != channels 4"):
            module.ACCUMULATORS[kind](x, w, np.array([3]), *geometry)


def test_qrelu_clamps_at_zero_point():
    qp = QuantParams(0.1, -10)
    codes = np.array([-128, -11, -10, -9, 0, 127], dtype=np.int8)
    t = Tensor(codes.reshape(1, 1, 1, 6), INT8Q, qp)
    got = reference.qrelu(t, qp)
    assert got.data.reshape(-1).tolist() == [-10, -10, -10, -9, 0, 127]


def test_qadd_matches_dequantized_sum():
    _, a = _quantized_pair((1, 3, 3, 2))
    _, b = _quantized_pair((1, 3, 3, 2))
    out_qp = qparams_from_range(-2.0, 2.0)
    got = reference.qadd(a, b, out_qp)
    want = dequantize(a).data + dequantize(b).data
    err = np.abs(dequantize(got).data - want)
    assert err.max() <= out_qp.scale


def test_quantized_conv_rejects_oversize_config():
    qp = QuantParams(0.1, 0)
    x = Tensor(np.zeros((1, 12, 12, 1), dtype=np.int8), INT8Q, qp)
    w = Tensor(np.zeros((11, 11, 1, 1), dtype=np.int8), INT8Q, qp)
    for kernels in QSETS:
        with pytest.raises(QuantizationError, match="got 11x11x1"):
            kernels.apply("conv2d", INT8Q, [x], [w, None], {"out_qp": qp})


def test_quantize_bias_uses_accumulator_scale():
    b = Tensor(np.array([0.5, -0.25, 0.0, 1.0]).reshape(1, 1, 1, 4)
               .astype(np.float32))
    got = reference.quantize_bias(b, QuantParams(0.5, 0), QuantParams(0.1, 0))
    # accumulator scale 0.05: 0.5 -> 10, -0.25 -> -5, 0 -> 0, 1.0 -> 20
    assert got.tolist() == [10, -5, 0, 20]


def test_requantize_round_half_away():
    acc = np.array([5, -5], dtype=np.int64)
    # mult = (1.0 * 1.0) / 10 = 0.1 -> 0.5 and -0.5 round away from zero
    got = reference.requantize(acc, QuantParams(1.0, 0), QuantParams(1.0, 0),
                               QuantParams(10.0, 0))
    assert got.tolist() == [1, -1]


def test_requantize_same_codes_from_int64_and_float64_accumulators():
    rng = np.random.default_rng(11)
    acc = np.concatenate([
        rng.integers(-(2**33), 2**33, 10**5),
        rng.integers(-5000, 5000, 10**5),
        [0, 1, -1, 2**52, -(2**52)],
    ]).astype(np.int64)
    for out_s, out_zp in ((10.0, 0), (0.37, -100), (1.0e-4, 127), (2.0**-20, 5)):
        qps = QuantParams(0.5, 3), QuantParams(0.25, -7), QuantParams(out_s, out_zp)
        from_int = reference.requantize(acc, *qps)
        assert np.array_equal(from_int, reference.requantize(acc.astype(np.float64), *qps))
        mult = qps[0].scale * qps[1].scale / out_s
        x = acc.astype(np.float64) * mult
        want = np.clip(oracles.sign_floor_round(x) + out_zp, -128, 127)
        assert np.array_equal(from_int, want.astype(np.int8))
