import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferbench.errors import QuantizationError, ShapeError
from inferbench.tensor import (
    FLOAT32,
    INT8Q,
    QuantParams,
    Tensor,
    dequantize,
    qparams_from_range,
    quantize,
    round_half_away,
)

from oracles import (
    dequantize_oracle,
    quantize_oracle,
    round_half_away_oracle,
    sign_floor_round,
)


def test_tensor_requires_rank4():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((3, 3)))


def test_tensor_rejects_zero_extent():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((1, 0, 3, 3)))


def test_float_tensor_rejects_qparams():
    with pytest.raises(QuantizationError):
        Tensor(np.zeros((1, 2, 2, 1)), FLOAT32, QuantParams(0.1, 0))


def test_int8_tensor_requires_qparams():
    with pytest.raises(QuantizationError):
        Tensor(np.zeros((1, 2, 2, 1), dtype=np.int8), INT8Q)


def test_nbytes_by_dtype():
    f = Tensor(np.zeros((1, 2, 3, 4)))
    q = Tensor(np.zeros((1, 2, 3, 4), dtype=np.int8), INT8Q, QuantParams(0.1, 0))
    assert f.nbytes == 24 * 4
    assert q.nbytes == 24


def test_qparams_validation():
    with pytest.raises(QuantizationError):
        QuantParams(0.0, 0)
    with pytest.raises(QuantizationError):
        QuantParams(-1.0, 0)
    with pytest.raises(QuantizationError):
        QuantParams(0.1, 200)


def test_round_half_away_matches_oracle():
    vals = [-2.5, -1.5, -0.5, -0.4, 0.0, 0.4, 0.5, 1.5, 2.5, 7.49, -7.49]
    got = round_half_away(np.array(vals))
    want = [round_half_away_oracle(v) for v in vals]
    assert got.tolist() == want


def test_round_half_away_matches_oracle_and_sign_floor_form():
    halves = np.arange(300) + 0.5
    halves = np.concatenate([halves, -halves])
    big = 2.0**52 + np.arange(-4, 5) / 2
    big = np.concatenate([big, big + 1, 2.0**53 + np.arange(0, 9, 2)])
    rng = np.random.default_rng(5)
    vals = np.concatenate([
        halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
        [0.0, -0.0, 0.49999999999999994, -0.49999999999999994], big, -big,
        rng.standard_normal(10**6) * 2.0 ** rng.integers(0, 30, 10**6),
    ])
    got = round_half_away(vals)
    assert np.array_equal(got, sign_floor_round(vals))
    want = np.array([round_half_away_oracle(v) for v in vals.tolist()], dtype=np.float64)
    assert np.array_equal(got, want)


def test_zero_point_dequantizes_to_zero():
    qp = QuantParams(0.037, 5)
    t = Tensor(np.full((1, 1, 1, 4), qp.zero_point, dtype=np.int8), INT8Q, qp)
    assert np.all(dequantize(t).data == 0.0)


def test_quantize_matches_oracle():
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 3, size=(2, 4, 5, 3)).astype(np.float32)
    qp = QuantParams(0.02, -30)
    got = quantize(Tensor(x), qp).data
    want = quantize_oracle(x, qp.scale, qp.zero_point)
    assert np.array_equal(got, want)


def test_dequantize_matches_oracle():
    rng = np.random.default_rng(1)
    codes = rng.integers(-128, 128, size=(1, 3, 3, 2), dtype=np.int8)
    qp = QuantParams(0.05, 7)
    t = Tensor(codes, INT8Q, qp)
    want = dequantize_oracle(codes, qp.scale, qp.zero_point)
    np.testing.assert_allclose(dequantize(t).data, want, rtol=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-100, 99, allow_nan=False),
    width=st.floats(0.01, 200, allow_nan=False),
)
def test_qparams_from_range_covers_range(lo, width):
    hi = lo + width
    qp = qparams_from_range(lo, hi)
    # zero is representable and the range edges quantize without saturating
    assert -128 <= qp.zero_point <= 127
    lo0, hi0 = min(lo, 0.0), max(hi, 0.0)
    assert qp.scale * 255 >= (hi0 - lo0) * (1 - 1e-9)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=1,
                max_size=32))
def test_quantize_roundtrip_error_bounded(vals):
    x = np.array(vals, dtype=np.float32).reshape(1, 1, 1, -1)
    qp = qparams_from_range(float(x.min()), float(x.max()))
    back = dequantize(quantize(Tensor(x), qp)).data
    assert np.max(np.abs(back - x)) <= qp.scale * 0.5 + 1e-7


def test_degenerate_range_gets_identity_params():
    qp = qparams_from_range(0.0, 0.0)
    assert qp.scale == 1.0 and qp.zero_point == 0
