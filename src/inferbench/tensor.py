"""Dense NHWC tensors in float32 or asymmetric int8 with quantization params.

All activations and weights in the library are rank-4 tensors laid out as
(batch, height, width, channels).  Fully-connected vectors are carried as
(1, 1, 1, n).  Quantized tensors store int8 codes plus a per-tensor
(scale, zero_point) pair; zero is always exactly representable because
dequantize(zero_point) == 0 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuantizationError, ShapeError

FLOAT32 = "float32"
INT8Q = "int8q"

DTYPE_WIDTH = {FLOAT32: 4, INT8Q: 1}


@dataclass(frozen=True)
class QuantParams:
    """Per-tensor asymmetric quantization: real = scale * (q - zero_point)."""

    scale: float
    zero_point: int

    def __post_init__(self):
        if not (self.scale > 0):
            raise QuantizationError(f"scale must be positive, got {self.scale}")
        if not (-128 <= self.zero_point <= 127):
            raise QuantizationError(
                f"zero_point must lie in [-128, 127], got {self.zero_point}"
            )


class Tensor:
    """A rank-4 NHWC tensor backed by a numpy array.

    Values are immutable by convention: kernels never write into their
    inputs, so tensors are freely shareable across threads.
    """

    __slots__ = ("shape", "dtype", "data", "qparams")

    def __init__(self, data, dtype=FLOAT32, qparams=None):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"tensors are rank-4 NHWC, got rank {arr.ndim}")
        if any(e < 1 for e in arr.shape):
            raise ShapeError(f"all extents must be >= 1, got {arr.shape}")
        if dtype == FLOAT32:
            if qparams is not None:
                raise QuantizationError("float32 tensors carry no qparams")
            arr = np.ascontiguousarray(arr, dtype=np.float32)
        elif dtype == INT8Q:
            if qparams is None:
                raise QuantizationError("int8q tensors require qparams")
            arr = np.ascontiguousarray(arr, dtype=np.int8)
        else:
            raise ValueError(f"unknown dtype {dtype!r}")
        self.shape = tuple(int(e) for e in arr.shape)
        self.dtype = dtype
        self.data = arr
        self.qparams = qparams

    @property
    def size(self):
        return int(self.data.size)

    @property
    def nbytes(self):
        """Payload bytes: element count times dtype width."""
        return self.size * DTYPE_WIDTH[self.dtype]

    def __repr__(self):
        qp = f", qparams={self.qparams}" if self.qparams else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{qp})"


def round_half_away(x, out=None):
    """Round to nearest with halves away from zero (all languages agree).

    ``x + copysign(0.5, x)`` rounds exactly as ``|x| + 0.5`` does, with the
    sign of ``x``, so this equals ``sign(x) * floor(|x| + 0.5)`` for every
    float.  ``out`` may be ``x`` itself, to round a buffer in place.
    """
    x = np.asarray(x)
    return np.trunc(np.add(x, np.copysign(0.5, x), out=out), out=out)


def quantize(t: Tensor, qp: QuantParams) -> Tensor:
    """Map a float32 tensor to int8 codes under ``qp``."""
    if t.dtype != FLOAT32:
        raise QuantizationError("quantize expects a float32 tensor")
    q = round_half_away(t.data.astype(np.float64) / qp.scale) + qp.zero_point
    q = np.clip(q, -128, 127)
    return Tensor(q.astype(np.int8), dtype=INT8Q, qparams=qp)


def dequantize(t: Tensor) -> Tensor:
    """Map int8 codes back to real values: scale * (q - zero_point)."""
    if t.dtype != INT8Q:
        raise QuantizationError("dequantize expects an int8q tensor")
    qp = t.qparams
    x = qp.scale * (t.data.astype(np.float32) - np.float32(qp.zero_point))
    return Tensor(x.astype(np.float32))


def qparams_from_range(lo: float, hi: float) -> QuantParams:
    """Choose asymmetric qparams covering [lo, hi] with zero representable.

    The range is widened to include 0, the scale spreads it over the 255
    available codes, and the zero point is nudged to an integer.
    """
    lo = min(float(lo), 0.0)
    hi = max(float(hi), 0.0)
    if hi == lo:
        return QuantParams(scale=1.0, zero_point=0)
    scale = (hi - lo) / 255.0
    zp = int(round(-128 - lo / scale))
    zp = max(-128, min(127, zp))
    return QuantParams(scale=scale, zero_point=zp)
