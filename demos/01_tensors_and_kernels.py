"""Tensors, int8 quantization, and the three kernel backends.

Run: python3 demos/01_tensors_and_kernels.py
"""

import numpy as np

from inferbench.kernels import optimized, quantized, reference
from inferbench.tensor import (
    FLOAT32,
    INT8Q,
    Tensor,
    dequantize,
    qparams_from_range,
    quantize,
)

rng = np.random.default_rng(0)

# Everything is a rank-4 NHWC tensor, including weights and biases.
x = Tensor(rng.uniform(0, 1, (1, 8, 8, 3)).astype(np.float32))
w = Tensor(rng.uniform(-0.2, 0.2, (3, 3, 3, 4)).astype(np.float32))
b = Tensor(rng.uniform(-0.1, 0.1, (1, 1, 1, 4)).astype(np.float32))
print("input:", x)

# The reference backend is the correctness oracle; the optimized backend
# computes the same convolution with tiled im2col + GEMM.
ref = reference.make_kernel_set()
opt = optimized.make_kernel_set()
attrs = {"stride": (1, 1), "padding": "same"}
y_ref = ref.apply("conv2d", FLOAT32, [x], [w, b], attrs)
y_opt = opt.apply("conv2d", FLOAT32, [x], [w, b], attrs)
print("conv output:", y_ref)
print("max deviation reference vs optimized:",
      np.abs(y_ref.data - y_opt.data).max())

# Asymmetric int8: pick (scale, zero_point) covering a range, quantize,
# and run the integer convolution.  The bias stays real-valued and is
# converted to int32 at the accumulator scale inside the kernel.
xq = quantize(x, qparams_from_range(0.0, 1.0))
wq = quantize(w, qparams_from_range(-0.2, 0.2))
out_qp = qparams_from_range(float(y_ref.data.min()), float(y_ref.data.max()))
qnt = quantized.make_kernel_set()
y_q = qnt.apply("conv2d", INT8Q, [xq], [wq, b], {**attrs, "out_qp": out_qp})
print("quantized output codes:", y_q)
print("max dequantized error vs float:",
      np.abs(dequantize(y_q).data - y_ref.data).max(),
      "(one quantum =", out_qp.scale, ")")
