"""Independent naive oracles used to check the production kernels.

Everything here is written as straight loops over explicitly pre-padded
arrays, with no code shared with the library's kernel implementations, so
an agreement between the two is meaningful.  Also holds hand-computed
layer tables for the multiply-add counts of the two classification
networks.
"""

import math

import numpy as np


def _out_size(n, k, stride, padding):
    if padding == "same":
        return math.ceil(n / stride)
    return (n - k) // stride + 1


def _pad_input(x, kh, kw, sh, sw, padding, value=0.0):
    """Explicit zero (or value) padding; extra pad goes bottom/right."""
    if padding == "valid":
        return x, 0, 0
    n, h, w, c = x.shape
    oh, ow = math.ceil(h / sh), math.ceil(w / sw)
    ph = max((oh - 1) * sh + kh - h, 0)
    pw = max((ow - 1) * sw + kw - w, 0)
    pt, pl = ph // 2, pw // 2
    padded = np.full((n, h + ph, w + pw, c), value, dtype=np.float64)
    padded[:, pt:pt + h, pl:pl + w, :] = x
    return padded, pt, pl


def conv2d_oracle(x, w, b, stride, padding):
    sh, sw = stride
    kh, kw, cin, cout = w.shape
    n, h, wi, _ = x.shape
    oh, ow = _out_size(h, kh, sh, padding), _out_size(wi, kw, sw, padding)
    xp, _, _ = _pad_input(x.astype(np.float64), kh, kw, sh, sw, padding)
    out = np.zeros((n, oh, ow, cout))
    for ni in range(n):
        for i in range(oh):
            for j in range(ow):
                for co in range(cout):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            for ci in range(cin):
                                acc += xp[ni, i * sh + u, j * sw + v, ci] * \
                                       w[u, v, ci, co]
                    out[ni, i, j, co] = acc + b[0, 0, 0, co]
    return out


def depthwise_oracle(x, w, b, stride, padding):
    sh, sw = stride
    kh, kw, c, _ = w.shape
    n, h, wi, _ = x.shape
    oh, ow = _out_size(h, kh, sh, padding), _out_size(wi, kw, sw, padding)
    xp, _, _ = _pad_input(x.astype(np.float64), kh, kw, sh, sw, padding)
    out = np.zeros((n, oh, ow, c))
    for ni in range(n):
        for i in range(oh):
            for j in range(ow):
                for ci in range(c):
                    acc = 0.0
                    for u in range(kh):
                        for v in range(kw):
                            acc += xp[ni, i * sh + u, j * sw + v, ci] * \
                                   w[u, v, ci, 0]
                    out[ni, i, j, ci] = acc + b[0, 0, 0, ci]
    return out


def fc_oracle(x, w, b):
    n = x.shape[0]
    rows = x.shape[1] * x.shape[2] * x.shape[3]
    cols = w.shape[3]
    flat = x.astype(np.float64).reshape(n, rows)
    wm = w.astype(np.float64).reshape(rows, cols)
    out = np.zeros((n, 1, 1, cols))
    for ni in range(n):
        for co in range(cols):
            acc = 0.0
            for r in range(rows):
                acc += flat[ni, r] * wm[r, co]
            out[ni, 0, 0, co] = acc + b[0, 0, 0, co]
    return out


def pool_oracle(x, kind, window, stride, padding):
    n, h, w, c = x.shape
    if window is None:
        return x.astype(np.float64).mean(axis=(1, 2), keepdims=True)
    kh, kw = window
    sh, sw = stride if stride is not None else window
    wi = w
    oh, ow = _out_size(h, kh, sh, padding), _out_size(wi, kw, sw, padding)
    if padding == "same":
        ph = max((oh - 1) * sh + kh - h, 0)
        pw = max((ow - 1) * sw + kw - wi, 0)
        pt, pl = ph // 2, pw // 2
    else:
        pt = pl = 0
    out = np.zeros((n, oh, ow, c))
    for ni in range(n):
        for i in range(oh):
            for j in range(ow):
                for ci in range(c):
                    vals = []
                    for u in range(kh):
                        for v in range(kw):
                            r, s = i * sh + u - pt, j * sw + v - pl
                            if 0 <= r < h and 0 <= s < wi:
                                vals.append(float(x[ni, r, s, ci]))
                    out[ni, i, j, ci] = max(vals) if kind == "max" \
                        else sum(vals) / len(vals)
    return out


def resize_bilinear_oracle(x, oh, ow):
    n, h, w, c = x.shape
    out = np.zeros((n, oh, ow, c))
    for ni in range(n):
        for i in range(oh):
            for j in range(ow):
                sy = i * (h / oh)
                sx = j * (w / ow)
                y0, x0 = int(math.floor(sy)), int(math.floor(sx))
                y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
                fy, fx = sy - y0, sx - x0
                for ci in range(c):
                    top = x[ni, y0, x0, ci] * (1 - fx) + x[ni, y0, x1, ci] * fx
                    bot = x[ni, y1, x0, ci] * (1 - fx) + x[ni, y1, x1, ci] * fx
                    out[ni, i, j, ci] = top * (1 - fy) + bot * fy
    return out


def softmax_oracle(x):
    x = x.astype(np.float64)
    out = np.zeros_like(x)
    n, h, w, c = x.shape
    for ni in range(n):
        for i in range(h):
            for j in range(w):
                row = x[ni, i, j, :]
                e = np.exp(row - row.max())
                out[ni, i, j, :] = e / e.sum()
    return out


def round_half_away_oracle(v):
    return math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)


def sign_floor_round(x):
    """Round half away from zero as sign(x) * floor(|x| + 0.5), elementwise."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize_oracle(x, scale, zero_point):
    out = np.zeros(x.shape, dtype=np.int8)
    flat_in, flat_out = x.ravel(), out.ravel()
    for i, v in enumerate(flat_in):
        q = round_half_away_oracle(float(v) / scale) + zero_point
        flat_out[i] = max(-128, min(127, q))
    return flat_out.reshape(x.shape)


def dequantize_oracle(q, scale, zero_point):
    return (q.astype(np.float64) - zero_point) * scale


# --- hand-computed multiply-add layer tables ------------------------------

# MobileNet-V1 at 224x224, width 1.0.  Rows: (out_h, kh*kw, cin, cout) for
# regular convs, ("dw", out_h, kh*kw, channels) for depthwise.
MOBILENET_V1_224_TABLE = [
    ("conv", 112, 9, 3, 32),
    ("dw", 112, 9, 32), ("conv", 112, 1, 32, 64),
    ("dw", 56, 9, 64), ("conv", 56, 1, 64, 128),
    ("dw", 56, 9, 128), ("conv", 56, 1, 128, 128),
    ("dw", 28, 9, 128), ("conv", 28, 1, 128, 256),
    ("dw", 28, 9, 256), ("conv", 28, 1, 256, 256),
    ("dw", 14, 9, 256), ("conv", 14, 1, 256, 512),
    ("dw", 14, 9, 512), ("conv", 14, 1, 512, 512),
    ("dw", 14, 9, 512), ("conv", 14, 1, 512, 512),
    ("dw", 14, 9, 512), ("conv", 14, 1, 512, 512),
    ("dw", 14, 9, 512), ("conv", 14, 1, 512, 512),
    ("dw", 14, 9, 512), ("conv", 14, 1, 512, 512),
    ("dw", 7, 9, 512), ("conv", 7, 1, 512, 1024),
    ("dw", 7, 9, 1024), ("conv", 7, 1, 1024, 1024),
    ("fc", 1024, 1000),
]


def mobilenet_v1_macs():
    total = 0
    for row in MOBILENET_V1_224_TABLE:
        if row[0] == "conv":
            _, s, kk, cin, cout = row
            total += s * s * kk * cin * cout
        elif row[0] == "dw":
            _, s, kk, c = row
            total += s * s * kk * c
        else:
            total += row[1] * row[2]
    return total


def _iv3_a_rows(s, cin, pf):
    return [
        (s, s, 1, 1, cin, 64),
        (s, s, 1, 1, cin, 48), (s, s, 5, 5, 48, 64),
        (s, s, 1, 1, cin, 64), (s, s, 3, 3, 64, 96), (s, s, 3, 3, 96, 96),
        (s, s, 1, 1, cin, pf),
    ]


def _iv3_c_rows(s, cin, c7):
    return [
        (s, s, 1, 1, cin, 192),
        (s, s, 1, 1, cin, c7), (s, s, 1, 7, c7, c7), (s, s, 7, 1, c7, 192),
        (s, s, 1, 1, cin, c7), (s, s, 7, 1, c7, c7), (s, s, 1, 7, c7, c7),
        (s, s, 7, 1, c7, c7), (s, s, 1, 7, c7, 192),
        (s, s, 1, 1, cin, 192),
    ]


def _iv3_e_rows(s, cin):
    return [
        (s, s, 1, 1, cin, 320),
        (s, s, 1, 1, cin, 384), (s, s, 1, 3, 384, 384), (s, s, 3, 1, 384, 384),
        (s, s, 1, 1, cin, 448), (s, s, 3, 3, 448, 384),
        (s, s, 1, 3, 384, 384), (s, s, 3, 1, 384, 384),
        (s, s, 1, 1, cin, 192),
    ]


def inception_v3_299_table():
    """Conv rows (oh, ow, kh, kw, cin, cout) for a 299x299 input.

    Spatial sizes follow the canonical valid-padding stem: 149, 147, 73,
    71, 35, 17, 8.  Concat widths: A blocks 256/288/288, reduction 768,
    C blocks 768, reduction 1280, E blocks 2048.
    """
    rows = [
        (149, 149, 3, 3, 3, 32),
        (147, 147, 3, 3, 32, 32),
        (147, 147, 3, 3, 32, 64),
        (73, 73, 1, 1, 64, 80),
        (71, 71, 3, 3, 80, 192),
    ]
    rows += _iv3_a_rows(35, 192, 32)
    rows += _iv3_a_rows(35, 256, 64)
    rows += _iv3_a_rows(35, 288, 64)
    # reduction 35 -> 17
    rows += [
        (17, 17, 3, 3, 288, 384),
        (35, 35, 1, 1, 288, 64), (35, 35, 3, 3, 64, 96),
        (17, 17, 3, 3, 96, 96),
    ]
    for c7 in (128, 128, 160, 192):
        rows += _iv3_c_rows(17, 768, c7)
    # auxiliary head off the 17x17 grid (5x5 stride-3 same pool -> 6x6)
    rows += [
        (6, 6, 1, 1, 768, 128),
        (6, 6, 3, 3, 128, 768),
    ]
    # reduction 17 -> 8
    rows += [
        (17, 17, 1, 1, 768, 192), (8, 8, 3, 3, 192, 320),
        (17, 17, 1, 1, 768, 192), (17, 17, 1, 7, 192, 192),
        (17, 17, 7, 1, 192, 192), (8, 8, 3, 3, 192, 192),
    ]
    rows += _iv3_e_rows(8, 1280)
    rows += _iv3_e_rows(8, 2048)
    return rows


def inception_v3_macs():
    total = sum(oh * ow * kh * kw * cin * cout
                for oh, ow, kh, kw, cin, cout in inception_v3_299_table())
    total += 768 * 1000  # auxiliary classifier fc
    total += 2048 * 1000  # main classifier fc
    return total
