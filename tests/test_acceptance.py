"""Acceptance gate: one test per shipped claim, one printed verdict line each.

Tolerances are pinned here and nowhere else.  Every numeric target is
checked against an independent oracle from oracles.py or a hand-computed
constant, never against the implementation's own output.
"""

import json
import time

import numpy as np

from inferbench.cli import main as cli_main
from inferbench.dispatch import (
    OPTIMIZED,
    QUANTIZED,
    REFERENCE,
    BackendRegistry,
    default_registry,
)
from inferbench.graph import (
    INPUT_ID,
    GraphSpec,
    OperatorNode,
    count_macs,
    count_params,
    execute,
    peak_activation_bytes,
    validate,
)
from inferbench.kernels import KernelSet, optimized, quantized, reference
from inferbench.kernels.shapes import SAME, VALID
from inferbench.runner import (
    load_suite,
    predict_probe_bytes,
    preferred_backend,
    run_memory_probe,
    run_test,
)
from inferbench.scoring import (
    aggregate_score,
    calibrate_profile,
    load_profile,
)
from inferbench.tensor import (
    FLOAT32,
    INT8Q,
    Tensor,
    dequantize,
    qparams_from_range,
    quantize,
)
from inferbench.workloads import (
    _make_spec,
    generate_input,
    instantiate,
    weight_bytes,
)
from inferbench.zoo import BUILDERS, WeightStream
from inferbench import aggregate

import oracles
from clock import SimulatedClock


def _verdict(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


# --- 1: kernel oracle suite ----------------------------------------------


def test_criterion_01_kernel_oracle_suite():
    """>= 200 randomized shapes, 1e-6 relative float, 2 quanta quantized."""
    rng = np.random.default_rng(2024)
    ref = reference.make_kernel_set()
    opt = optimized.make_kernel_set()
    qnt = quantized.make_kernel_set()
    t0 = time.perf_counter()
    checked = 0

    def rand(shape, lo=-1.0, hi=1.0):
        return rng.uniform(lo, hi, size=shape).astype(np.float32)

    for case in range(200):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        kh = int(rng.integers(1, min(h, 3) + 1))
        kw = int(rng.integers(1, min(w, 3) + 1))
        s = int(rng.integers(1, 3))
        padding = SAME if rng.integers(2) else VALID
        op = ("conv2d", "depthwise_conv2d", "fully_connected", "pool",
              "resize_bilinear")[case % 5]
        if op == "conv2d":
            x, wt, b = rand((1, h, w, cin)), rand((kh, kw, cin, cout)), \
                rand((1, 1, 1, cout))
            want = oracles.conv2d_oracle(x, wt, b, (s, s), padding)
            attrs = {"stride": (s, s), "padding": padding}
            for ks in (ref, opt):
                got = ks.apply(op, FLOAT32, [Tensor(x)],
                               [Tensor(wt), Tensor(b)], attrs)
                np.testing.assert_allclose(got.data, want, rtol=1e-6, atol=1e-6)
            # quantized path against the oracle on its dequantized inputs
            xq = quantize(Tensor(x), qparams_from_range(-1, 1))
            wq = quantize(Tensor(wt), qparams_from_range(-1, 1))
            wantq = oracles.conv2d_oracle(dequantize(xq).data,
                                          dequantize(wq).data, b, (s, s),
                                          padding)
            out_qp = qparams_from_range(float(wantq.min()), float(wantq.max()))
            for ks in (ref, qnt):
                got = ks.apply(op, INT8Q, [xq], [wq, Tensor(b)],
                               {**attrs, "out_qp": out_qp})
                err = np.abs(dequantize(got).data - wantq).max()
                assert err <= 2 * out_qp.scale + 1e-7
        elif op == "depthwise_conv2d":
            x, wt, b = rand((1, h, w, cin)), rand((kh, kw, cin, 1)), \
                rand((1, 1, 1, cin))
            want = oracles.depthwise_oracle(x, wt, b, (s, s), padding)
            attrs = {"stride": (s, s), "padding": padding}
            for ks in (ref, opt):
                got = ks.apply(op, FLOAT32, [Tensor(x)],
                               [Tensor(wt), Tensor(b)], attrs)
                np.testing.assert_allclose(got.data, want, rtol=1e-6, atol=1e-6)
        elif op == "fully_connected":
            cols = int(rng.integers(1, 9))
            x, wt, b = rand((1, h, w, cin)), rand((1, 1, h * w * cin, cols)), \
                rand((1, 1, 1, cols))
            want = oracles.fc_oracle(x, wt, b)
            for ks in (ref, opt):
                got = ks.apply(op, FLOAT32, [Tensor(x)],
                               [Tensor(wt), Tensor(b)], {})
                np.testing.assert_allclose(got.data, want, rtol=1e-6, atol=1e-6)
        elif op == "pool":
            kind = "max" if rng.integers(2) else "avg"
            x = rand((1, h, w, cin))
            attrs = {"kind": kind, "window": (kh, kw), "pool_stride": (s, s),
                     "padding": padding}
            want = oracles.pool_oracle(x, kind, (kh, kw), (s, s), padding)
            for ks in (ref, opt):
                got = ks.apply(op, FLOAT32, [Tensor(x)], [], attrs)
                np.testing.assert_allclose(got.data, want, rtol=1e-6, atol=1e-6)
        else:
            oh, ow = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            x = rand((1, h, w, cin))
            want = oracles.resize_bilinear_oracle(x, oh, ow)
            for ks in (ref, opt):
                got = ks.apply(op, FLOAT32, [Tensor(x)], [],
                               {"out_h": oh, "out_w": ow})
                np.testing.assert_allclose(got.data, want, rtol=1e-6, atol=1e-6)
        checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(1, checked >= 200 and elapsed < 60.0,
             f"kernel oracle suite: {checked} shapes in {elapsed:.1f}s")


# --- 2: MAC analysis ------------------------------------------------------


def test_criterion_02_mac_analysis():
    mob = validate(BUILDERS["mobilenet_v1"](224, 224, WeightStream(42)))
    iv3 = validate(BUILDERS["inception_v3"](299, 299, WeightStream(42)))
    mob_macs, iv3_macs = count_macs(mob), count_macs(iv3)
    ok = (
        abs(mob_macs - 569e6) / 569e6 < 0.05
        and abs(iv3_macs - 5000e6) / 5000e6 < 0.15
        and mob_macs == oracles.mobilenet_v1_macs()
        and iv3_macs == oracles.inception_v3_macs()
    )
    _verdict(2, ok, f"MACs: mobilenet {mob_macs:,} (target 569M +-5%), "
             f"inception {iv3_macs:,} (target 5,000M +-15%), "
             "both equal to the layer-table oracles")


# --- 3: parameter counts --------------------------------------------------


def test_criterion_03_parameter_counts():
    def params(builder, size=64):
        return count_params(validate(BUILDERS[builder](size, size,
                                                       WeightStream(42))))

    t1 = params("mobilenet_v1")
    t3 = params("inception_resnet_v1", 96)
    t4 = params("srcnn")
    t5 = params("vdsr")
    t6 = params("srgan_generator")
    t7 = params("icnet")
    t8 = params("dped")
    vdsr_derived = 631_299  # 1,792 + 17 * 36,928 + 1,731
    ok = (
        abs(t1 - 4.2e6) / 4.2e6 < 0.03
        and abs(t3 - 22.8e6) / 22.8e6 < 0.05
        and abs(t6 - 1.5e6) / 1.5e6 < 0.10
        and abs(t7 - 6.7e6) / 6.7e6 < 0.10
        and abs(t8 - 400e3) / 400e3 < 0.10
        and t4 == 69_251
        and abs(t5 - vdsr_derived) / vdsr_derived < 0.005
    )
    _verdict(3, ok, f"params: t1={t1:,} t3={t3:,} t4={t4:,} t5={t5:,} "
             f"t6={t6:,} t7={t7:,} t8={t8:,}")


# --- 4: quantization size ratio ------------------------------------------


def test_criterion_04_quantized_weight_size():
    graph, spec = instantiate(1, scale=0.2)
    h, w = spec.input_resolution
    fg = validate(BUILDERS["mobilenet_v1"](h, w, WeightStream(spec.seed)))
    fb, qb = weight_bytes(fg), weight_bytes(graph)
    ok = abs(qb - fb / 4) / (fb / 4) < 0.02
    _verdict(4, ok, f"int8 weights {qb:,} B vs float/4 = {fb // 4:,} B")


# --- 5: runtime-ratio analysis -------------------------------------------


def test_criterion_05_mac_ratio_checks():
    t5 = validate(BUILDERS["vdsr"](192, 192, WeightStream(42)))
    t6 = validate(BUILDERS["srgan_generator"](512, 512, WeightStream(42)))
    t8 = validate(BUILDERS["dped"](128, 192, WeightStream(42)))
    per_pixel = (count_macs(t5) / (192 * 192)) / (count_macs(t8) / (128 * 192))
    whole = count_macs(t6) / count_macs(t8)
    ok = 1.4 <= per_pixel <= 1.75 and 1.7 <= whole <= 3.0
    _verdict(5, ok, f"per-pixel t5/t8 = {per_pixel:.3f} (1.4..1.75), "
             f"whole-image t6/t8 = {whole:.3f} (1.7..3.0)")


# --- 6: memory probe ------------------------------------------------------


def test_criterion_06_memory_probe():
    cap = 256 * 2**20
    # analytic sweep prediction of the largest passing size
    k, expected = 1, 0
    while predict_probe_bytes(100 * k) <= cap:
        expected = k
        k += 1
    probe = run_memory_probe(optimized.make_kernel_set(), mem_cap_bytes=cap)
    exact = probe.max_resolution_units == expected

    small_cap = int(predict_probe_bytes(300) * 1.1)
    small = run_memory_probe(optimized.make_kernel_set(),
                             mem_cap_bytes=small_cap)
    doubled = run_memory_probe(optimized.make_kernel_set(),
                               mem_cap_bytes=2 * small_cap)
    monotone = doubled.max_resolution_units >= small.max_resolution_units

    # peak bytes fit c * L^2 with < 1% residual over 100..500 px
    sides = np.array([100, 200, 300, 400, 500], dtype=np.float64)
    peaks = np.array([predict_probe_bytes(int(s)) for s in sides],
                     dtype=np.float64)
    c = (peaks / sides**2).mean()
    residual = np.abs(peaks - c * sides**2) / peaks
    quad = residual.max() < 0.01
    _verdict(6, exact and monotone and quad,
             f"probe = {probe.max_resolution_units} units (predicted "
             f"{expected}), cap doubling {small.max_resolution_units} -> "
             f"{doubled.max_resolution_units}, max c*L^2 residual "
             f"{residual.max():.2e}")


# --- 7: timing protocol ---------------------------------------------------


class _CostKernels:
    backend_id = "scripted"

    def __init__(self, clock, costs):
        self.clock, self.costs, self.i = clock, list(costs), 0

    def apply(self, op_kind, dtype, inputs, weights, attrs):
        self.clock.advance(self.costs[min(self.i, len(self.costs) - 1)])
        self.i += 1
        return inputs[0]


def test_criterion_07_timing_protocol():
    spec = _make_spec(4, 0.1, 42)
    h, w = spec.input_resolution
    graph = validate(GraphSpec(
        "pass", (1, h, w, 3), [OperatorNode("r", "relu", [INPUT_ID])], "r", {}
    ))
    # (costs_s, budget_s, images, passed, avg_ms)
    cases = [
        ([0.5], 1.0, 2, True, 500.0),
        ([2.0], 1.0, 1, False, 2000.0),
        ([1.0], 1.0, 1, True, 1000.0),
        ([0.25, 0.25, 0.125, 0.125, 0.125, 0.125], 1.0, 6, True, 125.0),
        ([0.25], 1.0, 4, True, 250.0),
        ([0.125], 1.0, 8, True, 125.0),
        ([0.5, 0.25], 1.0, 3, True, 250.0),
        ([0.75], 1.0, 2, True, 750.0),
        ([1.5, 0.1], 1.0, 1, False, 1500.0),
        ([0.0625], 1.0, 16, True, 62.5),
        ([1.0, 0.5], 2.0, 3, True, 500.0),
        # second image ends exactly at the budget: no third image starts
        ([0.5, 0.5, 0.25, 0.125], 1.0, 2, True, 500.0),
    ]
    ok = True
    for costs, budget, images, passed, avg in cases:
        clock = SimulatedClock()
        m = run_test(graph, spec, _CostKernels(clock, costs), budget, clock)
        ok &= (m.images_processed == images and m.passed == passed
               and abs(m.avg_ms - avg) < 1e-9)
    _verdict(7, ok and len(cases) >= 10,
             f"timing protocol exact on {len(cases)} scripted sequences")


# --- 8: dispatch ----------------------------------------------------------


def test_criterion_08_dispatch_fallback():
    reg = default_registry(1)
    opt = optimized.make_kernel_set()
    # drop a single op from an otherwise complete float backend
    crippled_ops = {k: v for k, v in opt.ops.items() if k[0] != "relu"}
    crippled = KernelSet("crippled", crippled_ops)
    reg2 = BackendRegistry()
    reg2.register(reference.make_kernel_set())
    reg2.register(crippled)
    ok = True
    for t in range(1, 10):
        graph, spec = instantiate(t, scale=0.1)
        decision = reg2.select_backend(graph, "crippled")
        ok &= decision.chosen_backend_id == REFERENCE
        # CPU-only tests refuse the accelerated backend even when preferred
        if t in (3, 6, 7):
            ok &= preferred_backend(t, spec, QUANTIZED) in (REFERENCE, OPTIMIZED)
            ok &= preferred_backend(t, spec, "auto") in (REFERENCE, OPTIMIZED)
    _verdict(8, ok, "single missing op forces reference fallback on all nine "
             "workloads; tests 3/6/7 never leave the CPU path")


# --- 9: scoring -----------------------------------------------------------


def test_criterion_09_scoring():
    from inferbench.runner import Measurement, MemoryProbeResult, SuiteResult

    def suite(avgs, units):
        s = SuiteResult(metadata={})
        for t, a in enumerate(avgs, start=1):
            s.measurements.append(Measurement(t, "x", 5, [a] * 5, a, True, 9.0))
        s.memory_probe = MemoryProbeResult(units, "configured_cap", 0)
        return s

    base = suite([80.0, 120.0, 60.0, 45.0, 90.0, 300.0, 25.0, 70.0], 6)
    profile = calibrate_profile(base, 1000.0)
    fixed = abs(aggregate_score(base, profile).total - 1000.0) < 1e-9
    double = suite([a / 2 for a in [80.0, 120.0, 60.0, 45.0, 90.0, 300.0,
                                    25.0, 70.0]], 12)
    linear = abs(aggregate_score(double, profile).total - 2000.0) < 1e-9
    failed = suite([80.0, 120.0, 60.0, 45.0, 90.0, 300.0, 25.0, 70.0], 6)
    failed.measurements[2].passed = False
    rep = aggregate_score(failed, profile)
    zero = rep.per_test_points[2] == 0.0 and 3 in rep.failed_tests
    _verdict(9, fixed and linear and zero,
             "calibration fixed point, linearity, failed test scores zero")


# --- 10: backend equivalence + speed -------------------------------------


def test_criterion_10_backend_equivalence_and_speed():
    reg = default_registry(4)
    worst = 0.0
    ok = True
    for t in range(1, 10):
        graph, spec = instantiate(t, scale=0.25)
        x = generate_input(spec, 1)
        if graph.dtype_profile == INT8Q:
            dev = reg.equivalence_check(graph, x, REFERENCE, QUANTIZED)
            ok &= dev == 0  # integer paths are bit-exact
        else:
            ya = execute(graph, x, reg.kernels(REFERENCE))
            yb = execute(graph, x, reg.kernels(OPTIMIZED))
            scale = max(1.0, float(np.abs(ya.data).max()))
            rel = float(np.abs(ya.data - yb.data).max()) / scale
            worst = max(worst, rel)
            ok &= rel <= 1e-4

    graph5, spec5 = instantiate(5, scale=0.5)
    x5 = generate_input(spec5, 1)
    t0 = time.perf_counter()
    execute(graph5, x5, reg.kernels(REFERENCE))
    t_ref = time.perf_counter() - t0
    t0 = time.perf_counter()
    execute(graph5, x5, reg.kernels(OPTIMIZED))
    t_opt = time.perf_counter() - t0
    speedup = t_ref / t_opt
    ok &= speedup >= 2.0
    _verdict(10, ok, f"max float deviation {worst:.2e} (<= 1e-4), int8 exact, "
             f"t5 speedup {speedup:.1f}x (>= 2x)")


# --- 11: aggregation ------------------------------------------------------


def test_criterion_11_aggregation():
    kept = aggregate.remove_outliers([100, 102, 98, 1000])
    mean_ok = sum(kept) / len(kept) == 100.0

    from test_aggregate import GOLDEN_CSV, PROFILE, _six_record_fixture

    rows = aggregate.rank(_six_record_fixture(), "device", PROFILE)
    golden_ok = aggregate.export(rows, "csv") == GOLDEN_CSV
    _verdict(11, mean_ok and golden_ok,
             "outlier fixture mean 100.0; six-record ranking matches the "
             "golden CSV byte-for-byte")


# --- 12: end-to-end -------------------------------------------------------


def test_criterion_12_end_to_end(tmp_path):
    t0 = time.perf_counter()
    results = tmp_path / "results.jsonl"
    profile = tmp_path / "profile.json"
    ranking = tmp_path / "ranking.csv"
    rc_run = cli_main(["run", "--scale", "0.25", "--threads", "4",
                       "--out", str(results), "--device", "e2e-host",
                       "--soc", "e2e-soc"])
    rc_cal = cli_main(["calibrate", str(results), "--total", "1000",
                       "--out", str(profile)])
    rc_score = cli_main(["score", str(results), "--profile", str(profile)])
    rc_rank = cli_main(["rank", str(results), "--profile", str(profile),
                        "--format", "csv", "--out", str(ranking)])
    elapsed = time.perf_counter() - t0

    ok = rc_run == rc_cal == rc_score == rc_rank == 0 and elapsed < 300.0
    # schema validity of every produced file
    suite = load_suite(results)
    ok &= [m.test_id for m in suite.measurements] == list(range(1, 9))
    ok &= suite.memory_probe is not None
    prof = load_profile(profile)
    ok &= abs(aggregate_score(suite, prof).total - 1000.0) < 1e-6
    lines = ranking.read_text().strip().split("\n")
    ok &= lines[0].startswith("group,") and lines[1].startswith("e2e-host,")
    _verdict(12, ok, f"run -> calibrate -> score -> rank in {elapsed:.0f}s "
             "(< 300s), all files schema-valid")
