import numpy as np
import pytest

from inferbench.dispatch import OPTIMIZED, QUANTIZED, REFERENCE, default_registry
from inferbench.graph import INPUT_ID, GraphSpec, OperatorNode, validate
from inferbench.kernels import FLOAT32, optimized
from inferbench.runner import (
    ALLOCATION_FAILURE,
    CONFIGURED_CAP,
    Measurement,
    MemoryProbeResult,
    SuiteConfig,
    SuiteResult,
    _average,
    load_suite,
    load_suites,
    predict_probe_bytes,
    preferred_backend,
    run_memory_probe,
    run_suite,
    run_test,
    save_suite,
)
from inferbench.workloads import _make_spec

from clock import SimulatedClock


class FakeKernels:
    """Kernel set whose only job is to advance the simulated clock."""

    backend_id = "fake"

    def __init__(self, clock, costs_s):
        self.clock = clock
        self.costs = list(costs_s)
        self.images = 0

    def apply(self, op_kind, dtype, inputs, weights, attrs):
        cost = self.costs[min(self.images, len(self.costs) - 1)]
        self.images += 1
        self.clock.advance(cost)
        return inputs[0]


def _passthrough_graph(h, w):
    nodes = [OperatorNode("r", "relu", [INPUT_ID])]
    return validate(GraphSpec("fake", (1, h, w, 3), nodes, "r", {}))


def _timed(costs, budget):
    clock = SimulatedClock()
    spec = _make_spec(4, 0.1, 42)
    h, w = spec.input_resolution
    graph = _passthrough_graph(h, w)
    return run_test(graph, spec, FakeKernels(clock, costs), budget, clock)


def test_average_drops_first_two_when_more_than_two():
    assert _average([10.0, 20.0, 4.0, 6.0]) == 5.0


def test_average_keeps_all_when_two_or_fewer():
    assert _average([10.0, 20.0]) == 15.0
    assert _average([10.0]) == 10.0
    assert _average([]) is None


def test_image_in_flight_at_expiry_completes_and_counts():
    # budget 1.0s, each image 0.4s: images start at 0.0, 0.4, 0.8; the
    # third starts before expiry and runs past it
    m = _timed([0.4], 1.0)
    assert m.images_processed == 3
    assert m.passed


def test_no_new_image_after_budget():
    m = _timed([0.6], 1.0)
    assert m.images_processed == 2  # starts at 0.0 and 0.6 only


def test_pass_requires_first_image_within_budget():
    m = _timed([1.5], 1.0)
    assert m.images_processed == 1
    assert not m.passed
    assert m.avg_ms == 1500.0


def test_drop_first_two_in_avg():
    # exact binary fractions keep the simulated clock free of float drift
    m = _timed([0.25, 0.25, 0.125, 0.125, 0.125, 0.125], 1.0)
    # images start at 0, .25, .5, .625, .75, .875 -> six processed
    assert m.images_processed == 6
    assert m.avg_ms == pytest.approx(125.0)


def test_run_test_deterministic():
    a = _timed([0.2, 0.1], 1.0)
    b = _timed([0.2, 0.1], 1.0)
    assert a.per_image_ms == b.per_image_ms
    assert a.avg_ms == b.avg_ms


def test_probe_prediction_is_quadratic_in_side():
    b100 = predict_probe_bytes(100)
    b200 = predict_probe_bytes(200)
    b300 = predict_probe_bytes(300)
    assert b200 == 4 * b100
    assert b300 == 9 * b100


def test_memory_probe_stops_at_configured_cap():
    kernels = optimized.make_kernel_set()
    b100 = predict_probe_bytes(100)
    cap = int(b100 * 4.5)  # allows 100 and 200 px, rejects 300
    probe = run_memory_probe(kernels, mem_cap_bytes=cap)
    assert probe.max_resolution_units == 2
    assert probe.limiting_cause == CONFIGURED_CAP
    assert probe.bytes_at_limit == 4 * b100


def test_memory_probe_monotone_in_cap():
    kernels = optimized.make_kernel_set()
    b100 = predict_probe_bytes(100)
    small = run_memory_probe(kernels, mem_cap_bytes=int(b100 * 1.5))
    large = run_memory_probe(kernels, mem_cap_bytes=int(b100 * 4.5))
    assert large.max_resolution_units >= small.max_resolution_units


def test_preferred_backend_rules():
    qspec = _make_spec(1, 0.2, 42)
    fspec = _make_spec(5, 0.2, 42)
    cpu_only = _make_spec(6, 0.2, 42)
    assert preferred_backend(1, qspec, "auto") == QUANTIZED
    assert preferred_backend(5, fspec, "auto") == OPTIMIZED
    # CPU-only tests never take the configured accelerated backend
    assert preferred_backend(6, cpu_only, QUANTIZED) == OPTIMIZED
    assert preferred_backend(6, cpu_only, REFERENCE) == REFERENCE
    assert preferred_backend(3, fspec, "auto") == OPTIMIZED
    assert preferred_backend(7, fspec, OPTIMIZED) == OPTIMIZED
    # the rule reads each test's own spec, whatever the configured backend
    for t in (3, 6, 7):
        spec = _make_spec(t, 0.2, 42)
        assert preferred_backend(t, spec, QUANTIZED) == OPTIMIZED
        assert preferred_backend(t, spec, "auto") == OPTIMIZED
        assert preferred_backend(t, spec, REFERENCE) == REFERENCE


def test_run_suite_tiny_budgets_produce_nine_entries(tmp_path):
    config = SuiteConfig(backend="auto", threads=2, scale=0.05,
                         budget_scale=0.05, device_name="dev", soc_name="soc",
                         mem_cap_bytes=int(predict_probe_bytes(100) * 1.5))
    suite = run_suite(config)
    assert [m.test_id for m in suite.measurements] == list(range(1, 9))
    assert suite.memory_probe is not None
    assert suite.memory_probe.max_resolution_units == 1
    # quantized test dispatches to the integer backend, CPU-only tests to
    # the optimized float path
    by_test = {m.test_id: m for m in suite.measurements}
    assert by_test[1].backend_id == QUANTIZED
    for t in (3, 6, 7):
        assert by_test[t].backend_id == OPTIMIZED
    path = tmp_path / "suite.jsonl"
    save_suite(suite, path)
    loaded = load_suite(path)
    assert loaded.metadata == suite.metadata
    assert [m.avg_ms for m in loaded.measurements] == \
        [m.avg_ms for m in suite.measurements]
    assert loaded.memory_probe == suite.memory_probe


def test_memory_error_fails_one_test_and_keeps_the_suite():
    registry = default_registry(1)
    ops = registry.kernels(OPTIMIZED).ops
    resize = ops[("resize_bilinear", FLOAT32)]

    def failing_resize(inputs, weights, attrs):
        # only the SRGAN generator (test 6) resizes 64-channel maps
        if inputs[0].shape[3] == 64:
            raise MemoryError
        return resize(inputs, weights, attrs)

    ops[("resize_bilinear", FLOAT32)] = failing_resize
    config = SuiteConfig(scale=0.05, budget_scale=0.1, device_name="dev",
                         soc_name="soc",
                         mem_cap_bytes=int(predict_probe_bytes(100) * 1.5))
    suite = run_suite(config, registry=registry)
    assert [m.test_id for m in suite.measurements] == list(range(1, 9))
    assert [m.test_id for m in suite.measurements if not m.passed] == [6]
    assert "MemoryError" in suite.measurements[5].notes
    assert suite.memory_probe.max_resolution_units == 1

    class Interrupted(FakeKernels):
        def apply(self, *args):
            raise KeyboardInterrupt

    spec = _make_spec(4, 0.1, 42)
    with pytest.raises(KeyboardInterrupt):
        run_test(_passthrough_graph(*spec.input_resolution), spec,
                 Interrupted(SimulatedClock(), [0.1]), 1.0)


def test_load_suites_concatenated(tmp_path):
    s1 = SuiteResult(metadata={"device_name": "a"})
    s1.measurements.append(Measurement(1, "reference", 1, [5.0], 5.0, True, 1.0))
    s1.memory_probe = MemoryProbeResult(3, CONFIGURED_CAP, 99)
    s2 = SuiteResult(metadata={"device_name": "b"})
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_suite(s1, p1)
    save_suite(s2, p2)
    both = tmp_path / "both.jsonl"
    both.write_text(p1.read_text() + p2.read_text())
    suites = load_suites(both)
    assert len(suites) == 2
    assert suites[0].metadata["device_name"] == "a"
    assert suites[1].metadata["device_name"] == "b"


GOLDEN_SUITE = (
    '{"type": "header", "schema": "inferbench-suite-v1", '
    '"device_name": "golden-host", "soc_name": "golden-soc"}\n'
    '{"type": "measurement", "test_id": 1, "backend_id": "quantized", '
    '"images_processed": 4, "per_image_ms": [12.5, 11.0, 10.25, 10.75], '
    '"avg_ms": 10.5, "passed": true, "budget_s": 6.25, "start_ms": 0.0, '
    '"notes": ""}\n'
    '{"type": "measurement", "test_id": 6, "backend_id": "optimized", '
    '"images_processed": 0, "per_image_ms": [], "avg_ms": null, '
    '"passed": false, "budget_s": 12.5, "start_ms": 812.5, '
    '"notes": "MemoryError: out of memory"}\n'
    '{"type": "memory_probe", "max_resolution_units": 7, '
    '"limiting_cause": "configured_cap", "bytes_at_limit": 250609664, '
    '"backend_id": "optimized", "start_ms": 2048.0}\n'
)


def test_save_suite_writes_golden_text(tmp_path):
    suite = SuiteResult(metadata={"schema": "inferbench-suite-v1",
                                  "device_name": "golden-host",
                                  "soc_name": "golden-soc"})
    suite.measurements.append(Measurement(
        1, "quantized", 4, [12.5, 11.0, 10.25, 10.75], 10.5, True, 6.25))
    suite.measurements.append(Measurement(
        6, "optimized", 0, [], None, False, 12.5, start_ms=812.5,
        notes="MemoryError: out of memory"))
    suite.memory_probe = MemoryProbeResult(
        7, CONFIGURED_CAP, 250609664, "optimized", 2048.0)
    path = tmp_path / "golden.jsonl"
    save_suite(suite, path)
    assert path.read_text(encoding="utf-8") == GOLDEN_SUITE
    assert load_suite(path) == suite


def test_allocation_failure_cause_without_cap():
    class ExplodingKernels:
        backend_id = "boom"

        def apply(self, *a, **k):
            raise MemoryError("no memory")

    probe = run_memory_probe(ExplodingKernels(), mem_cap_bytes=None)
    assert probe.max_resolution_units == 0
    assert probe.limiting_cause == ALLOCATION_FAILURE
