"""Inference workloads: the paper's tests at scale 0.25 under auto dispatch.

A run builds the workload (registry, graphs, dispatch) afresh in each of
ROUNDS rounds and times every build; the first build's outputs are checked
against the reference backend on one seeded image per test; each round then
times images of every test with ``runner.run_test``.  ``float-dense`` ends
with the memory probe.

With tracing, each round also runs the same images through a ``KernelSet``
whose ops are wrapped in timers, with ``graph.execute``'s observer timing
each node, and the zoo build and graph validation are timed on their own.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from inferbench import dispatch, graph as graph_mod, runner, workloads, zoo
from inferbench.kernels import KernelSet

import checks

SCALE = 0.25
TESTS = {
    "int8-mobilenet": (1,),
    "float-branchy": (2, 3),
    "float-dense": (4, 5, 6, 7, 8),
}
SOFTMAX_TESTS = (2, 7)
PROBE_WORKLOAD = "float-dense"
ROUNDS = 6  # per run: fresh set-ups, each followed by a visit of every test
KERNEL_KINDS = (
    "conv2d_1x1", "conv2d_kxk", "depthwise_conv2d", "fully_connected",
    "resize_bilinear", "pool", "relu", "add", "concat_channels", "softmax",
)
MAC_KINDS = KERNEL_KINDS[:4]


@dataclass
class Case:
    test_id: int
    graph: graph_mod.Graph
    spec: workloads.WorkloadSpec
    kernels: KernelSet


def set_up(test_ids, seed):
    """Registry, graphs and dispatch, built the way ``run_suite`` builds them."""
    registry = dispatch.default_registry(runner.SuiteConfig().threads)
    cases = []
    for t in test_ids:
        graph, spec = workloads.instantiate(t, SCALE, seed)
        decision = registry.select_backend(
            graph, runner.preferred_backend(t, spec, "auto"))
        cases.append(Case(t, graph, spec,
                          registry.kernels(decision.chosen_backend_id)))
    return registry, cases


def traced_set_up(test_ids, seed, spans):
    """``set_up``, after timing each test's zoo build and validation apart.

    ``workloads.calibrate_s`` is the set-up time beyond those two: the
    registry and dispatch and, for test 1, the int8 calibration pass, weight
    quantization and validation of the int8 graph.
    """
    specs = {s.test_id: s for s in workloads.all_default_specs(SCALE, seed)}
    build = validate = 0.0
    for t in test_ids:
        spec = specs[t]
        t0 = time.perf_counter()
        gspec = zoo.BUILDERS[spec.architecture](
            *spec.input_resolution, zoo.WeightStream(seed))
        t1 = time.perf_counter()
        graph_mod.validate(gspec)
        build += t1 - t0
        validate += time.perf_counter() - t1
        gspec = None
    t0 = time.perf_counter()
    built = set_up(test_ids, seed)
    whole = time.perf_counter() - t0
    spans["zoo.build_s"].append(build)
    spans["graph.validate_s"].append(validate)
    spans["workloads.calibrate_s"].append(max(0.0, whole - build - validate))
    return built


def check_outputs(registry, cases, seed):
    """One seeded image per test: reference, repeatability, shape, softmax."""
    errors = []
    reference = registry.kernels(dispatch.REFERENCE)
    for c in cases:
        x = workloads.generate_input(c.spec, seed)
        first = graph_mod.execute(c.graph, x, c.kernels)
        second = graph_mod.execute(c.graph, x, c.kernels)
        expected = graph_mod.execute(c.graph, x, reference)
        errors += checks.check_output_shape(c.graph, first)
        errors += checks.check_repeatable(c.graph, first, second)
        errors += checks.check_against_reference(c.graph, first, expected)
        errors += checks.check_macs(c.graph, graph_mod.count_macs(c.graph))
        if c.test_id in SOFTMAX_TESTS:
            errors += checks.check_softmax(c.graph, first)
    return errors


class Tracer:
    """Kernel and per-node times of traced ``graph.execute`` calls, per test."""

    def __init__(self):
        self.kernels = {}  # test id -> timed KernelSet of the current build
        self.kernel_ms = defaultdict(lambda: defaultdict(float))
        self.kernel_calls = defaultdict(lambda: defaultdict(int))
        self.node_ms = defaultdict(float)  # test id -> summed node intervals
        self.image_ms = defaultdict(list)  # test id -> per call, image times
        self._test = None
        self._last = 0.0

    def wrap(self, cases):
        """Timed copies of each case's dispatched op table."""
        self.kernels = {
            c.test_id: KernelSet(c.kernels.backend_id, {
                key: self._timed(c.test_id, key[0], fn)
                for key, fn in c.kernels.ops.items()
            })
            for c in cases
        }

    def _timed(self, test_id, op_kind, fn):
        ms, calls = self.kernel_ms[test_id], self.kernel_calls[test_id]

        def run(inputs, weights, attrs):
            kind = (checks.mac_kind(op_kind, weights[0].shape) if weights
                    else op_kind)
            t0 = time.perf_counter()
            out = fn(inputs, weights, attrs)
            ms[kind] += (time.perf_counter() - t0) * 1e3
            calls[kind] += 1
            return out

        return run

    def _observe(self, node_id, out):
        now = time.perf_counter()
        self.node_ms[self._test] += (now - self._last) * 1e3
        self._last = now

    def run(self, case, budget_s, seed):
        """Images until the budget expires, as the protocol runs them."""
        t = case.test_id
        self._test = t
        kernels = self.kernels[t]
        times = []
        t0 = time.perf_counter()
        while not times or time.perf_counter() - t0 < budget_s:
            x = workloads.generate_input(case.spec, seed + len(times))
            self._last = start = time.perf_counter()
            graph_mod.execute(case.graph, x, kernels, observer=self._observe)
            times.append((time.perf_counter() - start) * 1e3)
        self.image_ms[t].append(times)
        return len(times)


def run_probe(registry, seed):
    graph9, spec9 = workloads.instantiate(9, SCALE, seed)
    decision = registry.select_backend(
        graph9, runner.preferred_backend(9, spec9, "auto"))
    cap = runner.SuiteConfig().mem_cap_bytes
    t0 = time.perf_counter()
    probe = runner.run_memory_probe(
        registry.kernels(decision.chosen_backend_id), mem_cap_bytes=cap,
        seed=seed)
    return probe, time.perf_counter() - t0, checks.check_probe(probe, cap)


def protocol_kept(per_image_ms):
    """The images the protocol averages: all but the first two, if any."""
    return per_image_ms[2:] if len(per_image_ms) > 2 else per_image_ms


def latency_ms(kept_ms):
    """Sum over tests of the median per-image latency."""
    return sum(statistics.median(v) for v in kept_ms.values())


class Tally:
    """What the rounds of one run measured, and their failed checks."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.spans = defaultdict(list)  # set-up metric -> one value per round
        self.images = defaultdict(int)  # test id -> images run untraced
        self.kept_ms = defaultdict(list)  # test id -> the protocol's kept ms
        self.outside_ms = defaultdict(float)  # test id -> run_test time
        self.errors, self.attempted, self.failed = [], 0, 0

    def round(self, cases, budget_s, image_seed):
        """One ``run_test`` call per test, each followed by a traced call."""
        for c in cases:
            t0 = time.perf_counter()
            m = runner.run_test(c.graph, c.spec, c.kernels, budget_s,
                                seed=image_seed)
            wall_ms = (time.perf_counter() - t0) * 1e3
            self.errors += checks.check_measurement(m)
            if m.notes:
                self.errors.append(f"test {c.test_id}: {m.notes}")
                self.failed += 1
            self.attempted += m.images_processed + (1 if m.notes else 0)
            self.images[c.test_id] += m.images_processed
            self.kept_ms[c.test_id] += protocol_kept(m.per_image_ms)
            self.outside_ms[c.test_id] += wall_ms - sum(m.per_image_ms)
            if self.tracer is not None:
                self.attempted += self.tracer.run(c, budget_s, image_seed)


def run(workload, seed, seconds, trace):
    """One run; returns (errors, attempted, failed, metrics).

    Each of the ROUNDS rounds builds the workload afresh (the set-up
    sample), then calls ``run_test`` once per test; a traced round also runs
    the same images through the tracer.  Spreading the set-ups over the run
    lets their median, like the images', average over the whole run.
    """
    test_ids = TESTS[workload]
    budget = seconds / (ROUNDS * len(test_ids) * (2 if trace else 1))
    tally = Tally(Tracer() if trace else None)
    for r in range(ROUNDS):
        registry = cases = None  # free the last build before the next one
        if trace:
            registry, cases = traced_set_up(test_ids, seed, tally.spans)
            tally.tracer.wrap(cases)
        else:
            t0 = time.perf_counter()
            registry, cases = set_up(test_ids, seed)
            tally.spans["setup_s"].append(time.perf_counter() - t0)
        if r == 0:
            tally.errors += check_outputs(registry, cases, seed)
        tally.round(cases, budget, seed + 1000 * r)

    metrics = {name: statistics.median(v) for name, v in tally.spans.items()}
    peak_bytes = max(graph_mod.peak_activation_bytes(c.graph) for c in cases)
    if workload == PROBE_WORKLOAD:
        probe, probe_s, probe_errors = run_probe(registry, seed)
        tally.errors += probe_errors
        peak_bytes = max(peak_bytes, probe.bytes_at_limit)
        metrics["runner.memory_probe_s"] = probe_s
        metrics["runner.memory_probe_units"] = probe.max_resolution_units
    if trace:
        metrics["graph.peak_activation_mb"] = peak_bytes / 2**20
        metrics.update(trace_metrics(tally, cases))
    else:
        metrics = {"latency_ms_p50": latency_ms(tally.kept_ms),
                   "setup_s": metrics["setup_s"]}
    return tally.errors, tally.attempted, tally.failed, metrics


def trace_metrics(tally, cases):
    """Per-layer metrics, per pass through each of the workload's networks."""
    test_ids = [c.test_id for c in cases]
    tracer = tally.tracer
    metrics = {"graph.nodes": sum(len(c.graph.spec.nodes) for c in cases)}
    for t in test_ids:
        kept = tally.kept_ms[t]
        metrics[f"runner.t{t}.image_ms_p50"] = statistics.median(kept)
        metrics[f"runner.t{t}.image_ms_p90"] = float(np.percentile(kept, 90))
        metrics[f"runner.t{t}.images"] = tally.images[t]
    metrics["runner.protocol_ms"] = sum(
        tally.outside_ms[t] / tally.images[t] for t in test_ids)

    traced = {t: sum(map(len, tracer.image_ms[t])) for t in test_ids}
    macs = {c.test_id: checks.macs_by_kind(c.graph) for c in cases}
    kernel_total = 0.0
    for kind in KERNEL_KINDS:
        ms = sum(tracer.kernel_ms[t][kind] / traced[t] for t in test_ids)
        metrics[f"kernels.{kind}.ms"] = ms
        metrics[f"kernels.{kind}.calls"] = sum(
            tracer.kernel_calls[t][kind] / traced[t] for t in test_ids)
        if kind in MAC_KINDS:
            mac = sum(macs[t].get(kind, 0) for t in test_ids)
            metrics[f"kernels.{kind}.gmac_s"] = mac / (ms * 1e6) if ms else 0.0
        kernel_total += ms
    node_total = sum(tracer.node_ms[t] / traced[t] for t in test_ids)
    metrics["graph.execute_overhead_ms"] = node_total - kernel_total
    metrics["trace.latency_ms"] = sum(
        sum(map(sum, tracer.image_ms[t])) / traced[t] for t in test_ids)
    traced_kept = {t: [ms for call in tracer.image_ms[t]
                       for ms in protocol_kept(call)] for t in test_ids}
    metrics["trace.overhead_ms"] = (latency_ms(traced_kept)
                                    - latency_ms(tally.kept_ms))
    return metrics
