"""Tests of the benchmark itself.

Each output check must be able to fail: a perturbed kernel, a tampered
measurement, probe result, ranking or ingested record is caught.  A short
run of every workload completes with a well-formed result line, and
BENCHMARK.json names the metrics the runs print.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

if bench.SRC not in sys.path:
    sys.path.insert(0, bench.SRC)

from inferbench import aggregate, dispatch, graph as graph_mod, runner, workloads  # noqa: E402
from inferbench.kernels import KernelSet  # noqa: E402
from inferbench.tensor import Tensor  # noqa: E402

import checks  # noqa: E402
import leaderboard  # noqa: E402

SCALE = 0.25


@pytest.fixture(scope="module")
def registry():
    return dispatch.default_registry(1)


def _outputs(registry, test_id, kernels):
    """(graph, output under ``kernels``, reference output) on one image."""
    graph, spec = workloads.instantiate(test_id, SCALE)
    x = workloads.generate_input(spec, 5)
    ref = graph_mod.execute(graph, x, registry.kernels(dispatch.REFERENCE))
    return graph, graph_mod.execute(graph, x, kernels), ref


def _perturbed(kernels, op_kind, change):
    """A copy of ``kernels`` whose ``op_kind`` outputs pass through ``change``."""
    ops = dict(kernels.ops)
    for key, fn in kernels.ops.items():
        if key[0] == op_kind:
            ops[key] = (lambda f: lambda i, w, a: change(f(i, w, a)))(fn)
    return KernelSet(kernels.backend_id, ops)


def test_float_reference_check_catches_perturbed_kernel(registry):
    opt = registry.kernels(dispatch.OPTIMIZED)
    graph, out, ref = _outputs(registry, 4, opt)
    assert checks.check_against_reference(graph, out, ref) == []
    bad = _perturbed(opt, "conv2d", lambda t: Tensor(t.data * np.float32(1.001)))
    graph, out, ref = _outputs(registry, 4, bad)
    assert checks.check_against_reference(graph, out, ref)


def test_int8_reference_check_catches_one_code(registry):
    qnt = registry.kernels(dispatch.QUANTIZED)
    graph, out, ref = _outputs(registry, 1, qnt)
    assert checks.check_against_reference(graph, out, ref) == []

    def nudge(t):
        data = t.data.copy()
        data.flat[0] = data.flat[0] - 1 if data.flat[0] > -128 else -127
        return Tensor(data, t.dtype, t.qparams)

    bad = _perturbed(qnt, "softmax", nudge)
    graph, out, ref = _outputs(registry, 1, bad)
    assert checks.check_against_reference(graph, out, ref)


def test_repeat_shape_and_softmax_checks_fail_on_tampered_output(registry):
    graph, out, _ = _outputs(
        registry, 2, registry.kernels(dispatch.OPTIMIZED))
    assert checks.check_repeatable(graph, out, out) == []
    assert checks.check_output_shape(graph, out) == []
    assert checks.check_softmax(graph, out) == []
    shifted = Tensor(out.data * np.float32(1.01))
    assert checks.check_repeatable(graph, out, shifted)
    assert checks.check_softmax(graph, shifted)
    wrong = Tensor(np.ones((1, 1, 1, 7), dtype=np.float32))
    assert checks.check_output_shape(graph, wrong)
    dense, _ = workloads.instantiate(4, SCALE)
    assert checks.check_softmax(dense, Tensor(np.ones(dense.output_shape,
                                                      dtype=np.float32)))


def test_mac_check_fails_on_a_different_count():
    graph, _ = workloads.instantiate(3, SCALE)
    macs = graph_mod.count_macs(graph)
    assert checks.check_macs(graph, macs) == []
    assert checks.check_macs(graph, macs + 1)
    assert set(checks.macs_by_kind(graph)) == {
        "conv2d_1x1", "conv2d_kxk", "fully_connected"}


def test_measurement_check_fails_on_each_broken_invariant():
    m = runner.Measurement(test_id=4, backend_id="optimized",
                           images_processed=4, per_image_ms=[9.0, 3.0, 2.0, 4.0],
                           avg_ms=3.0, passed=True, budget_s=0.01)
    assert checks.check_measurement(m) == []
    assert checks.check_measurement(replace(m, images_processed=5))
    assert checks.check_measurement(replace(m, avg_ms=4.0))
    assert checks.check_measurement(replace(m, passed=False))
    assert checks.check_measurement(replace(m, budget_s=0.005))


def test_probe_check_matches_the_analyzer_and_fails_when_tampered():
    for side in (100, 200):
        assert runner.predict_probe_bytes(side) == (
            checks.PROBE_BYTES_PER_PIXEL * side * side)
    cap = runner.SuiteConfig().mem_cap_bytes
    assert checks.expected_probe(cap) == (7, 512 * 700 * 700)
    ok = runner.MemoryProbeResult(7, runner.CONFIGURED_CAP, 512 * 700 * 700)
    assert checks.check_probe(ok, cap) == []
    assert checks.check_probe(replace(ok, max_resolution_units=6), cap)
    assert checks.check_probe(replace(ok, bytes_at_limit=1), cap)


@pytest.fixture(scope="module")
def board(tmp_path_factory):
    profile = leaderboard.default_profile()
    suites = leaderboard.make_suites(11, profile)
    directory = tmp_path_factory.mktemp("board")
    leaderboard.write_suites(suites, str(directory))
    records, rows, texts, _ = leaderboard.one_pass(str(directory), profile)
    return profile, suites, records, rows


def test_ranking_matches_recomputation_and_tampering_fails(board):
    profile, suites, _, rows = board
    for group_by, ranked in rows.items():
        assert checks.check_ranking(ranked, suites, group_by, profile) == []
    device = rows["device"]
    swapped = [device[1], device[0], *device[2:]]
    assert checks.check_ranking(swapped, suites, "device", profile)
    rescored = [replace(device[0], ai_score=device[0].ai_score * 1.001),
                *device[1:]]
    assert checks.check_ranking(rescored, suites, "device", profile)
    recounted = [replace(device[0], sample_count=device[0].sample_count + 1),
                 *device[1:]]
    assert checks.check_ranking(recounted, suites, "device", profile)


def test_inputs_hold_outliers_the_filter_drops_and_failed_tests(board):
    _, suites, _, _ = board
    groups = {}
    for s in suites:
        for m in s.measurements:
            if m.passed:
                key = (s.metadata["device_name"], m.test_id)
                groups.setdefault(key, []).append(m.avg_ms)
    dropped = sum(len(v) - len(aggregate.remove_outliers(v))
                  for v in groups.values())
    assert dropped > 0
    assert any(not m.passed for s in suites for m in s.measurements)


def test_ingest_check_fails_on_a_changed_record(board):
    _, suites, records, _ = board
    assert checks.check_ingested(records, suites) == []
    changed = list(records)
    m0 = records[0].suite.measurements[0]
    suite = replace(records[0].suite,
                    measurements=[replace(m0, avg_ms=m0.avg_ms + 1e-9),
                                  *records[0].suite.measurements[1:]])
    changed[0] = replace(records[0], suite=suite)
    assert checks.check_ingested(changed, suites)
    assert checks.check_ingested(records[:-1], suites)


def test_impossible_files_are_fixed_and_each_broken_once():
    profile = leaderboard.default_profile()
    bad = leaderboard.impossible_suites(profile)
    assert bad.keys() == {"non-finite-avg", "duplicate-test-id",
                          "image-count-mismatch"}
    assert math.isnan(bad["non-finite-avg"].measurements[0].avg_ms)
    ids = [m.test_id for m in bad["duplicate-test-id"].measurements]
    assert ids.count(1) == 2 and 2 not in ids
    m = bad["image-count-mismatch"].measurements[0]
    assert m.images_processed == len(m.per_image_ms) + 1
    assert leaderboard.impossible_suites(profile) == bad


def _result(args, cwd=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd)
    return proc


@pytest.mark.parametrize("workload, trace", [
    ("int8-mobilenet", 0), ("float-branchy", 0), ("float-dense", 0),
    ("leaderboard", 0), ("int8-mobilenet", 1), ("leaderboard", 1),
])
def test_short_run_completes(workload, trace):
    proc = _result(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                    "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    names = bench.PER_LAYER if trace else bench.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_program_sources_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "leaderboard",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_what_the_runs_print():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
