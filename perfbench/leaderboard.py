"""Leaderboard workload: write device result files, then ingest, rank, export.

A run has SLICES slices.  Each slice writes FILES seeded suite results with
``runner.save_suite`` into a fresh directory (the set-up sample), then
repeats whole rounds until its share of the run has passed: one pass of
``aggregate.ingest_dir``, a ranking by device and by SoC under the shipped
default profile, and csv, markdown and json exports of both; then one
``aggregate.ingest`` of each impossible file, outside the pass.  An
impossible file is handled correctly only when ingest rejects it with
``AggregationError``.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import replace
from importlib import resources

import numpy as np

from inferbench import aggregate, runner, scoring
from inferbench.errors import AggregationError
from inferbench.workloads import DEFAULT_BUDGETS_S

import checks

DEVICES = 50
SOCS = 7
FILES = 500
OUTLIER_SHARE = 0.05  # measurements slowed 4-12x, as by thermal throttling
FAILED_SHARE = 0.03  # measurements whose first image missed the budget
SLICES = 6  # set-ups per run, each followed by its share of the timed passes
SCALE = 0.25
FORMATS = ("csv", "markdown", "json")
IMPOSSIBLE_SEED = 7  # the impossible files do not depend on --seed


def default_profile():
    path = resources.files("inferbench").joinpath(
        "data", "profiles", "default-profile.json")
    return scoring.load_profile(str(path))


def _measurement(rng, test_id, typical_ms):
    budget_s = DEFAULT_BUDGETS_S[test_id - 1] * SCALE
    if rng.random() < FAILED_SHARE:
        per_image = [budget_s * 1000.0 * rng.uniform(1.1, 2.0)]
    else:
        n = int(rng.integers(5, 13))
        per_image = (typical_ms * rng.lognormal(0.0, 0.05, n)).tolist()
        if rng.random() < OUTLIER_SHARE:
            per_image = [ms * rng.uniform(4.0, 12.0) for ms in per_image]
    kept = per_image[2:] if len(per_image) > 2 else per_image
    return runner.Measurement(
        test_id=test_id,
        backend_id="quantized" if test_id == 1 else "optimized",
        images_processed=len(per_image),
        per_image_ms=per_image,
        avg_ms=sum(kept) / len(kept),
        passed=bool(per_image[0] <= budget_s * 1000.0),
        budget_s=budget_s,
    )


def make_suites(seed, profile, files=FILES):
    """Seeded suite results: FILES runs over DEVICES devices on SOCS SoCs."""
    rng = np.random.default_rng(seed)
    soc_speed = rng.lognormal(0.0, 0.4, SOCS)
    device_speed = [soc_speed[d % SOCS] * rng.lognormal(0.0, 0.1)
                    for d in range(DEVICES)]
    device_units = rng.integers(3, 10, DEVICES)
    suites = []
    for f in range(files):
        d = f % DEVICES
        metadata = {
            "schema": "inferbench-suite-v1",
            "device_name": f"device-{d:02d}",
            "soc_name": f"soc-{d % SOCS}",
            "ram_gb": float(2 ** (1 + d % 3)),
            "host": f"host-{f:03d}",
            "backend": "auto",
            "threads": 1,
            "scale": SCALE,
            "seed": int(rng.integers(0, 2**31)),
            "budget_scale": 1.0,
            "mem_cap_bytes": 256 * 2**20,
        }
        suite = runner.SuiteResult(metadata=metadata)
        for t in range(1, 9):
            typical = profile.t_ref_ms[t - 1] * device_speed[d]
            suite.measurements.append(_measurement(rng, t, typical))
        units = int(device_units[d])
        if rng.random() < OUTLIER_SHARE:
            units = 1
        suite.memory_probe = runner.MemoryProbeResult(
            max_resolution_units=units,
            limiting_cause=runner.CONFIGURED_CAP,
            bytes_at_limit=checks.PROBE_BYTES_PER_PIXEL * (100 * units) ** 2,
            backend_id="optimized",
        )
        suites.append(suite)
    return suites


def impossible_suites(profile):
    """Suites no real run can produce; ingest should reject each of them."""
    base = make_suites(IMPOSSIBLE_SEED, profile, files=1)[0]

    def altered(i, **changes):
        ms = list(base.measurements)
        ms[i] = replace(ms[i], **changes)
        return replace(base, measurements=ms)

    first = base.measurements[0]
    return {
        "non-finite-avg": altered(0, avg_ms=math.nan),
        "duplicate-test-id": altered(1, test_id=1),
        "image-count-mismatch": altered(
            0, images_processed=first.images_processed + 1),
    }


def write_suites(suites, directory):
    for i, suite in enumerate(suites):
        runner.save_suite(suite, os.path.join(directory, f"{i:04d}.jsonl"))


def one_pass(directory, profile, spans=None):
    """ingest_dir, rank by device and SoC, export both in every format."""
    t0 = time.perf_counter()
    records = aggregate.ingest_dir(directory)
    t1 = time.perf_counter()
    rows = {g: aggregate.rank(records, g, profile) for g in ("device", "soc")}
    t2 = time.perf_counter()
    texts = [aggregate.export(r, fmt) for r in rows.values() for fmt in FORMATS]
    t3 = time.perf_counter()
    if spans is not None:
        spans["aggregate.ingest_ms"].append((t1 - t0) * 1e3)
        spans["aggregate.rank_ms"].append((t2 - t1) * 1e3)
        spans["aggregate.export_ms"].append((t3 - t2) * 1e3)
        spans["trace.latency_ms"].append((t3 - t0) * 1e3)
    return records, rows, texts, (t3 - t0) * 1e3


def check_first_pass(records, rows, suites, profile):
    errors = checks.check_ingested(records, suites)
    for group_by, ranked in rows.items():
        errors += checks.check_ranking(ranked, suites, group_by, profile)
    return errors


def ingest_rejects(path):
    """True when ingest raises AggregationError, as it must here."""
    try:
        aggregate.ingest(path)
    except AggregationError:
        return True
    return False


def run(seed, seconds, trace, workdir):
    """One run; returns (errors, attempted, failed, metrics)."""
    profile = default_profile()
    suites = make_suites(seed, profile)
    os.makedirs(workdir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="leaderboard-", dir=workdir)
    try:
        return _run(seconds, trace, scratch, profile, suites)
    finally:
        shutil.rmtree(scratch)


def _run(seconds, trace, scratch, profile, suites):
    bad_paths = []
    for name, suite in impossible_suites(profile).items():
        bad_paths.append(os.path.join(scratch, f"impossible-{name}.jsonl"))
        runner.save_suite(suite, bad_paths[-1])

    errors, attempted, failed = [], 0, 0
    write_s, pass_ms = [], []
    spans = defaultdict(list)
    first_texts = None
    directory = tempfile.mkdtemp(prefix="results-", dir=scratch)
    write_suites(suites, directory)
    for _ in range(SLICES):
        # Every timed set-up does the same work: new files in an empty
        # directory, which is removed before the passes.
        written = tempfile.mkdtemp(prefix="setup-", dir=scratch)
        gc.collect()
        t0 = time.perf_counter()
        write_suites(suites, written)
        write_s.append(time.perf_counter() - t0)
        shutil.rmtree(written)
        start = time.perf_counter()
        while time.perf_counter() - start < seconds / SLICES or not pass_ms:
            gc.collect()  # every pass starts from the same collector state
            records, rows, texts, ms = one_pass(directory, profile)
            pass_ms.append(ms)
            if first_texts is None:
                first_texts = texts
                errors += check_first_pass(records, rows, suites, profile)
            elif texts != first_texts:
                errors.append(f"pass {len(pass_ms)}: exports differ from pass 1")
            attempted += len(suites)
            if trace:
                gc.collect()
                if one_pass(directory, profile, spans)[2] != first_texts:
                    errors.append("a traced pass exported other text")
                attempted += len(suites)
            for path in bad_paths:
                attempted += 1
                failed += not ingest_rejects(path)
    if not trace:
        return errors, attempted, failed, {
            "latency_ms_p50": statistics.median(pass_ms),
            "setup_s": statistics.median(write_s),
        }
    metrics = {name: statistics.median(v) for name, v in spans.items()}
    metrics["runner.save_suite_ms"] = statistics.median(write_s) * 1e3 / len(suites)
    metrics["aggregate.records"] = len(records)
    metrics["trace.overhead_ms"] = (metrics["trace.latency_ms"]
                                    - statistics.median(pass_ms))
    return errors, attempted, failed, metrics
