"""Timed execution of workloads and the escalating-resolution memory probe.

The wall clock is injected so the whole protocol is testable with a
scripted clock: the number of images started, the pass flag and the
drop-first-two averaging are pure functions of the per-image cost sequence
and the budget.
"""

from __future__ import annotations

import itertools
import json
import math
import platform
import time
from dataclasses import MISSING, dataclass, field, fields

from .dispatch import OPTIMIZED, QUANTIZED, REFERENCE, default_registry
from .errors import AggregationError, InferBenchError
from .graph import execute, peak_activation_bytes, validate
from .tensor import Tensor
from .workloads import (
    DEFAULT_SEED,
    generate_input,
    instantiate,
)
from .zoo import WeightStream, build_srcnn, uniform_stream

ALLOCATION_FAILURE = "allocation_failure"
CONFIGURED_CAP = "configured_cap"


@dataclass
class Measurement:
    test_id: int
    backend_id: str
    images_processed: int
    per_image_ms: list
    avg_ms: float  # None when nothing completed
    passed: bool
    budget_s: float
    start_ms: float = 0.0  # offset from suite start, monotonic
    notes: str = ""


@dataclass
class MemoryProbeResult:
    max_resolution_units: int  # hundreds of pixels per side
    limiting_cause: str
    bytes_at_limit: int
    backend_id: str = REFERENCE
    start_ms: float = 0.0


@dataclass
class SuiteResult:
    metadata: dict
    measurements: list = field(default_factory=list)
    memory_probe: MemoryProbeResult = None


def _average(per_image_ms):
    if not per_image_ms:
        return None
    kept = per_image_ms[2:] if len(per_image_ms) > 2 else per_image_ms
    return sum(kept) / len(kept)


def run_test(graph, spec, kernels, budget_s=None, clock=time.monotonic,
             seed=DEFAULT_SEED) -> Measurement:
    """Process seeded images until the budget expires.

    A new image is started only while elapsed time is under the budget;
    the image in flight at expiry runs to completion and counts.  The test
    passes when the first image finishes within the budget.
    """
    if budget_s is None:
        budget_s = spec.time_budget_s
    if not budget_s or budget_s <= 0:
        raise ValueError("budget_s must be positive")
    per_image_ms = []
    notes = ""
    t0 = clock()
    i = 0
    while i == 0 or clock() - t0 < budget_s:
        x = generate_input(spec, seed + i)
        ts = clock()
        try:
            execute(graph, x, kernels)
        except Exception as e:
            # one failing test must not lose the rest of the suite
            notes = f"execution failed on image {i}: {type(e).__name__}: {e}"
            break
        per_image_ms.append((clock() - ts) * 1000.0)
        i += 1
    passed = bool(per_image_ms) and per_image_ms[0] <= budget_s * 1000.0
    return Measurement(
        test_id=spec.test_id,
        backend_id=kernels.backend_id,
        images_processed=len(per_image_ms),
        per_image_ms=per_image_ms,
        avg_ms=_average(per_image_ms),
        passed=passed,
        budget_s=budget_s,
        notes=notes,
    )


def predict_probe_bytes(side_px, seed=DEFAULT_SEED) -> int:
    """Analyzer prediction of live activation bytes for the probe network."""
    graph = validate(build_srcnn(side_px, side_px, WeightStream(seed)))
    return peak_activation_bytes(graph)


def run_memory_probe(kernels, mem_cap_bytes=None,
                     seed=DEFAULT_SEED) -> MemoryProbeResult:
    """Run the deblurring network on growing square inputs until failure.

    Sizes step in 100 px units.  A size fails when the analyzer predicts
    its live activations exceed the configured cap, or when allocation
    actually fails; the last successful size is reported.
    """
    last_ok = 0
    bytes_at_limit = 0
    cause = ALLOCATION_FAILURE
    for k in itertools.count(1):
        side = 100 * k
        graph = validate(build_srcnn(side, side, WeightStream(seed)))
        predicted = peak_activation_bytes(graph)
        if mem_cap_bytes is not None and predicted > mem_cap_bytes:
            cause = CONFIGURED_CAP
            break
        vals = uniform_stream(seed + k, 0, side * side * 3, 0.0, 1.0)
        x = Tensor(vals.astype("float32").reshape(1, side, side, 3))
        try:
            execute(graph, x, kernels)
        except MemoryError:
            break  # cause stays ALLOCATION_FAILURE
        last_ok = k
        bytes_at_limit = predicted
    return MemoryProbeResult(
        max_resolution_units=last_ok,
        limiting_cause=cause,
        bytes_at_limit=bytes_at_limit,
        backend_id=kernels.backend_id,
    )


@dataclass
class SuiteConfig:
    backend: str = "auto"  # auto | reference | optimized | quantized
    threads: int = 1
    scale: float = 1.0
    seed: int = DEFAULT_SEED
    mem_cap_bytes: int = 256 * 2**20
    budget_scale: float = 1.0
    device_name: str = ""
    soc_name: str = ""
    ram_gb: float = 0.0


def preferred_backend(test_id, spec, configured) -> str:
    """Per-test dispatch preference under the suite's backend setting.

    A test that is not ``spec.accelerator_eligible`` always takes the CPU
    path (optimized kernels, or reference when that is the configured
    backend); the others try the configured backend, with 'auto' meaning
    quantized for the int8 test and optimized otherwise.  ``test_id`` is
    not read: the spec carries everything the rule needs.
    """
    if not spec.accelerator_eligible:
        return REFERENCE if configured == REFERENCE else OPTIMIZED
    if configured == "auto":
        return QUANTIZED if spec.quantized else OPTIMIZED
    return configured


def run_suite(config: SuiteConfig, clock=time.monotonic,
              registry=None) -> SuiteResult:
    """Tests 1..8 under dispatch, then the memory probe."""
    if registry is None:
        registry = default_registry(config.threads)
    metadata = {
        "schema": "inferbench-suite-v1",
        "device_name": config.device_name or platform.node(),
        "soc_name": config.soc_name or (platform.processor() or platform.machine()),
        "ram_gb": config.ram_gb,
        "host": platform.node(),
        "backend": config.backend,
        "threads": config.threads,
        "scale": config.scale,
        "seed": config.seed,
        "budget_scale": config.budget_scale,
        "mem_cap_bytes": config.mem_cap_bytes,
    }
    suite = SuiteResult(metadata=metadata)
    t0 = clock()
    for test_id in range(1, 9):
        start_ms = (clock() - t0) * 1000.0
        try:
            graph, spec = instantiate(test_id, config.scale, config.seed)
        except InferBenchError as e:
            m = Measurement(test_id, "none", 0, [], None, False, 0.0,
                            start_ms, notes=f"instantiation failed: {e}")
            suite.measurements.append(m)
            continue
        decision = registry.select_backend(
            graph, preferred_backend(test_id, spec, config.backend)
        )
        kernels = registry.kernels(decision.chosen_backend_id)
        budget = spec.time_budget_s * config.budget_scale
        m = run_test(graph, spec, kernels, budget, clock, config.seed)
        m.start_ms = start_ms
        if decision.reason != "all_ops_supported":
            note = (f"dispatch: {decision.reason} at node "
                    f"{decision.node_id} ({decision.op_kind})")
            m.notes = f"{m.notes}; {note}" if m.notes else note
        suite.measurements.append(m)
    # memory probe reuses the deblurring graph under the same dispatch rule
    graph9, spec9 = instantiate(9, config.scale, config.seed)
    decision = registry.select_backend(
        graph9, preferred_backend(9, spec9, config.backend)
    )
    probe = run_memory_probe(
        registry.kernels(decision.chosen_backend_id),
        mem_cap_bytes=config.mem_cap_bytes,
        seed=config.seed,
    )
    probe.start_ms = (clock() - t0) * 1000.0
    suite.memory_probe = probe
    return suite


# --- JSONL codec -----------------------------------------------------------


def save_suite(suite: SuiteResult, path):
    """One JSONL file: header line, then one line per result."""
    # vars() lists a record's fields in declaration order, like asdict(),
    # without deep-copying each per-image list first.
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"type": "header", **suite.metadata}) + "\n")
        for m in suite.measurements:
            f.write(json.dumps({"type": "measurement", **vars(m)}) + "\n")
        if suite.memory_probe is not None:
            f.write(
                json.dumps({"type": "memory_probe", **vars(suite.memory_probe)})
                + "\n"
            )


def load_suite(path) -> SuiteResult:
    suites = load_suites(path)
    if len(suites) != 1:
        raise InferBenchError(f"{path} holds {len(suites)} suites, expected 1")
    return suites[0]


def _field_names(cls):
    """(allowed, required) field names of one record dataclass."""
    required = tuple(
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    )
    return frozenset(f.name for f in fields(cls)), required


# record type -> (class, allowed fields, required fields), worked out once
_RECORDS = {
    "measurement": (Measurement, *_field_names(Measurement)),
    "memory_probe": (MemoryProbeResult, *_field_names(MemoryProbeResult)),
}


def _rejected(lineno, message, key=None):
    return AggregationError(f"line {lineno}: {message}", line=lineno, field=key)


def _build(kind, doc, lineno):
    cls, allowed, required = _RECORDS[kind]
    for key in doc:
        if key not in allowed:
            raise _rejected(lineno, f"unexpected field {key!r}", key)
    for key in required:
        if key not in doc:
            raise _rejected(lineno, f"missing field {key!r}", key)
    return cls(**doc)


def _all_positive(values):
    """True when every value is a finite positive number.

    A NaN or an infinity makes the sum non-finite, and a value that is not
    a number makes ``min`` or ``sum`` raise; this is faster than testing
    each value on its own.
    """
    try:
        return not values or (min(values) > 0 and math.isfinite(sum(values)))
    except TypeError:
        return False


def _check_measurement(m, seen_ids, lineno):
    """Reject a measurement that no run of the timing protocol produces."""
    if type(m.test_id) is not int or not 1 <= m.test_id <= 8:
        raise _rejected(lineno, f"test_id must be 1..8, got {m.test_id!r}",
                        "test_id")
    if m.test_id in seen_ids:
        raise _rejected(lineno, f"test {m.test_id} listed twice in one suite",
                        "test_id")
    seen_ids.add(m.test_id)
    ms = m.per_image_ms
    if not isinstance(ms, list) or not _all_positive(ms):
        raise _rejected(lineno, "per_image_ms must hold finite positive numbers",
                        "per_image_ms")
    if m.images_processed != len(ms):
        raise _rejected(lineno, f"images_processed {m.images_processed!r} != "
                        f"{len(ms)} per-image times", "images_processed")
    if m.avg_ms is not None and not _all_positive([m.avg_ms]):
        raise _rejected(lineno, f"avg_ms must be finite and positive, got "
                        f"{m.avg_ms!r}", "avg_ms")
    want = _average(ms)
    if m.avg_ms != want and not (
            want and m.avg_ms and math.isclose(m.avg_ms, want, rel_tol=1e-9)):
        raise _rejected(lineno, f"avg_ms {m.avg_ms!r} is not the mean without "
                        f"the first two images ({want!r})", "avg_ms")
    if m.passed and not ms:
        raise _rejected(lineno, "passed is true but no image finished", "passed")


def load_suites(path):
    """Parse a JSONL file holding one or more concatenated suite results.

    This is the one reader of the result format.  Malformed lines and
    impossible records raise ``AggregationError`` naming the line and field.
    """
    suites = []
    current = None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise _rejected(lineno, f"invalid JSON: {e}") from None
            if not isinstance(doc, dict):
                raise _rejected(lineno, "record is not a JSON object")
            kind = doc.pop("type", None)
            if kind == "header":
                current = SuiteResult(metadata=doc)
                suites.append(current)
                seen_ids = set()
            elif kind in _RECORDS:
                if current is None:
                    raise _rejected(lineno, f"{kind} before header")
                record = _build(kind, doc, lineno)
                if kind == "measurement":
                    _check_measurement(record, seen_ids, lineno)
                    current.measurements.append(record)
                else:
                    current.memory_probe = record
            else:
                raise _rejected(lineno, f"unknown record type {kind!r}", "type")
    return suites
