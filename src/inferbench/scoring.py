"""Inverse-runtime scoring against a stored reference profile.

Each timed test scores w[i] * t_ref[i] / avg_ms; the memory probe scores
proportionally to the reached resolution.  A profile is calibrated by
fixing t_ref/L_ref to a machine's measured suite so that machine scores
exactly the chosen total.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ScoringError
from .runner import SuiteResult


@dataclass
class ReferenceProfile:
    name: str
    t_ref_ms: list  # per-test reference runtimes, tests 1..8
    l_ref_units: float  # reference memory-probe resolution units
    weights: list  # per-test weights, tests 1..9

    def validate(self):
        if len(self.t_ref_ms) != 8 or len(self.weights) != 9:
            raise ScoringError("profile needs 8 runtimes and 9 weights")
        if any(t <= 0 for t in self.t_ref_ms):
            raise ScoringError("reference runtimes must be positive")
        if self.l_ref_units < 1:
            raise ScoringError("reference memory units must be >= 1")
        if any(w < 0 for w in self.weights) or not any(self.weights):
            raise ScoringError("weights must be non-negative, at least one > 0")


@dataclass
class ScoreReport:
    per_test_points: list  # indices 0..8 = tests 1..9
    total: float
    profile_name: str
    failed_tests: list = field(default_factory=list)


def score_points(per_test_ms, memory_units, profile: ReferenceProfile) -> list:
    """Points for tests 1..9 from raw numbers.

    ``per_test_ms`` holds the average runtimes of tests 1..8, None where a
    test earns nothing; ``memory_units`` is the probe's resolution.
    """
    profile.validate()
    points = [
        0.0 if ms is None else w * t_ref / ms
        for w, t_ref, ms in zip(profile.weights, profile.t_ref_ms, per_test_ms)
    ]
    points.append(profile.weights[8] * memory_units / profile.l_ref_units)
    return points


def scored_runtimes(suite: SuiteResult) -> list:
    """The runtime each of tests 1..8 scores: avg_ms, None if failed or missing."""
    per_test_ms = [None] * 8
    for m in suite.measurements:
        if not 1 <= m.test_id <= 8:
            raise ScoringError(f"test_id {m.test_id} is not a timed test")
        if m.passed and m.avg_ms is not None and m.avg_ms <= 0:
            raise ScoringError(f"test {m.test_id}: avg_ms must be positive")
        per_test_ms[m.test_id - 1] = m.avg_ms if m.passed else None
    return per_test_ms


def aggregate_score(suite: SuiteResult, profile: ReferenceProfile) -> ScoreReport:
    per_test_ms = scored_runtimes(suite)
    failed = [t for t, ms in enumerate(per_test_ms, start=1) if ms is None]
    probe = suite.memory_probe
    units = 0 if probe is None else probe.max_resolution_units
    if units < 1:
        failed.append(9)
    points = score_points(per_test_ms, units, profile)
    return ScoreReport(
        per_test_points=points,
        total=sum(points),
        profile_name=profile.name,
        failed_tests=failed,
    )


def calibrate_profile(suite: SuiteResult, total_target: float,
                      name="calibrated") -> ReferenceProfile:
    """Profile under which the calibrating suite scores exactly the target."""
    if total_target <= 0:
        raise ScoringError("total_target must be positive")
    t_ref = scored_runtimes(suite)
    if None in t_ref:
        raise ScoringError(
            f"cannot calibrate: test {t_ref.index(None) + 1} did not pass")
    probe = suite.memory_probe
    if probe is None or probe.max_resolution_units < 1:
        raise ScoringError("cannot calibrate: memory probe did not pass")
    profile = ReferenceProfile(
        name=name,
        t_ref_ms=t_ref,
        l_ref_units=float(probe.max_resolution_units),
        weights=[total_target / 9.0] * 9,
    )
    profile.validate()
    return profile


def save_profile(profile: ReferenceProfile, path):
    profile.validate()
    doc = {
        "name": profile.name,
        "t_ref_ms": profile.t_ref_ms,
        "l_ref_units": profile.l_ref_units,
        "weights": profile.weights,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)


def _finite_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def load_profile(path) -> ReferenceProfile:
    """Read a profile file, rejecting anything but finite numeric values."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ScoringError("profile file must hold a JSON object")
    try:
        profile = ReferenceProfile(
            name=doc["name"],
            t_ref_ms=doc["t_ref_ms"],
            l_ref_units=doc["l_ref_units"],
            weights=doc["weights"],
        )
    except KeyError as e:
        raise ScoringError(f"profile file missing field {e}") from None
    for field_name in ("t_ref_ms", "weights"):
        values = getattr(profile, field_name)
        if not isinstance(values, list) or not all(map(_finite_number, values)):
            raise ScoringError(f"profile {field_name} must be a list of finite numbers")
    if not _finite_number(profile.l_ref_units):
        raise ScoringError("profile l_ref_units must be a finite number")
    profile.validate()
    return profile
