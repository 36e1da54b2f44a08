import pytest

from inferbench.errors import ScoringError
from inferbench.runner import Measurement, MemoryProbeResult, SuiteResult
from inferbench.scoring import (
    ReferenceProfile,
    aggregate_score,
    calibrate_profile,
    load_profile,
    save_profile,
    score_points,
)


def _profile(t_ref=None, l_ref=5.0, weights=None):
    return ReferenceProfile(
        name="p",
        t_ref_ms=t_ref or [100.0] * 8,
        l_ref_units=l_ref,
        weights=weights or [10.0] * 9,
    )


def _measurement(test_id, avg_ms, passed=True):
    return Measurement(test_id, "optimized", 5, [avg_ms] * 5, avg_ms, passed,
                       10.0)


def _suite(avgs, units=5):
    s = SuiteResult(metadata={})
    for t, avg in enumerate(avgs, start=1):
        s.measurements.append(_measurement(t, avg))
    s.memory_probe = MemoryProbeResult(units, "configured_cap", 0)
    return s


def test_score_is_inverse_runtime():
    # half the reference runtime earns double the weight
    points = score_points([50.0, 200.0] + [None] * 6, 0, _profile())
    assert points[:2] == [20.0, 5.0]


def test_failed_test_scores_zero():
    s = _suite([100.0] * 8)
    s.measurements[1] = _measurement(2, 50.0, passed=False)
    assert aggregate_score(s, _profile()).per_test_points[1] == 0.0


def test_score_memory_proportional_to_units():
    assert score_points([None] * 8, 10, _profile())[8] == 20.0


def test_aggregate_sums_all_nine():
    report = aggregate_score(_suite([100.0] * 8), _profile())
    assert report.total == pytest.approx(90.0)
    assert report.failed_tests == []


def test_missing_test_marked_failed():
    s = _suite([100.0] * 8)
    s.measurements = [m for m in s.measurements if m.test_id != 3]
    report = aggregate_score(s, _profile())
    assert 3 in report.failed_tests
    assert report.per_test_points[2] == 0.0


def test_linearity_halved_runtimes_doubled_memory():
    base = aggregate_score(_suite([100.0] * 8, units=5), _profile())
    fast = aggregate_score(_suite([50.0] * 8, units=10), _profile())
    assert fast.total == pytest.approx(2 * base.total)


def test_calibration_fixed_point():
    suite = _suite([83.0, 17.0, 210.0, 55.0, 98.0, 600.0, 31.0, 77.0], units=7)
    profile = calibrate_profile(suite, 1000.0)
    report = aggregate_score(suite, profile)
    assert report.total == pytest.approx(1000.0)
    # equal weights by construction
    assert all(w == pytest.approx(1000.0 / 9) for w in profile.weights)


def test_calibration_requires_all_passes():
    suite = _suite([100.0] * 8)
    suite.measurements[4].passed = False
    with pytest.raises(ScoringError):
        calibrate_profile(suite, 1000.0)


def test_calibration_rejects_nonpositive_target():
    with pytest.raises(ScoringError):
        calibrate_profile(_suite([100.0] * 8), 0.0)


def test_profile_validation():
    with pytest.raises(ScoringError):
        _profile(t_ref=[100.0] * 7).validate()
    with pytest.raises(ScoringError):
        _profile(t_ref=[0.0] * 8).validate()
    with pytest.raises(ScoringError):
        _profile(weights=[0.0] * 9).validate()
    _profile().validate()


def test_profile_file_roundtrip(tmp_path):
    p = _profile(t_ref=[float(i + 1) for i in range(8)])
    path = tmp_path / "p.json"
    save_profile(p, path)
    q = load_profile(path)
    assert q == p


def test_profile_file_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x"}')
    with pytest.raises(ScoringError):
        load_profile(path)


def test_cross_suite_score_ratio():
    """A machine twice as fast everywhere scores twice the calibrated total."""
    slow = _suite([200.0] * 8, units=4)
    fast = _suite([100.0] * 8, units=8)
    profile = calibrate_profile(slow, 900.0)
    assert aggregate_score(fast, profile).total == pytest.approx(1800.0)
