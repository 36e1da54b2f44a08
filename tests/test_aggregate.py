import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferbench.aggregate import (
    DeviceRecord,
    export,
    ingest,
    ingest_dir,
    rank,
    remove_outliers,
)
from inferbench.errors import AggregationError
from inferbench.runner import (
    Measurement,
    MemoryProbeResult,
    SuiteResult,
    save_suite,
)
from inferbench.scoring import ReferenceProfile

PROFILE = ReferenceProfile("p", [100.0] * 8, 5.0, [10.0] * 9)


def _suite(device, soc, avg_ms, units):
    s = SuiteResult(metadata={"device_name": device, "soc_name": soc,
                              "ram_gb": 4.0})
    for t in range(1, 9):
        s.measurements.append(
            Measurement(t, "optimized", 5, [avg_ms] * 5, avg_ms, True, 10.0)
        )
    s.memory_probe = MemoryProbeResult(units, "configured_cap", 0)
    return s


def _record(device, soc, avg_ms, units):
    return DeviceRecord(device, soc, 4.0, {}, _suite(device, soc, avg_ms, units))


# --- outlier filter -------------------------------------------------------


def test_outlier_fixture_filters_to_100():
    kept = remove_outliers([100, 102, 98, 1000])
    assert kept == [100, 102, 98]
    assert sum(kept) / len(kept) == 100.0


def test_zero_mad_drops_nothing():
    assert remove_outliers([100, 100, 100, 5000]) == [100, 100, 100, 5000]


def test_drop_cap_30_percent():
    # three wild values in ten: exactly floor(0.3 * 10) = 3 may go
    xs = [100, 101, 99, 100, 101, 99, 100, 900, 1000, 1100]
    assert sorted(remove_outliers(xs)) == [99, 99, 100, 100, 100, 101, 101]


def test_drop_cap_prefers_largest_deviation():
    xs = [100, 101, 99, 100, 101, 99, 5000, 9000, 7000]
    kept = remove_outliers(xs)  # floor(0.3 * 9) = 2 drops: 9000 then 7000
    assert 5000 in kept and 9000 not in kept and 7000 not in kept


def test_filter_idempotent():
    xs = [100.0, 102.0, 98.0, 1000.0]
    once = remove_outliers(xs)
    assert remove_outliers(once) == once


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1, 1e6, allow_nan=False), min_size=1, max_size=20))
def test_filter_permutation_invariant(xs):
    forward = sorted(remove_outliers(xs))
    backward = sorted(remove_outliers(list(reversed(xs))))
    assert forward == backward


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1, 1e6, allow_nan=False), min_size=1, max_size=20))
def test_filter_never_drops_more_than_30_percent(xs):
    kept = remove_outliers(xs)
    assert len(kept) >= len(xs) - int(0.3 * len(xs))


# --- ingestion ------------------------------------------------------------


def test_ingest_roundtrip(tmp_path):
    path = tmp_path / "r.jsonl"
    save_suite(_suite("pixel", "sdm845", 100.0, 5), path)
    records = ingest(path)
    assert len(records) == 1
    assert records[0].device_name == "pixel"
    assert records[0].soc_name == "sdm845"
    assert len(records[0].suite.measurements) == 8


def test_ingest_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "header", "device_name": "a", "soc_name": "s"}\n'
                    "not json\n")
    with pytest.raises(AggregationError) as e:
        ingest(path)
    assert e.value.line == 2


def test_ingest_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    doc = {"type": "measurement", "test_id": 1}
    path.write_text('{"type": "header", "device_name": "a", "soc_name": "s"}\n'
                    + json.dumps(doc) + "\n")
    with pytest.raises(AggregationError) as e:
        ingest(path)
    assert e.value.line == 2
    assert e.value.field == "backend_id"


def test_ingest_rejects_header_without_device(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "header", "soc_name": "s"}\n')
    with pytest.raises(AggregationError) as e:
        ingest(path)
    assert e.value.field == "device_name"


def test_ingest_rejects_measurement_before_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "measurement", "test_id": 1}\n')
    with pytest.raises(AggregationError):
        ingest(path)


_HEADER_LINE = '{"type": "header", "device_name": "a", "soc_name": "s"}\n'
NAN, INF = float("nan"), float("inf")


def _measurement_line(**changes):
    m = Measurement(1, "optimized", 5, [50.0, 50.0, 10.0, 10.0, 10.0], 10.0,
                    True, 10.0)
    return json.dumps({"type": "measurement", **asdict(m), **changes}) + "\n"


@pytest.mark.parametrize("lines, field", [
    ([_measurement_line(avg_ms=NAN)], "avg_ms"),
    ([_measurement_line(avg_ms=-10.0)], "avg_ms"),
    ([_measurement_line(per_image_ms=[50.0, 50.0, 10.0, INF, 10.0])],
     "per_image_ms"),
    ([_measurement_line(per_image_ms=[50.0, 50.0, 10.0, 0.0, 10.0])],
     "per_image_ms"),
    ([_measurement_line(test_id=0)], "test_id"),
    ([_measurement_line(test_id=9)], "test_id"),
    ([_measurement_line(), _measurement_line()], "test_id"),
    ([_measurement_line(images_processed=6)], "images_processed"),
    ([_measurement_line(avg_ms=26.0)], "avg_ms"),  # mean of all five
    ([_measurement_line(avg_ms=None)], "avg_ms"),
    ([_measurement_line(images_processed=0, per_image_ms=[])], "avg_ms"),
    # a failed test without images is a possible record
    ([_measurement_line(images_processed=0, per_image_ms=[], avg_ms=None,
                        passed=False)], None),
    # a test passes only if its first image finished in budget
    ([_measurement_line(images_processed=0, per_image_ms=[], avg_ms=None)],
     "passed"),
], ids=["nan-avg", "negative-avg", "infinite-image", "zero-image",
        "test-id-0", "test-id-9", "duplicate-test-id", "image-count",
        "avg-keeps-first-two", "null-avg-with-images", "avg-without-images",
        "failed-without-images", "passed-without-images"])
def test_ingest_rejects_impossible_record(tmp_path, lines, field):
    path = tmp_path / "r.jsonl"
    path.write_text(_HEADER_LINE + "".join(lines))
    if field is None:
        assert len(ingest(path)[0].suite.measurements) == 1
        return
    with pytest.raises(AggregationError) as e:
        ingest(path)
    assert e.value.field == field
    assert e.value.line == 1 + len(lines)


def test_ingest_dir_collects_all_files(tmp_path):
    save_suite(_suite("a", "s1", 100.0, 5), tmp_path / "a.jsonl")
    save_suite(_suite("b", "s2", 100.0, 5), tmp_path / "b.jsonl")
    records = ingest_dir(tmp_path)
    assert sorted(r.device_name for r in records) == ["a", "b"]


# --- ranking --------------------------------------------------------------


def test_rank_groups_and_sorts_by_score():
    records = [
        _record("alpha", "socX", 100.0, 5),
        _record("alpha", "socX", 100.0, 5),
        _record("bravo", "socY", 50.0, 10),
    ]
    rows = rank(records, "device", PROFILE)
    assert [r.group_key for r in rows] == ["bravo", "alpha"]
    assert rows[0].ai_score == pytest.approx(180.0)
    assert rows[1].ai_score == pytest.approx(90.0)
    assert rows[1].sample_count == 2


def test_rank_by_soc():
    records = [
        _record("a", "socX", 100.0, 5),
        _record("b", "socX", 100.0, 5),
        _record("c", "socY", 200.0, 5),
    ]
    rows = rank(records, "soc", PROFILE)
    assert [r.group_key for r in rows] == ["socX", "socY"]
    assert rows[0].sample_count == 2


def test_rank_ties_break_lexicographically():
    records = [
        _record("zed", "s", 100.0, 5),
        _record("ann", "s2", 100.0, 5),
    ]
    rows = rank(records, "device", PROFILE)
    assert [r.group_key for r in rows] == ["ann", "zed"]


def test_rank_score_recomputed_from_aggregated_metrics():
    """Scores come from aggregated runtimes, not averaged per-record scores."""
    records = [
        _record("d", "s", 50.0, 5),
        _record("d", "s", 150.0, 5),
    ]
    rows = rank(records, "device", PROFILE)
    # mean runtime 100 -> 10 points/test; the mean of per-record scores
    # (20 and 6.67) would be 13.3 instead
    assert rows[0].per_test_ms[0] == pytest.approx(100.0)
    assert rows[0].ai_score == pytest.approx(90.0)


def test_rank_failed_tests_excluded_from_mean():
    rec = _record("d", "s", 100.0, 5)
    rec.suite.measurements[0].passed = False
    good = _record("d", "s", 50.0, 5)
    rows = rank([rec, good], "device", PROFILE)
    assert rows[0].per_test_ms[0] == pytest.approx(50.0)


def test_rank_rejects_unknown_group():
    with pytest.raises(AggregationError):
        rank([], "vendor", PROFILE)


# --- export ---------------------------------------------------------------

GOLDEN_CSV = (
    "group,test1_ms,test2_ms,test3_ms,test4_ms,test5_ms,test6_ms,test7_ms,"
    "test8_ms,test9_100px,ai_score,samples\n"
    "charlie,50.000,50.000,50.000,50.000,50.000,50.000,50.000,50.000,"
    "10.00,180.00,2\n"
    "alpha,100.000,100.000,100.000,100.000,100.000,100.000,100.000,100.000,"
    "5.00,90.00,2\n"
    "bravo,100.000,100.000,100.000,100.000,100.000,100.000,100.000,100.000,"
    "5.00,90.00,2\n"
)


def _six_record_fixture():
    return [
        _record("alpha", "s1", 100.0, 5),
        _record("alpha", "s1", 100.0, 5),
        _record("bravo", "s2", 50.0, 4),
        _record("bravo", "s2", 150.0, 6),
        _record("charlie", "s3", 50.0, 10),
        _record("charlie", "s3", 50.0, 10),
    ]


def test_golden_csv_byte_for_byte():
    rows = rank(_six_record_fixture(), "device", PROFILE)
    assert export(rows, "csv") == GOLDEN_CSV


def test_markdown_export_shape():
    rows = rank(_six_record_fixture(), "device", PROFILE)
    text = export(rows, "markdown")
    lines = text.strip().split("\n")
    assert len(lines) == 2 + 3
    assert lines[0].startswith("| group |")
    assert "| charlie |" in lines[2]


def test_json_export_parses():
    rows = rank(_six_record_fixture(), "device", PROFILE)
    docs = json.loads(export(rows, "json"))
    assert [d["group"] for d in docs] == ["charlie", "alpha", "bravo"]
    assert docs[0]["ai_score"] == pytest.approx(180.0)


def test_unknown_format_rejected():
    with pytest.raises(AggregationError):
        export([], "xml")
