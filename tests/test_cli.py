import json

import pytest

from inferbench.cli import main
from inferbench.runner import (
    Measurement,
    MemoryProbeResult,
    SuiteResult,
    save_suite,
)
from inferbench.scoring import ReferenceProfile, save_profile


@pytest.fixture()
def suite_file(tmp_path):
    s = SuiteResult(metadata={"device_name": "dev", "soc_name": "soc",
                              "ram_gb": 4.0})
    for t in range(1, 9):
        s.measurements.append(
            Measurement(t, "optimized", 5, [100.0] * 5, 100.0, True, 10.0)
        )
    s.memory_probe = MemoryProbeResult(5, "configured_cap", 0)
    path = tmp_path / "suite.jsonl"
    save_suite(s, path)
    return path


@pytest.fixture()
def profile_file(tmp_path):
    p = ReferenceProfile("unit", [100.0] * 8, 5.0, [10.0] * 9)
    path = tmp_path / "profile.json"
    save_profile(p, path)
    return path


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["score", str(tmp_path / "nope.jsonl")]) == 2


def test_invalid_profile_is_validation_error(suite_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    assert main(["score", str(suite_file), "--profile", str(bad)]) == 3


def _profile_doc(**changes):
    return {"name": "x", "t_ref_ms": [100.0] * 8, "l_ref_units": 5.0,
            "weights": [10.0] * 9, **changes}


@pytest.mark.parametrize("command", ["score", "rank"])
@pytest.mark.parametrize("doc, message", [
    (_profile_doc(t_ref_ms=[float("nan")] + [100.0] * 7),
     "t_ref_ms must be a list of finite numbers"),
    (_profile_doc(t_ref_ms=["100"] * 8),
     "t_ref_ms must be a list of finite numbers"),
    (_profile_doc(l_ref_units=float("inf")),
     "l_ref_units must be a finite number"),
    ([100.0] * 8, "must hold a JSON object"),
], ids=["nan-runtime", "string-runtime", "infinite-units", "not-an-object"])
def test_profile_with_bad_values_is_validation_error(
        suite_file, tmp_path, capsys, command, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main([command, str(suite_file), "--profile", str(bad)]) == 3
    out, err = capsys.readouterr()
    assert message in err
    assert "nan" not in out


@pytest.mark.parametrize("flag, value", [
    ("--threads", "0"), ("--budget-scale", "0"), ("--mem-cap", "-5"),
])
def test_run_rejects_a_value_not_above_zero(tmp_path, capsys, flag, value):
    out = tmp_path / "r.jsonl"
    assert main(["run", flag, value, "--out", str(out)]) == 1
    assert f"argument {flag}: must be > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, message", [
    ("0", "must be > 0"), ("-0.5", "must be > 0"), ("1.5", "must be <= 1"),
])
def test_run_rejects_a_scale_outside_the_unit_interval(tmp_path, capsys, value,
                                                       message):
    out = tmp_path / "r.jsonl"
    assert main(["run", "--scale", value, "--out", str(out)]) == 1
    assert f"argument --scale: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_score_command(suite_file, profile_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["score", str(suite_file), "--profile", str(profile_file),
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "total: 90.00" in text
    doc = json.loads(out.read_text())
    assert doc["total"] == pytest.approx(90.0)


def test_calibrate_then_score_fixed_point(suite_file, tmp_path, capsys):
    prof = tmp_path / "cal.json"
    assert main(["calibrate", str(suite_file), "--total", "1000",
                 "--out", str(prof)]) == 0
    assert main(["score", str(suite_file), "--profile", str(prof)]) == 0
    assert "total: 1000.00" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["score", "calibrate", "rank"])
@pytest.mark.parametrize("corrupt, message", [
    (lambda line: json.dumps({**json.loads(line), "bogus": 1}),
     "line 2: unexpected field 'bogus'"),
    (lambda line: json.dumps({k: v for k, v in json.loads(line).items()
                              if k != "passed"}),
     "line 2: missing field 'passed'"),
    (lambda line: "not json", "line 2: invalid JSON"),
], ids=["extra-field", "missing-field", "invalid-json"])
def test_malformed_result_file_is_validation_error(
        suite_file, profile_file, tmp_path, capsys, command, corrupt, message):
    lines = suite_file.read_text().splitlines()
    lines[1] = corrupt(lines[1])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    extra = (["--out", str(tmp_path / "p.json")] if command == "calibrate"
             else ["--profile", str(profile_file)])
    assert main([command, str(bad), *extra]) == 3
    assert message in capsys.readouterr().err


def test_rank_command_csv(suite_file, profile_file, tmp_path, capsys):
    out = tmp_path / "ranking.csv"
    rc = main(["rank", str(suite_file), "--profile", str(profile_file),
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("group,test1_ms")
    assert lines[1].startswith("dev,100.000")


def test_rank_env_profile_default(suite_file, profile_file, monkeypatch, capsys):
    monkeypatch.setenv("INFER_BENCH_PROFILE", str(profile_file))
    assert main(["rank", str(suite_file)]) == 0
    assert "| dev |" in capsys.readouterr().out


def test_inspect_srcnn_lists_three_convs(capsys):
    assert main(["inspect", "4", "--scale", "0.2"]) == 0
    text = capsys.readouterr().out
    assert text.count(" conv2d ") == 3
    assert "parameters: 69,251" in text


def test_inspect_quantized_weight_ratio(capsys):
    assert main(["inspect", "1", "--scale", "0.2"]) == 0
    text = capsys.readouterr().out
    assert "weight bytes (int8)" in text
    ratio = float(text.split("(")[-1].split("x")[0])
    assert abs(ratio - 4.0) < 0.2


def test_inspect_probe_aliases_deblurring(capsys):
    assert main(["inspect", "9", "--scale", "0.2"]) == 0
    assert "test 4" in capsys.readouterr().out


def test_inspect_unknown_test_is_validation_error(capsys):
    assert main(["inspect", "12"]) == 3


def test_run_tiny_suite(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    rc = main(["run", "--scale", "0.05", "--budget-scale", "0.05",
               "--threads", "2", "--mem-cap", str(6 * 2**20),
               "--out", str(out), "--device", "ci", "--soc", "ci-soc"])
    assert rc == 0
    lines = [json.loads(l) for l in out.read_text().strip().split("\n")]
    assert lines[0]["type"] == "header"
    assert sum(1 for l in lines if l["type"] == "measurement") == 8
    assert lines[-1]["type"] == "memory_probe"
