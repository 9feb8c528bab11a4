"""The benchmark gate script: verdicts, row statuses and trajectory points."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "compare_baseline.py"
_spec = importlib.util.spec_from_file_location("compare_baseline", _SCRIPT)
compare_baseline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_baseline)

MACHINE_INFO = {"node": "bench-host", "processor": "x86_64", "python_version": "3.11.7"}
COMMIT_INFO = {"id": "0123abcd", "dirty": True, "branch": "main"}


@pytest.fixture(autouse=True)
def no_ci_env(monkeypatch):
    for name in ("GITHUB_SHA", "GITHUB_RUN_ID", "GITHUB_REF"):
        monkeypatch.delenv(name, raising=False)


def _timings(path: Path, medians: dict, labels: bool = True) -> Path:
    payload = {
        "benchmarks": [
            {"fullname": name, "stats": {"median": median}, "extra_info": {}}
            for name, median in medians.items()
        ]
    }
    if labels:
        payload["machine_info"] = MACHINE_INFO
        payload["commit_info"] = COMMIT_INFO
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _baseline(path: Path, medians: dict) -> Path:
    compare_baseline.write_baseline(path, medians)
    return path


def _gate(tmp_path, current: dict, baseline: dict, *extra: str) -> int:
    timings = _timings(tmp_path / "timings.json", current)
    base = _baseline(tmp_path / "baseline.json", baseline)
    return compare_baseline.main(
        [str(timings), "--baseline", str(base), "--no-trajectory", *extra]
    )


@pytest.mark.parametrize("content", [None, "", "{not json"])
def test_incomplete_point_for_missing_or_empty_timings(tmp_path, content):
    timings = tmp_path / "timings.json"
    if content is not None:
        timings.write_text(content, encoding="utf-8")
    point = tmp_path / "trajectory" / "BENCH_x.json"
    with pytest.raises(SystemExit, match="no benchmark records"):
        compare_baseline.main([str(timings), "--trajectory", str(point)])
    written = json.loads(point.read_text(encoding="utf-8"))
    assert written["complete"] is False
    assert written["medians"] == {}
    assert written["machine_info"] == {} and written["commit_info"] == {}
    assert written["commit"] is None


def test_regression_beyond_tolerance_exits_1(tmp_path, capsys):
    assert _gate(tmp_path, {"a": 1.30}, {"a": 1.0}) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "1 regression(s) beyond tolerance" in out


def test_within_tolerance_and_improvement_pass(tmp_path, capsys):
    assert _gate(tmp_path, {"a": 1.20, "b": 0.5}, {"a": 1.0, "b": 1.0}) == 0
    out = capsys.readouterr().out
    assert "No regressions beyond tolerance." in out
    assert "| b | 1.000000 | 0.500000 | -50.0% | improved |" in out


def test_tolerance_option_is_honoured(tmp_path):
    assert _gate(tmp_path, {"a": 1.30}, {"a": 1.0}, "--tolerance", "0.5") == 0


def test_medians_below_min_seconds_are_exempt(tmp_path, capsys):
    # Doubling from 1 ms to 2 ms stays below the default 5 ms noise floor.
    assert _gate(tmp_path, {"fast": 0.002}, {"fast": 0.001}) == 0
    assert "noisy (below min-seconds floor)" in capsys.readouterr().out
    assert _gate(tmp_path, {"fast": 0.002}, {"fast": 0.001}, "--min-seconds", "0.001") == 1


def test_new_and_removed_rows_are_reported(tmp_path, capsys):
    assert _gate(tmp_path, {"kept": 1.0, "added": 2.0}, {"kept": 1.0, "gone": 3.0}) == 0
    out = capsys.readouterr().out
    assert "| added | - | 2.000000 | - | new |" in out
    assert "| gone | 3.000000 | - | - | removed |" in out
    rows = compare_baseline.compare(
        {"kept": 1.0, "added": 2.0}, {"kept": 1.0, "gone": 3.0}, 0.25, 0.005
    )
    assert {row["name"]: row["status"] for row in rows} == {
        "kept": "ok",
        "added": "new",
        "gone": "removed",
    }


def test_point_carries_machine_and_commit_labels(tmp_path):
    timings = _timings(tmp_path / "timings.json", {"a": 1.0})
    base = _baseline(tmp_path / "baseline.json", {"a": 1.0})
    point = tmp_path / "BENCH_local.json"
    assert compare_baseline.main(
        [str(timings), "--baseline", str(base), "--trajectory", str(point)]
    ) == 0
    written = json.loads(point.read_text(encoding="utf-8"))
    assert written["complete"] is True
    assert written["medians"] == {"a": 1.0}
    assert written["machine_info"] == MACHINE_INFO
    assert written["commit_info"] == COMMIT_INFO
    # Outside CI the commit comes from the benchmarked checkout.
    assert written["commit"] == "0123abcd"


def test_ci_sha_takes_precedence_over_commit_info(tmp_path, monkeypatch):
    monkeypatch.setenv("GITHUB_SHA", "feedface")
    timings = _timings(tmp_path / "timings.json", {"a": 1.0})
    point = tmp_path / "BENCH_ci.json"
    compare_baseline.main(
        [str(timings), "--baseline", str(_baseline(tmp_path / "b.json", {"a": 1.0})),
         "--trajectory", str(point)]
    )
    written = json.loads(point.read_text(encoding="utf-8"))
    assert written["commit"] == "feedface"
    assert written["commit_info"] == COMMIT_INFO


def test_unlabelled_timings_still_write_a_point(tmp_path):
    timings = _timings(tmp_path / "timings.json", {"a": 1.0}, labels=False)
    point = tmp_path / "BENCH_old.json"
    compare_baseline.main(
        [str(timings), "--baseline", str(_baseline(tmp_path / "b.json", {"a": 1.0})),
         "--trajectory", str(point)]
    )
    written = json.loads(point.read_text(encoding="utf-8"))
    assert written["commit"] is None
    assert written["machine_info"] == {} and written["commit_info"] == {}


def test_update_rewrites_baseline_from_run(tmp_path):
    timings = _timings(tmp_path / "timings.json", {"a": 0.5, "b": 2.0})
    base = _baseline(tmp_path / "baseline.json", {"a": 1.0})
    assert compare_baseline.main(
        [str(timings), "--baseline", str(base), "--no-trajectory", "--update"]
    ) == 0
    assert compare_baseline.load_baseline(base) == {"a": 0.5, "b": 2.0}
