"""Quick self-test of the benchmark (a few minutes; not part of the tier-1 suite).

Run from the repository root::

    python -m pytest -q perfbench/test_selftest.py

Each workload runs once untraced and once traced at minimal length (one
unit of work after the usual set-ups).  The test checks that every metric named in
BENCHMARK.json is emitted with its unit, that nothing failed, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from common import tail

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload: str, trace: int) -> None:
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout[-3000:]
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        for metric in expected:
            assert f"{workload} {metric['name']} = " in done.stdout
        assert f"{workload} error_rate = 0 " in done.stdout


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tail_leaves_ten_samples_beyond() -> None:
    many = tail([float(v) for v in range(200)])
    assert (many.value, many.label, many.samples) == (189.0, "p95.0", 200)
    capped = tail([float(v) for v in range(5000)])
    assert (capped.value, capped.label) == (4749.0, "p95.0")
    assert tail([float(v) for v in range(20)]).value == 9.0
    few = tail([3.0, 1.0, 2.0])
    assert (few.label, few.value, few.samples) == ("max", 3.0, 3)
