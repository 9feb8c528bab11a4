"""Gate benchmark timings against the tracked baseline.

CI's scheduled/dispatched bench job runs the suite with
``--benchmark-json bench-timings.json`` and then calls this script, which

1. compares each benchmark's median against
   ``benchmarks/baselines/bench-baseline.json`` and **fails** (exit 1) when
   any benchmark regressed by more than ``--tolerance`` (default 25 %),
2. prints a Markdown delta table (and appends it to ``--summary``, which CI
   points at ``$GITHUB_STEP_SUMMARY`` so the table lands in the job page),
3. writes a trajectory point (``BENCH_<run>.json``) holding the run's
   medians plus the machine and commit it ran on, archived as an artifact
   so the benchmark history accumulates run over run.  When
   ``--trajectory`` is omitted the point is written next to the timings
   file as ``BENCH_<run_id>.json`` (``$GITHUB_RUN_ID``, or a local
   timestamp outside CI) -- local runs
   accumulate history too instead of silently writing nothing.  Pass
   ``--no-trajectory`` to opt out.

Benchmarks absent from the baseline are reported as *new* (never failing);
baseline entries missing from the run are reported as *removed*.  Medians
below ``--min-seconds`` are exempt from the gate -- sub-millisecond timings
on shared CI runners are dominated by noise, not by code.

Refresh the committed baseline after an intentional performance change::

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json bench-timings.json
    python benchmarks/compare_baseline.py bench-timings.json --update

Only the Python standard library is used, so the gate runs before the
project's own dependencies are even imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baselines" / "bench-baseline.json"

#: Baseline file format marker.
BASELINE_FORMAT_VERSION = 1


def _read_timings(timings_path: Path) -> dict:
    """Parse a pytest-benchmark JSON; ``{}`` when missing or unparsable."""
    if not timings_path.exists():
        return {}
    try:
        return json.loads(timings_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return {}


def load_run_medians(timings_path: Path) -> Dict[str, float]:
    """Extract ``{fullname: median_seconds}`` from a pytest-benchmark JSON.

    Tolerant of a missing, unparsable, or empty timings file (a crashed
    bench session): returns ``{}`` so the caller can still write a
    trajectory point recording that the run produced no medians, and gate
    afterwards.
    """
    medians: Dict[str, float] = {}
    for bench in _read_timings(timings_path).get("benchmarks", []):
        medians[bench["fullname"]] = float(bench["stats"]["median"])
    return medians


def load_run_extra_info(timings_path: Path) -> Dict[str, dict]:
    """Extract ``{fullname: extra_info}`` for benchmarks that published any.

    Benchmarks attach derived figures -- the serve bench's warm-hit
    p50/p99, throughput -- via ``benchmark.extra_info``; carrying them into
    the trajectory point keeps percentile history alongside the medians.
    Tolerant of missing/unparsable timings, like :func:`load_run_medians`.
    """
    extra: Dict[str, dict] = {}
    for bench in _read_timings(timings_path).get("benchmarks", []):
        info = bench.get("extra_info") or {}
        if info:
            extra[bench["fullname"]] = info
    return extra


def load_run_labels(timings_path: Path) -> Tuple[dict, dict]:
    """pytest-benchmark's ``(machine_info, commit_info)`` for the run.

    They say where a trajectory point was measured (host, CPU, Python) and
    on which commit, dirty or not.  Empty dicts when the timings file is
    missing or unparsable.
    """
    data = _read_timings(timings_path)
    return data.get("machine_info") or {}, data.get("commit_info") or {}


def load_baseline(baseline_path: Path) -> Dict[str, float]:
    """Read the committed baseline medians."""
    data = json.loads(baseline_path.read_text(encoding="utf-8"))
    return {name: float(median) for name, median in data["medians"].items()}


def write_baseline(baseline_path: Path, medians: Dict[str, float]) -> None:
    """(Re)write the committed baseline file deterministically."""
    baseline_path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format_version": BASELINE_FORMAT_VERSION,
        "note": (
            "Median benchmark timings in seconds; refresh with "
            "`python benchmarks/compare_baseline.py <timings.json> --update` "
            "after intentional performance changes."
        ),
        "medians": {name: medians[name] for name in sorted(medians)},
    }
    baseline_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def render_table(rows: List[dict]) -> str:
    """Markdown delta table, worst regressions first."""
    lines = [
        "| benchmark | baseline (s) | current (s) | delta | status |",
        "|---|---:|---:|---:|---|",
    ]
    for row in rows:
        baseline = "-" if row["baseline"] is None else f"{row['baseline']:.6f}"
        current = "-" if row["current"] is None else f"{row['current']:.6f}"
        delta = "-" if row["delta"] is None else f"{row['delta']:+.1%}"
        lines.append(
            f"| {row['name']} | {baseline} | {current} | {delta} | {row['status']} |"
        )
    return "\n".join(lines) + "\n"


def compare(
    current: Dict[str, float],
    baseline: Dict[str, float],
    tolerance: float,
    min_seconds: float,
) -> List[dict]:
    """Join current and baseline medians into annotated comparison rows."""
    rows: List[dict] = []
    for name in sorted(set(current) | set(baseline)):
        cur = current.get(name)
        base = baseline.get(name)
        if base is None:
            rows.append(
                {"name": name, "baseline": None, "current": cur, "delta": None,
                 "status": "new"}
            )
            continue
        if cur is None:
            rows.append(
                {"name": name, "baseline": base, "current": None, "delta": None,
                 "status": "removed"}
            )
            continue
        delta = (cur - base) / base if base > 0 else 0.0
        if delta > tolerance and cur >= min_seconds:
            status = "REGRESSION"
        elif delta > tolerance:
            status = "noisy (below min-seconds floor)"
        elif delta < -tolerance:
            status = "improved"
        else:
            status = "ok"
        rows.append(
            {"name": name, "baseline": base, "current": cur, "delta": delta,
             "status": status}
        )
    rows.sort(key=lambda row: -(row["delta"] or 0.0))
    return rows


def default_trajectory_path(timings_path: Path) -> Path:
    """``BENCH_<run_id>.json`` next to the timings file.

    ``run_id`` is ``$GITHUB_RUN_ID`` on CI; locally it falls back to a
    UTC timestamp so repeated local runs do not overwrite each other.
    """
    run_id = os.environ.get("GITHUB_RUN_ID") or time.strftime(
        "local-%Y%m%dT%H%M%SZ", time.gmtime()
    )
    return timings_path.resolve().parent / f"BENCH_{run_id}.json"


def write_trajectory(
    path: Path,
    medians: Dict[str, float],
    extra_info: Optional[Dict[str, dict]] = None,
    machine_info: Optional[dict] = None,
    commit_info: Optional[dict] = None,
) -> None:
    """Write one benchmark-history point.

    ``complete`` is False when the bench session produced no medians (it
    crashed or was interrupted), so the archived history shows the gap
    instead of silently skipping the run.  ``extra_info`` carries published
    per-benchmark figures (e.g. serve warm-hit p50/p99) verbatim.
    ``machine_info`` and ``commit_info`` are pytest-benchmark's labels of
    the run, copied verbatim; ``commit`` is ``$GITHUB_SHA`` on CI and the
    benchmarked checkout's ``commit_info.id`` elsewhere.
    """
    extra_info = extra_info or {}
    commit_info = commit_info or {}
    payload = {
        "format_version": BASELINE_FORMAT_VERSION,
        "commit": os.environ.get("GITHUB_SHA") or commit_info.get("id"),
        "run_id": os.environ.get("GITHUB_RUN_ID"),
        "ref": os.environ.get("GITHUB_REF"),
        "complete": bool(medians),
        "machine_info": machine_info or {},
        "commit_info": commit_info,
        "medians": {name: medians[name] for name in sorted(medians)},
        "extra_info": {name: extra_info[name] for name in sorted(extra_info)},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("timings", type=Path, help="pytest-benchmark JSON output")
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE, help="tracked baseline file"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="fractional regression threshold (default: 0.25 = 25%%)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.005,
        help="medians below this are exempt from the gate (CI noise floor)",
    )
    parser.add_argument(
        "--summary",
        type=Path,
        default=None,
        help="append the delta table to this file (e.g. $GITHUB_STEP_SUMMARY)",
    )
    parser.add_argument(
        "--trajectory",
        type=Path,
        default=None,
        help=(
            "write this run's BENCH_*.json history point here "
            "(default: BENCH_<run_id>.json next to the timings file)"
        ),
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip writing the trajectory point entirely",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the run instead of gating against it",
    )
    args = parser.parse_args(argv)

    current = load_run_medians(args.timings)

    # The trajectory point is written before any gating, so every run --
    # CI or local -- leaves its BENCH_<run_id>.json behind, including runs
    # whose bench session failed and produced no (or partial) medians.
    if not args.no_trajectory:
        trajectory = (
            args.trajectory
            if args.trajectory is not None
            else default_trajectory_path(args.timings)
        )
        machine_info, commit_info = load_run_labels(args.timings)
        write_trajectory(
            trajectory,
            current,
            load_run_extra_info(args.timings),
            machine_info=machine_info,
            commit_info=commit_info,
        )
        print(f"trajectory point written to {trajectory}")

    if not current:
        raise SystemExit(f"error: {args.timings} contains no benchmark records")

    if args.update:
        write_baseline(args.baseline, current)
        print(f"baseline updated with {len(current)} medians at {args.baseline}")
        return 0

    if not args.baseline.exists():
        raise SystemExit(
            f"error: baseline {args.baseline} does not exist; create it with --update"
        )
    baseline = load_baseline(args.baseline)
    rows = compare(current, baseline, args.tolerance, args.min_seconds)
    table = render_table(rows)
    regressions = [row for row in rows if row["status"] == "REGRESSION"]

    heading = (
        f"## Benchmark comparison ({len(current)} benchmarks, "
        f"tolerance {args.tolerance:.0%})\n\n"
    )
    verdict = (
        f"**{len(regressions)} regression(s) beyond tolerance.**\n"
        if regressions
        else "No regressions beyond tolerance.\n"
    )
    report = heading + table + "\n" + verdict
    print(report)
    if args.summary is not None:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(report)

    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
