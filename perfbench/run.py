"""Benchmark entry point.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload sweep-warm --seed 7 --seconds 15 --trace 0

Prints every metric by name and unit, the run's provenance, and as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Exits non-zero, without a result, when the
checkout holds no program or a workload cannot be set up.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import sys

from common import (
    OUT_ROOT, ROOT, SRC, WORK_ROOT, BenchError, checkout_ok, provenance, scrub_repro_env,
)
from workloads import WORKLOADS


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (7 = the paper configuration's weather)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time; whole units of work always complete")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = parse_args(argv)
    if not checkout_ok():
        print(f"error: no program sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    repro_env = scrub_repro_env()
    sys.path.insert(0, str(SRC))
    # Byte-compile up front so no run pays compilation inside a measurement.
    compileall.compile_dir(str(SRC), quiet=2)

    # BENCHMARK.json lists the metrics each mode reports, with their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
        missing = [metric["name"] for metric in wanted if metric["name"] not in outcome.metrics]
        if missing:
            raise BenchError(f"no value for {', '.join(missing)}")
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        # Private caches and stores live under WORK_ROOT; nothing is kept.
        shutil.rmtree(WORK_ROOT, ignore_errors=True)

    info = provenance(args.seed, repro_env)
    info.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    print("provenance: " + json.dumps(info, sort_keys=True))
    metrics = {
        metric["name"]: {"value": float(outcome.metrics[metric["name"]]), "unit": metric["unit"]}
        for metric in wanted
    }
    for name, entry in metrics.items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    for name, text in sorted(outcome.notes.items()):
        print(f"{args.workload} {name}: {text}")
    if args.trace:
        print(f"{args.workload} spans written under {OUT_ROOT}")
    print(f"{args.workload} error_rate = {outcome.error_rate:.6g} "
          f"({outcome.failed} failed / {outcome.attempted} attempted)")
    for failure in outcome.failures:
        print(f"{args.workload} FAILED: {failure}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
