"""Run one ``repro`` CLI command with the benchmark's layer wrappers installed.

Usage::

    python perfbench/trace_child.py SPANS.jsonl run residential-south --cache-dir DIR

Equivalent to ``python -m repro run residential-south --cache-dir DIR``,
except that every span the command records is written to ``SPANS.jsonl``
when it returns (``repro serve`` returns on SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer, install


def main(argv: list) -> int:
    spans_path = Path(argv[0])
    tracer = install(Tracer())
    import repro.cli

    try:
        return repro.cli.main(argv[1:])
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
