"""Shared plumbing of the benchmark: paths, child processes, statistics, provenance.

Nothing here imports the program under test, so the yardstick (clocks,
percentiles, process accounting) cannot move when the program changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Set

#: Directory the benchmark runs from: the root of a checkout of the repository.
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Scratch space for private caches and stores; removed when a run ends.
WORK_ROOT = ROOT / ".perfbench_work"
#: Span files of traced runs; kept after the run for inspection.
OUT_ROOT = ROOT / ".perfbench_out"

#: How often each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPS = 3
#: A child process (CLI call, set-up step, server) that runs longer than this is killed.
CHILD_TIMEOUT_S = 150.0

#: The tail statistic leaves at least this many samples beyond it ...
TAIL_BEYOND = 10
#: ... and is never above this percentile.
TAIL_MAX_PERCENTILE = 95.0


class BenchError(RuntimeError):
    """The benchmark could not set up or run a workload (no result is printed)."""


def checkout_ok() -> bool:
    """True when the working directory holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def scrub_repro_env() -> Dict[str, str]:
    """Remove every ``REPRO_*`` variable from this process; return what was set.

    An armed ``REPRO_FAULTS`` or ``REPRO_CACHE_MMAP=0`` left in the caller's
    shell would otherwise skew the run.  The removed values are reported in
    the provenance block.
    """
    found = {key: value for key, value in os.environ.items() if key.startswith("REPRO_")}
    for key in found:
        del os.environ[key]
    return dict(sorted(found.items()))


def child_env(unbuffered: bool = False) -> Dict[str, str]:
    """Environment for a child process: no ``REPRO_*``, the checkout's sources first."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    paths = [str(SRC)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def make_workdir(tag: str) -> Path:
    """A fresh private directory under the run's scratch space."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def current_rss_mb() -> float:
    """Resident set size of this process right now, in MB."""
    with open("/proc/self/statm", "rb") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class ChildResult:
    """Outcome of one child process: exit code, wall time and its own peak RSS."""

    code: int
    wall_s: float
    peak_rss_mb: float
    log: Path

    def tail(self, lines: int = 15) -> str:
        try:
            text = self.log.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


def python_argv(*args: str) -> List[str]:
    return [sys.executable, *args]


def run_child(argv: Sequence[str], log: Path) -> ChildResult:
    """Run a child to completion, timing it and reading its own rusage.

    ``os.wait4`` reports the child's peak RSS alone, which
    ``RUSAGE_CHILDREN`` cannot (it keeps the maximum over every child ever
    reaped).  A watchdog kills a child that outlives ``CHILD_TIMEOUT_S``.
    """
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=out, stderr=subprocess.STDOUT, cwd=ROOT,
            env=child_env(),
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, log)


class Server:
    """A long-running child (``repro serve``) with its stdout in a file."""

    def __init__(self, argv: Sequence[str], log: Path) -> None:
        self.log = log
        self._out = open(log, "wb")
        self.proc = subprocess.Popen(
            list(argv), stdout=self._out, stderr=subprocess.STDOUT, cwd=ROOT,
            env=child_env(unbuffered=True),
        )
        self.peak_rss_mb = 0.0

    def wait_for_line(self, prefix: str, timeout_s: float = 60.0) -> str:
        """Block until the child prints a line starting with ``prefix``."""
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            for line in self.log.read_text(encoding="utf-8", errors="replace").splitlines():
                if line.startswith(prefix):
                    return line
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise BenchError(f"server never printed {prefix!r}; log:\n{self.log.read_text()}")

    def pin(self, cpus: Set[int]) -> None:
        """Bind every thread of the server to ``cpus`` (threads it starts later inherit)."""
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            os.sched_setaffinity(int(task.name), cpus)

    def stop(self) -> int:
        """SIGTERM, reap (killing after a grace period), record peak RSS."""
        if self.proc.returncode is None:
            self.proc.terminate()
            watchdog = threading.Timer(30.0, self.proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(self.proc.pid, 0)
            finally:
                watchdog.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._out.close()
        return self.proc.returncode


#: Busy loop at the lowest scheduling class, bound to one CPU, for a bounded time.
_SPINNER = (
    "import os, sys, time\n"
    "os.sched_setaffinity(0, {int(sys.argv[1])})\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "end = time.monotonic() + float(sys.argv[2])\n"
    "while time.monotonic() < end:\n"
    "    pass\n"
)


@contextlib.contextmanager
def cpus_kept_awake(cpus: Set[int]) -> Iterator[None]:
    """Keep ``cpus`` from idling while the block runs.

    On a virtual machine an idle CPU is handed back to the host, and waking
    it again costs a host-dependent delay.  A request/response exchange
    between two processes idles a CPU on every hop, so without this its
    latency follows the host's load more than the program's work.  Each CPU
    gets a busy loop in the ``SCHED_IDLE`` class, which runs only when
    nothing else on that CPU wants to and yields at once when something
    does.  The loops are stopped and reaped when the block ends (and end by
    themselves after ``CHILD_TIMEOUT_S``).
    """
    spinners = [
        subprocess.Popen(python_argv("-c", _SPINNER, str(cpu), str(CHILD_TIMEOUT_S)))
        for cpu in sorted(cpus)
    ]
    try:
        yield
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait()


# ---------------------------------------------------------------------------
# Statistics (computed here, never through the program's telemetry)
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


@dataclass
class Tail:
    """The tail statistic of a sample and how it was chosen."""

    value: float
    label: str
    samples: int


def tail(values: Sequence[float]) -> Tail:
    """The highest percentile, at most p95, with at least ``TAIL_BEYOND`` samples beyond it.

    That is the ``beyond + 1``-th largest sample, at percentile
    ``100 * (n - beyond) / n``, where ``beyond`` is ``TAIL_BEYOND`` or, for
    large samples, the share above ``TAIL_MAX_PERCENTILE`` (a single
    scheduler stall would otherwise set the tail of a thousands-strong
    sample).  With fewer than ``2 * TAIL_BEYOND`` samples that percentile
    is below the median, and the maximum is reported instead (labelled so).
    """
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return Tail(max(values) if values else 0.0, "max", n)
    beyond = max(TAIL_BEYOND, math.ceil(n * (100.0 - TAIL_MAX_PERCENTILE) / 100.0))
    return Tail(sorted(values)[n - beyond - 1], f"p{100.0 * (n - beyond) / n:.1f}", n)


def repeat_units(unit: Callable[[], float], budget_s: float, min_units: int = 1) -> List[float]:
    """Run whole units of work (each returns its wall time) to fill ``budget_s``.

    Another unit starts while fewer than ``min_units`` have run, or while it
    would end nearer the budget than stopping now (judged by the mean unit so
    far).  The count is thus ``round(budget / unit)``: it does not jump
    between runs when one unit takes about the whole budget.
    """
    walls: List[float] = []
    while len(walls) < min_units or sum(walls) * (1 + 0.5 / len(walls)) <= budget_s:
        walls.append(unit())
    return walls


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run reports."""

    #: Metric values by name; their units are the ones BENCHMARK.json lists.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific figures printed beside the gated metrics.
    notes: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        """Record a failed operation (or a failed output check)."""
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def provenance(seed: int, repro_env: Dict[str, str]) -> dict:
    """Machine, toolchain and code identity of a run."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "src_sha256": source_digest(),
        "seed": seed,
        "repro_env": repro_env,
    }


def source_digest() -> str:
    """Content hash of the program's sources (identifies non-git checkouts)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
