"""Parallel batch execution of scenario fleets, with durable campaigns.

The batch runner executes a list of :class:`~repro.scenario.ScenarioSpec`
in a :class:`~concurrent.futures.ProcessPoolExecutor` and appends one JSON
record per scenario to a JSONL results store.  The worker transport is
zero-copy by construction: each submission carries only the scenario's
declarative dictionary plus the cache *location* (a directory path -- the
content keys are recomputed inside the worker), never a pickled irradiance
array or any other bulk simulation object; workers attach to the shared
on-disk stage cache, whose bulk arrays they memory-map read-only (see
:mod:`repro.runner.cache`).  The first scenario that needs a given solar
field computes and publishes it, all later scenarios -- in this run or the
next -- hit the cache.

Submission is chunked and completion-streamed: at most a small multiple of
the worker count is in flight at any moment (so huge fleets do not pile up
thousands of pending futures) and finished results are collected with
``concurrent.futures.wait`` as they complete instead of the ``executor.map``
barrier.  Results are still returned in input order regardless of completion
order, and all scenario inputs are seeded, so a parallel batch is
bit-for-bit identical to a serial one.

Campaigns
---------
Passing ``store=`` turns the batch into a *campaign*: every point is first
enrolled in a SQLite-backed :class:`~repro.runner.store.ResultStore` (keyed
by its scenario content digest), points already ``done`` from a previous
run are skipped, failures are recorded per-point -- a worker exception or
even a worker *death* fails only its own point, never the whole run -- and
failed points are retried up to ``retries`` times.  The returned
:class:`BatchResult` then carries a
:class:`~repro.runner.store.CampaignSummary` with done/computed/skipped/
failed/retried accounting plus the per-stage cache provenance of the
points computed by this invocation.  Without a store the behaviour is the
classic in-memory pass, where the first scenario failure raises a
:class:`~repro.errors.ScenarioExecutionError` naming the failing point.

One engine
----------
:func:`_drive_points` is the only code that runs an attempt, for every
driver: in-process through :func:`execute_point`, or in the process pool
with the watchdog, pool rebuild and dead-worker handling.  It owns the
retry policy -- errors and timeouts share ``retries``, a dead worker
process gets ``retries + 1`` free passes, delays come from
:func:`retry_backoff_delay` -- and builds each failure text.  A
:class:`_Driver` says only where points come from and where outcomes go,
for the three point sources: the in-memory list, a campaign's own fleet
(plus stale rows it adopts), and the claims of a
:mod:`~repro.runner.worker` fleet member.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .. import faults
from ..errors import ConfigurationError, ScenarioExecutionError
from ..io.placement_json import placement_from_dict
from ..scenario.spec import ScenarioSpec
from ..telemetry import MetricStats, configure_from_env, merge_active_trace, span, trace_event
from .cache import PathLike, StageCache, resolve_cache
from .solvers import WarmStart
from .stages import ScenarioResult, run_scenario, scenario_content_digest
from .store import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_STALE_AFTER_S,
    METRIC_KIND_COUNTER,
    METRIC_KIND_POINT_TIME,
    METRIC_KIND_STAGE_HIT_TIME,
    METRIC_KIND_STAGE_RECOMPUTE_TIME,
    METRIC_KIND_STAGE_TIME,
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_TIMED_OUT,
    CampaignSummary,
    PointRecord,
    ResultStore,
    resolve_store,
)

#: In-flight submissions per worker process: enough to keep every worker
#: busy while results stream back, small enough that a 10k-scenario fleet
#: does not materialise 10k pending futures up front.
INFLIGHT_PER_WORKER = 2

#: Campaign name used when ``run_batch`` gets a store but no explicit name.
DEFAULT_CAMPAIGN = "batch"

#: How long the parallel driver blocks in ``wait`` per loop tick.  Bounded
#: so deadlines, heartbeats, stale-lease reclamation and stop signals are
#: all checked at this cadence even while every worker is busy.
WAIT_TICK_S = 0.25

# DEFAULT_HEARTBEAT_S / DEFAULT_STALE_AFTER_S now live in .store (shared
# with the worker daemon) and are re-exported above for compatibility.


def retry_backoff_delay(base_s: float, attempt: int, key: str) -> float:
    """Exponential backoff with deterministic jitter for one retry.

    ``base_s * 2**attempt``, jittered into ``[0.5x, 1.5x)`` by a hash of
    ``(key, attempt)`` -- deterministic for reproducible tests, yet
    decorrelated across points so a fleet of failing points does not
    retry in lockstep (the usual thundering-herd jitter rationale).
    """
    if base_s <= 0.0:
        return 0.0
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:4], "big") / 2**32
    return base_s * (2**attempt) * (0.5 + unit)


class _StopRequested(BaseException):
    """Internal: a SIGTERM/SIGINT asked the driver to wind down cleanly.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so no
    worker-error handler can swallow it; the driver converts it to a
    ``KeyboardInterrupt`` once in-flight points are marked and the pool is
    down.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


@contextmanager
def _stop_signals() -> Iterator[None]:
    """Turn SIGINT/SIGTERM into :class:`_StopRequested` inside the block.

    Handlers can only be installed from the main thread; elsewhere (tests
    driving batches from threads) the process keeps its existing handlers.
    The previous handlers are always restored.
    """
    installed: List[Tuple[int, Any]] = []
    if threading.current_thread() is threading.main_thread():

        def _stop_handler(signum: int, frame: object) -> None:
            raise _StopRequested(signum)

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                installed.append((signum, signal.signal(signum, _stop_handler)))
            except (ValueError, OSError):  # pragma: no cover - exotic platforms
                pass
    try:
        yield
    finally:
        for signum, previous in installed:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass


def _worker_init() -> None:
    """Worker-process initializer: restore default signal dispositions.

    Forked workers inherit the parent's stop handlers, which must not run
    in a worker: a worker has to die promptly on ``terminate()`` (SIGTERM)
    and leave Ctrl-C -- SIGINT, delivered to the whole process group -- to
    the parent driver, which marks in-flight points and shuts down cleanly.
    """
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _terminate_worker_processes(executor: ProcessPoolExecutor) -> int:
    """Hard-terminate every worker process of a pool (watchdog/stop path).

    ``ProcessPoolExecutor`` has no per-task kill, so a hung worker is
    evicted by terminating the pool's processes and rebuilding; returns the
    number of processes signalled.
    """
    processes = getattr(executor, "_processes", None) or {}
    count = 0
    for process in list(processes.values()):
        try:
            process.terminate()
            count += 1
        except Exception:
            pass
    return count


def count_stage_flags(
    results: Sequence[ScenarioResult], cached: bool
) -> Dict[str, int]:
    """Tally per-stage cache provenance across scenario results.

    ``cached=True`` counts results whose stage was served from the cache,
    ``cached=False`` counts recomputations.  Every stage that appears in any
    result's provenance map gets an entry (possibly zero), so hit and miss
    tallies always cover the same stage set.  Shared by the batch- and
    sweep-level accounting so the two can never drift apart.
    """
    counts: Dict[str, int] = {}
    for result in results:
        for stage, hit in result.stage_cached.items():
            counts[stage] = counts.get(stage, 0) + (1 if hit == cached else 0)
    return counts


def sum_stage_times(
    results: Sequence[ScenarioResult], cached: bool
) -> Dict[str, float]:
    """Sum per-stage wall time across results, split by cache provenance.

    The wall-clock counterpart of :func:`count_stage_flags`: ``cached=True``
    totals the seconds spent *loading* cached stages, ``cached=False`` the
    seconds spent recomputing them, keyed over the same stage set so the
    time and count accounting can never drift apart.
    """
    totals: Dict[str, float] = {}
    for result in results:
        for stage, hit in result.stage_cached.items():
            seconds = result.stage_times_s.get(stage, 0.0) if hit == cached else 0.0
            totals[stage] = totals.get(stage, 0.0) + seconds
    return totals


@dataclass
class BatchResult:
    """Outcome of one batch run."""

    results: List[ScenarioResult]
    runtime_s: float
    jobs: int
    results_path: Optional[Path] = None
    cache_dir: Optional[Path] = None
    campaign: Optional[CampaignSummary] = None

    @property
    def n_scenarios(self) -> int:
        """Number of scenarios with results (computed or reloaded)."""
        return len(self.results)

    def by_name(self) -> Dict[str, ScenarioResult]:
        """Results keyed by scenario name."""
        return {result.scenario: result for result in self.results}

    def cache_hit_counts(self) -> Dict[str, int]:
        """Per-stage count of scenarios served from the cache."""
        return count_stage_flags(self.results, cached=True)

    def cache_miss_counts(self) -> Dict[str, int]:
        """Per-stage count of scenarios that *recomputed* the stage.

        The complement of :meth:`cache_hit_counts` over the same provenance
        records: ``misses[stage]`` scenarios had to recompute ``stage``
        because no cache entry existed (or the cache was disabled).  A warm
        re-run of an unchanged fleet must report zero misses for every
        expensive stage -- the sweep engine's reuse accounting asserts
        exactly that.
        """
        return count_stage_flags(self.results, cached=False)

    def summary(self) -> dict:
        """Aggregate figures for reports and the CLI."""
        return {
            "n_scenarios": self.n_scenarios,
            "jobs": self.jobs,
            "runtime_s": self.runtime_s,
            "total_energy_mwh": sum(r.annual_energy_mwh for r in self.results),
            "cache_hits_by_stage": self.cache_hit_counts(),
            "cache_misses_by_stage": self.cache_miss_counts(),
            "results_path": None if self.results_path is None else str(self.results_path),
            "campaign": None if self.campaign is None else self.campaign.as_dict(),
        }


def _worker_payload(
    spec: ScenarioSpec,
    cache_dir: Optional[str],
    use_cache: bool,
    mmap_arrays: bool = True,
    warm_hint: Optional[dict] = None,
) -> Tuple[dict, Optional[str], bool, bool, Optional[dict]]:
    """The pickled work unit shipped to one worker process.

    Deliberately tiny: the declarative scenario dictionary, the cache
    *location* (plus its memmap flag), and an optional warm-start hint (a
    neighbour's placement dict -- module anchor tuples, not arrays).
    Workers rederive every content key from the spec and pull bulk arrays
    from the shared cache (memory-mapped), so no irradiance matrix -- or
    any other numpy payload -- ever crosses the process boundary.  A test
    asserts the serialised size stays in the kilobytes.
    """
    return (spec.to_dict(), cache_dir, use_cache, mmap_arrays, warm_hint)


def _warm_start_from_hint(
    hint: Union[WarmStart, Mapping[str, Any], None],
) -> Optional[WarmStart]:
    """Deserialise a transported warm hint; a malformed one means cold.

    Hints are strictly an accelerant -- any parsing problem downgrades the
    solve to cold instead of failing the point.
    """
    if hint is None or isinstance(hint, WarmStart):
        return hint
    try:
        return WarmStart(
            placement=placement_from_dict(hint["placement"]),
            exact_prefix=bool(hint.get("exact_prefix", False)),
            source=hint.get("source"),
        )
    except Exception:
        return None


def execute_point(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    cache: Optional[StageCache] = None,
    cache_dir: Optional[PathLike] = None,
    use_cache: bool = True,
    mmap_arrays: bool = True,
    warm_hint: Union[WarmStart, Mapping[str, Any], None] = None,
) -> Tuple[str, dict]:
    """Run one campaign point and classify the outcome in-process.

    The shared per-point execution path of every driver: the batch pool
    worker, the serial campaign driver and the
    :mod:`~repro.runner.worker` fleet daemon all route through here, so a
    point behaves identically no matter which process model executes it.

    Fires the ``worker.crash`` / ``worker.hang`` chaos sites (keyed by the
    scenario name) before touching the scenario, then returns
    ``("ok", result_record)`` on success or
    ``("error", {"error", "traceback"})`` when the scenario raises — an
    exception never escapes, so the caller can attribute the failure to
    its point instead of surfacing a bare traceback.  (Stop signals —
    ``BaseException`` — do escape, by design.)

    ``cache`` takes an existing :class:`~repro.runner.cache.StageCache`
    handle (preserving its hit/miss counters for the caller); otherwise
    ``cache_dir`` opens one in place.  With neither, the point runs
    uncached.

    ``warm_hint`` is a :class:`~repro.runner.solvers.WarmStart` or its
    transported dict form (``{"placement", "exact_prefix", "source"}``);
    it reaches warm-start-capable solvers only and never alters the
    point's identity (the spec digest is hint-free).
    """
    spec = spec if isinstance(spec, ScenarioSpec) else ScenarioSpec.from_dict(spec)
    faults.fire("worker.crash", key=spec.name)
    faults.fire("worker.hang", key=spec.name)
    try:
        if cache is None and cache_dir is not None:
            cache = StageCache(
                root=Path(cache_dir), enabled=use_cache, mmap_arrays=mmap_arrays
            )
        result = run_scenario(
            spec,
            cache=cache,
            use_cache=use_cache,
            warm_start=_warm_start_from_hint(warm_hint),
        )
        return ("ok", result.to_dict())
    except Exception as exc:
        return (
            "error",
            {
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            },
        )


def _run_scenario_worker(args: tuple) -> Tuple[str, dict]:
    """Process-pool entry point: environment setup around :func:`execute_point`.

    Returns ``("ok", result_record)`` or ``("error", {"error",
    "traceback"})`` (see :func:`execute_point`), so an exception inside a
    worker never tears down the pool and the parent can attribute the
    failure to its point (name + digest) instead of surfacing a bare pool
    traceback.
    """
    # The batch already parallelises across processes; keep the horizon
    # kernel single-threaded inside each worker to avoid oversubscription.
    os.environ.setdefault("REPRO_HORIZON_WORKERS", "1")
    # Tracing propagates through $REPRO_TRACE (set by telemetry.configure in
    # the parent): forked workers already hold a re-keyed tracer via the
    # at-fork hook, spawned workers pick the path up here.  Each worker
    # writes its own shard; the parent merges at drain time.
    configure_from_env()
    # Chaos hooks: $REPRO_FAULTS propagates the same way.  ``worker.crash``
    # kills this process outright (exercising pool-death recovery in the
    # parent), ``worker.hang`` sleeps past any deadline (exercising the
    # watchdog).  Both are no-ops unless a fault plan is armed; they fire
    # inside ``execute_point``.
    faults.configure_from_env()
    spec_dict, cache_dir, use_cache, mmap_arrays, warm_hint = args
    return execute_point(
        spec_dict,
        cache_dir=cache_dir,
        use_cache=use_cache,
        mmap_arrays=mmap_arrays,
        warm_hint=warm_hint,
    )


def _point_error_message(name: str, digest: str, error: str) -> str:
    """Failure text attributing a worker error to its campaign point."""
    return f"scenario {name!r} (digest {digest[:12]}) failed: {error}"


class _Driver:
    """Where one run's points come from and where their outcomes go.

    :func:`_drive_points` owns everything in between -- each attempt, the
    watchdog, the retry policy and stop handling -- so the three callers
    differ only here: the in-memory list (:class:`_ListDriver`), a
    campaign's own fleet (:class:`_CampaignDriver`) and a fleet worker's
    claims (:mod:`repro.runner.worker`).  ``specs[index]`` is the point
    behind each index; a driver may append to ``specs`` as :meth:`more`
    hands out new indices.
    """

    def __init__(self, specs: List[ScenarioSpec]) -> None:
        self.specs = specs

    def more(self, inflight: Set[int]) -> Sequence[int]:
        """Called every engine tick; returns further indices to run.

        ``inflight`` holds the points executing now.  The engine returns
        once nothing is queued or in flight after this call.
        """
        return ()

    def digest(self, index: int) -> str:
        """Content digest naming the point in failure texts and backoff jitter."""
        raise NotImplementedError

    def warm_hint(self, index: int) -> Optional[dict]:
        """Transportable warm-start hint for the point, asked at each start.

        Best-effort by construction: a neighbour still in flight yields a
        cold solve, never a stall.
        """
        return None

    def start(self, index: int, attempt: int) -> None:
        """An attempt is about to run; ``attempt`` counts earlier ones this run."""

    def done(self, index: int, record: dict, wall_time_s: float) -> None:
        """The attempt succeeded with result ``record``."""
        raise NotImplementedError

    def failed(self, index: int, status: str, message: str, retrying: bool) -> None:
        """The attempt ended ``failed`` or ``timed_out`` with ``message``.

        ``retrying`` says whether the engine will run the point again.
        """
        raise NotImplementedError

    def stop(self, inflight: Sequence[int]) -> None:
        """A stop signal landed while the ``inflight`` points were running."""


class _ListDriver(_Driver):
    """The in-memory run: records kept in input order, first failure raises."""

    def __init__(
        self,
        specs: List[ScenarioSpec],
        warm_hints: Optional[Mapping[str, Tuple[str, bool]]],
    ) -> None:
        super().__init__(specs)
        self.records: List[Optional[dict]] = [None] * len(specs)
        self.warm_hints = warm_hints or {}
        self.index_by_name = {spec.name: index for index, spec in enumerate(specs)}

    def digest(self, index: int) -> str:
        # Computed on failure only: a digest costs about a millisecond.
        return scenario_content_digest(self.specs[index])

    def warm_hint(self, index: int) -> Optional[dict]:
        target = self.warm_hints.get(self.specs[index].name)
        if target is None:
            return None
        neighbour_name, exact_prefix = target
        neighbour = self.index_by_name.get(neighbour_name)
        record = self.records[neighbour] if neighbour is not None else None
        if not record or not record.get("placement"):
            return None
        return {
            "placement": dict(record["placement"]),
            "exact_prefix": bool(exact_prefix),
            "source": neighbour_name,
        }

    def done(self, index: int, record: dict, wall_time_s: float) -> None:
        self.records[index] = record

    def failed(self, index: int, status: str, message: str, retrying: bool) -> None:
        # Without a store there is nothing to retry against.
        raise ScenarioExecutionError(
            message, scenario=self.specs[index].name, digest=self.digest(index)
        )


class _StoreDriver(_Driver):
    """A driver whose points are rows of one campaign in a result store."""

    def __init__(
        self,
        specs: List[ScenarioSpec],
        store: ResultStore,
        campaign: str,
        digests: List[str],
        heartbeat_s: float,
    ) -> None:
        super().__init__(specs)
        self.store = store
        self.campaign = campaign
        self.digests = digests
        self.heartbeat_s = heartbeat_s
        self._last_beat = float("-inf")

    def digest(self, index: int) -> str:
        return self.digests[index]

    def beat(self, inflight: Set[int]) -> bool:
        """Refresh the in-flight rows' heartbeats, at most once per ``heartbeat_s``.

        Keeps siblings from taking a row whose driver is merely slow.
        Returns True when a beat was due, so callers can run their own
        liveness scans at the same cadence.
        """
        now = time.monotonic()
        if now - self._last_beat < self.heartbeat_s:
            return False
        self._last_beat = now
        if inflight:
            self.store.heartbeat(self.campaign, [self.digests[i] for i in inflight])
        return True


class _CampaignDriver(_StoreDriver):
    """A store-backed ``run_batch``: its own fleet, every attempt recorded."""

    def __init__(
        self,
        specs: List[ScenarioSpec],
        store: ResultStore,
        campaign: str,
        enrolled: List[PointRecord],
        summary: CampaignSummary,
        heartbeat_s: float,
        stale_after_s: float,
        warm_start: bool,
    ) -> None:
        super().__init__(
            specs, store, campaign, [record.digest for record in enrolled], heartbeat_s
        )
        self.enrolled = enrolled
        self.summary = summary
        self.stale_after_s = stale_after_s
        self.warm_start = warm_start
        self.index_by_digest = {digest: i for i, digest in enumerate(self.digests)}
        self.computed: Dict[int, ScenarioResult] = {}

    def more(self, inflight: Set[int]) -> Sequence[int]:
        # Adopt this fleet's rows whose owner went silent (a dead driver).
        if not self.beat(inflight):
            return ()
        adopted: List[int] = []
        for digest in self.store.reclaim_stale(self.campaign, self.stale_after_s):
            index = self.index_by_digest.get(digest)
            if index is None or index in self.computed or index in inflight:
                continue
            self.summary.reclaimed += 1
            adopted.append(index)
        return adopted

    def warm_hint(self, index: int) -> Optional[dict]:
        # Enrollment wrote the wiring; the neighbour may have finished in
        # this run or an earlier one.
        return self.store.warm_hint(self.enrolled[index]) if self.warm_start else None

    def start(self, index: int, attempt: int) -> None:
        self.store.mark_running(self.campaign, self.digests[index])

    def done(self, index: int, record: dict, wall_time_s: float) -> None:
        self.store.mark_done(self.campaign, self.digests[index], record, wall_time_s)
        self.computed[index] = ScenarioResult.from_dict(record)

    def failed(self, index: int, status: str, message: str, retrying: bool) -> None:
        # Every failed attempt is recorded, so a driver killed during a
        # retry backoff leaves a row the next resume re-runs.
        if status == STATUS_TIMED_OUT:
            self.store.mark_timed_out(self.campaign, self.digests[index], message)
        else:
            self.store.mark_failed(self.campaign, self.digests[index], message)
        if retrying:
            self.summary.retried += 1

    def stop(self, inflight: Sequence[int]) -> None:
        # The literal "interrupted" makes these rows discoverable (and
        # reclaimable by `campaign doctor` / the next resume).
        for index in inflight:
            self.store.mark_failed(
                self.campaign,
                self.digests[index],
                _point_error_message(
                    self.specs[index].name,
                    self.digests[index],
                    "interrupted: terminated by signal",
                ),
            )


def _drive_points(
    driver: _Driver,
    indices: Sequence[int],
    stage_cache: StageCache,
    use_cache: bool,
    processes: int,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    retry_backoff_s: float = 0.0,
) -> None:
    """Run points through their attempt lifecycle: the one execution engine.

    ``indices`` seed the queue and ``driver.more`` may add points on every
    tick (bounded by ``WAIT_TICK_S``).  ``processes=0`` runs each attempt
    in this process through :func:`execute_point`; otherwise attempts run
    in a ``ProcessPoolExecutor`` of that many workers, at most
    ``INFLIGHT_PER_WORKER`` each in flight.

    One attempt ends in one of four ways:

    * success -- ``driver.done`` gets the record and the point's wall
      time (in the pool as measured inside the worker, so queueing delay
      behind other in-flight points is never billed to the point);
    * the point's own code raised -- charged to ``retries``;
    * ``timeout_s`` expired -- charged to the same ``retries``.  In the
      pool a parent-side watchdog terminates the workers (a hung worker
      cannot be cancelled any other way) and the pool is rebuilt;
      in-process the check is necessarily post hoc and the result is
      discarded;
    * the worker process died (OOM kill, segfault, the ``worker.crash``
      chaos site).  That breaks the whole pool and poisons every
      in-flight future, so most casualties are innocent bystanders of a
      culprit that cannot be identified: the pool is rebuilt and each
      casualty gets ``retries + 1`` free passes.  Bounded, so a point
      that deterministically kills its worker cannot loop forever.

    Each failed attempt reaches ``driver.failed`` with one failure text,
    built here, and whether the point runs again; a re-run waits out
    :func:`retry_backoff_delay`.  A stop signal (:class:`_StopRequested`)
    terminates the workers, reports the in-flight points to
    ``driver.stop`` and re-raises.
    """
    specs = driver.specs
    queue = deque(indices)
    not_before: Dict[int, float] = {}
    charged: Dict[int, int] = {}  # error/timeout retries spent per point
    passes: Dict[int, int] = {}  # free passes spent after worker deaths
    pending: Dict[Future, int] = {}
    deadlines: Dict[Future, float] = {}
    running: List[int] = []  # the in-process attempt, while it runs
    executor: Optional[ProcessPoolExecutor] = None
    cache_dir = str(stage_cache.root) if stage_cache.enabled else None
    timeout_error = (
        "" if timeout_s is None else f"timed out: exceeded wall-clock budget of {timeout_s:g}s"
    )

    def refill() -> bool:
        """Take the driver's new points; False once nothing is left to run."""
        inflight = set(pending.values())
        for extra in driver.more(inflight):
            if extra not in inflight and extra not in queue:
                queue.append(extra)
        return bool(queue or pending)

    def pop_eligible() -> Optional[int]:
        """Next queued index whose backoff delay has elapsed, if any."""
        now = time.monotonic()
        for _ in range(len(queue)):
            index = queue.popleft()
            if not_before.get(index, 0.0) <= now:
                not_before.pop(index, None)
                return index
            queue.append(index)
        return None

    def start(index: int) -> Optional[dict]:
        driver.start(index, charged.get(index, 0) + passes.get(index, 0))
        return driver.warm_hint(index)

    def settle(index: int, outcome: str, error: str, traceback_text: str = "") -> None:
        """Apply the retry policy to one failed attempt and report it."""
        if outcome == "interrupted":
            passes[index] = passes.get(index, 0) + 1
            retrying = passes[index] <= retries + 1
        else:
            charged[index] = charged.get(index, 0) + 1
            retrying = charged[index] <= retries
        digest = driver.digest(index)
        message = _point_error_message(specs[index].name, digest, error)
        if traceback_text:
            message = f"{message}\n{traceback_text}"
        status = STATUS_TIMED_OUT if outcome == "timeout" else STATUS_FAILED
        driver.failed(index, status, message, retrying)
        if retrying:
            spent = charged.get(index, 0) + passes.get(index, 0)
            delay = retry_backoff_delay(retry_backoff_s, spent - 1, digest)
            if delay > 0.0:
                not_before[index] = time.monotonic() + delay
            queue.append(index)

    def run_here(index: int) -> None:
        warm_hint = start(index)
        running.append(index)
        started = time.perf_counter()
        # In-process the driver is the worker, so the worker.* chaos sites
        # fire right here, inside execute_point: a crash kills the driver,
        # leaving running rows for a resume or a sibling to reclaim; a hang
        # trips the post-hoc timeout.  The live stage_cache handle keeps
        # its hit/miss counters accumulating across the run.
        status, record = execute_point(
            specs[index], cache=stage_cache, use_cache=use_cache, warm_hint=warm_hint
        )
        elapsed = time.perf_counter() - started
        running.clear()
        if status != "ok":
            settle(index, "error", record["error"], record.get("traceback", ""))
        elif timeout_s is not None and elapsed > timeout_s:
            settle(index, "timeout", timeout_error)
        else:
            driver.done(index, record, elapsed)

    def submit(index: int) -> None:
        nonlocal executor
        payload = _worker_payload(
            specs[index],
            cache_dir,
            use_cache,
            stage_cache.mmap_arrays,
            warm_hint=start(index),
        )
        if executor is None:
            executor = ProcessPoolExecutor(max_workers=processes, initializer=_worker_init)
        future = executor.submit(_run_scenario_worker, payload)
        pending[future] = index
        if timeout_s is not None:
            deadlines[future] = time.monotonic() + timeout_s

    def consume(index: int, future: Future) -> None:
        """Harvest one settled future."""
        try:
            status, record = future.result()
        except Exception as exc:  # transport failures (unpicklable, ...)
            settle(index, "error", f"{type(exc).__name__}: {exc}")
            return
        if status == "ok":
            driver.done(index, record, float(record.get("runtime_s", 0.0)))
        else:
            settle(index, "error", record["error"], record.get("traceback", ""))

    def settled_ok(future: Future) -> bool:
        """Finished with a transportable outcome (not pool death/cancel)."""
        return (
            future.done()
            and not future.cancelled()
            and not isinstance(future.exception(), BrokenProcessPool)
        )

    def rebuild_pool(reason: str, overdue: Set[Future]) -> None:
        """Watchdog / pool-death recovery: kill, reclassify, restart.

        Every in-flight future is classified exactly once: finished ones
        are consumed normally, overdue ones time out, the rest are innocent
        casualties of the teardown.  The next submission starts a fresh
        pool.
        """
        nonlocal executor
        _terminate_worker_processes(executor)
        executor.shutdown(wait=False, cancel_futures=True)
        executor = None
        casualties = dict(pending)
        pending.clear()
        deadlines.clear()
        for future, index in casualties.items():
            if settled_ok(future):
                consume(index, future)
            elif future in overdue:
                settle(index, "timeout", timeout_error)
            else:
                settle(index, "interrupted", reason)

    def harvest() -> None:
        """Wait one tick for finished attempts; run the watchdog."""
        done, _ = wait(pending, timeout=WAIT_TICK_S, return_when=FIRST_COMPLETED)
        for future in done:
            index = pending.pop(future)
            deadlines.pop(future, None)
            exc = future.exception()
            if not isinstance(exc, BrokenProcessPool):
                consume(index, future)
                continue
            # A worker process died.  The pool is now unusable: treat this
            # future and everything still in flight as casualties, harvest
            # what finished before the death, and rebuild.
            settle(index, "interrupted", f"worker process died: {exc}")
            rebuild_pool(f"worker process died: {exc}", overdue=set())
            return
        now = time.monotonic()
        overdue = {
            future
            for future, deadline in deadlines.items()
            if deadline <= now and not future.done()
        }
        if overdue:
            names = ", ".join(
                repr(specs[pending[future]].name)
                for future in sorted(overdue, key=lambda f: pending[f])
            )
            trace_event("batch.watchdog", overdue=len(overdue), points=names)
            rebuild_pool(
                "worker evicted by watchdog "
                f"(pool torn down to kill overdue point(s) {names})",
                overdue=overdue,
            )

    clean = False
    try:
        while refill():
            if not processes:
                index = pop_eligible()
                if index is not None:
                    run_here(index)
                    continue
            else:
                while len(pending) < processes * INFLIGHT_PER_WORKER:
                    index = pop_eligible()
                    if index is None:
                        break
                    submit(index)
                if pending:
                    harvest()
                    continue
            # Everything queued is backing off; idle one tick.
            time.sleep(min(WAIT_TICK_S, 0.05))
        clean = True
    except _StopRequested:
        if executor is not None:
            _terminate_worker_processes(executor)
        driver.stop([*pending.values(), *running])
        pending.clear()
        raise
    finally:
        if executor is not None:
            executor.shutdown(wait=clean, cancel_futures=not clean)


def run_batch(
    specs: Sequence[ScenarioSpec],
    cache: Union[StageCache, PathLike, None] = None,
    jobs: Optional[int] = None,
    results_path: Optional[PathLike] = None,
    use_cache: bool = True,
    parallel: bool = True,
    store: Union[ResultStore, PathLike, None] = None,
    campaign: Optional[str] = None,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    retry_backoff_s: float = 0.0,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    warm_hints: Optional[Mapping[str, Tuple[str, bool]]] = None,
) -> BatchResult:
    """Execute a scenario fleet, optionally in parallel, and store results.

    Parameters
    ----------
    specs:
        The scenarios to run.  Names must be unique (they key the store).
    cache:
        Stage cache handle or directory shared by every worker.
    jobs:
        Worker-process count; defaults to ``min(len(specs), cpu_count)``.
        ``1`` (or ``parallel=False``) runs serially in-process.
    results_path:
        When given, one JSON record per scenario is written there (JSONL).
    use_cache:
        Set False to bypass the stage cache entirely.
    parallel:
        Convenience switch for forcing serial execution.
    store:
        A :class:`~repro.runner.store.ResultStore` (or database path) that
        turns the batch into a durable, resumable *campaign*; ``None`` (or
        the string ``"none"``) keeps the pure in-memory path.
    campaign:
        Campaign name within the store (default ``"batch"``).
    retries:
        How often a failed or timed-out point is re-attempted within this
        run.  Store-backed campaigns only: without a store a nonzero value
        raises :class:`~repro.errors.ConfigurationError`.
    timeout_s:
        Per-point wall-clock budget.  In parallel runs a parent-side
        watchdog terminates workers whose point overruns it (status
        ``timed_out``); serial runs check post hoc.  ``None`` disables.
    retry_backoff_s:
        Base delay between retry attempts of one point; doubles per
        attempt with deterministic jitter (:func:`retry_backoff_delay`).
        ``0`` (default) retries immediately, preserving prior behaviour.
    heartbeat_s:
        Campaign-mode cadence for refreshing this driver's ``running``-row
        heartbeats and scanning for stale rows abandoned by dead drivers.
    stale_after_s:
        Heartbeat age beyond which another driver's ``running`` row counts
        as abandoned and is reclaimed (then re-enqueued if it belongs to
        this fleet).
    warm_hints:
        Optional warm-start wiring: maps a scenario name to
        ``(neighbour_name, exact_prefix)`` -- when the point starts, its
        neighbour's finished placement (from this run or, in campaigns,
        from done store rows of earlier runs) is offered to the solver as
        a warm start.  Strictly best-effort and out-of-band: hints never
        enter spec digests, a missing neighbour means a cold solve, and
        ``exact_prefix`` must only be set when the neighbour differs
        solely by a smaller ``n_modules`` (the greedy replay contract).
        In campaigns the wiring is also persisted on the enrolled rows so
        detached fleet workers pick the same hints up.

    Example
    -------
    A one-scenario serial batch (parallel batches are bit-for-bit
    identical; ``use_cache=False`` keeps the example self-contained):

    >>> from repro.gis import RoofSpec
    >>> from repro.runner import run_batch
    >>> from repro.scenario import ScenarioSpec, TimeSpec
    >>> spec = ScenarioSpec(
    ...     name="doc-batch",
    ...     roof=RoofSpec(name="doc-roof", width_m=6.0, depth_m=4.0,
    ...                   tilt_deg=30.0, azimuth_deg=0.0),
    ...     n_modules=2, n_series=2, grid_pitch=0.4,
    ...     time=TimeSpec(step_minutes=240.0, day_stride=45),
    ... )
    >>> batch = run_batch([spec], parallel=False, use_cache=False)
    >>> batch.n_scenarios
    1
    >>> batch.results[0].annual_energy_mwh > 0
    True
    >>> sorted(batch.summary())  # doctest: +NORMALIZE_WHITESPACE
    ['cache_hits_by_stage', 'cache_misses_by_stage', 'campaign', 'jobs',
     'n_scenarios', 'results_path', 'runtime_s', 'total_energy_mwh']
    """
    specs = list(specs)
    if not specs:
        raise ConfigurationError("a batch needs at least one scenario")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError("scenario names within a batch must be unique")
    if retries < 0:
        raise ConfigurationError("retries must be >= 0")
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError("timeout_s must be > 0 when set")
    if retry_backoff_s < 0:
        raise ConfigurationError("retry_backoff_s must be >= 0")
    if heartbeat_s <= 0 or stale_after_s <= 0:
        raise ConfigurationError("heartbeat_s and stale_after_s must be > 0")

    # Arm fault injection from $REPRO_FAULTS in the parent as well (workers
    # arm themselves): parent-side sites (store.io, cache.corrupt on this
    # process's cache handle) fire here.  No-op without the env var.
    faults.configure_from_env()

    stage_cache = resolve_cache(cache, enabled=use_cache)
    # Workers reconstruct their cache handle from (dir, flag); the effective
    # flag honours both the handle's own state and the use_cache argument so
    # a disabled handle can never resurrect as an enabled default-dir cache.
    use_cache = stage_cache.enabled

    if jobs is None:
        jobs = min(len(specs), os.cpu_count() or 1)
    jobs = max(1, int(jobs))
    if not parallel:
        jobs = 1

    result_store = resolve_store(store)
    if retries and result_store is None:
        raise ConfigurationError(
            "retries only apply to store-backed batches; pass store= "
            "(CLI: --store PATH, or `repro campaign run`)"
        )
    owns_store = result_store is not None and not isinstance(store, ResultStore)

    # Graceful shutdown: SIGTERM (orchestrators, `timeout`, k8s) and SIGINT
    # raise _StopRequested, the engine marks every in-flight point
    # ``failed ("interrupted...")`` and kills its workers, and the finally
    # block below still closes the store and merges trace shards -- so a
    # terminated campaign resumes cleanly with no orphaned ``running`` rows.
    processes = 0 if jobs == 1 else jobs
    try:
        batch_attrs = {"n_scenarios": len(specs), "jobs": jobs}
        if result_store is not None:
            batch_attrs["campaign"] = campaign if campaign else DEFAULT_CAMPAIGN
        with _stop_signals(), span("batch", **batch_attrs):
            start = time.perf_counter()
            if result_store is None:
                driver = _ListDriver(specs, warm_hints)
                _drive_points(
                    driver,
                    range(len(specs)),
                    stage_cache,
                    use_cache,
                    processes,
                    timeout_s=timeout_s,
                )
                results = [ScenarioResult.from_dict(record) for record in driver.records]
                summary: Optional[CampaignSummary] = None
            else:
                results, summary = _run_campaign(
                    specs,
                    stage_cache,
                    use_cache,
                    processes,
                    result_store,
                    campaign if campaign else DEFAULT_CAMPAIGN,
                    retries,
                    timeout_s=timeout_s,
                    retry_backoff_s=retry_backoff_s,
                    heartbeat_s=heartbeat_s,
                    stale_after_s=stale_after_s,
                    warm_hints=warm_hints,
                )
            runtime = time.perf_counter() - start
    except _StopRequested as stop:
        # Surface as the interruption Python users expect; the CLI maps it
        # to exit code 130.
        raise KeyboardInterrupt(
            f"batch interrupted by signal {stop.signum}; "
            "in-flight points marked failed ('interrupted')"
        ) from None
    finally:
        if owns_store:
            result_store.close()
        # Fold worker trace shards into the single merged trace; a no-op
        # while tracing is disabled.  The pool has drained by now (the
        # engine shut its executor down), so every shard is complete.
        merge_active_trace()

    path: Optional[Path] = None
    if results_path is not None:
        path = Path(results_path)
        write_results_jsonl(results, path)

    return BatchResult(
        results=results,
        runtime_s=runtime,
        jobs=jobs,
        results_path=path,
        cache_dir=stage_cache.root if stage_cache.enabled else None,
        campaign=summary,
    )


def _run_campaign(
    specs: List[ScenarioSpec],
    stage_cache: StageCache,
    use_cache: bool,
    processes: int,
    store: ResultStore,
    campaign: str,
    retries: int,
    timeout_s: Optional[float] = None,
    retry_backoff_s: float = 0.0,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    warm_hints: Optional[Mapping[str, Tuple[str, bool]]] = None,
) -> Tuple[List[ScenarioResult], CampaignSummary]:
    """Store-backed execution: enroll, skip done, retry failures, account."""
    enrolled = store.enroll(campaign, specs, warm_hints=warm_hints)
    store.reset_running(campaign)
    todo = [i for i, record in enumerate(enrolled) if record.status != STATUS_DONE]
    summary = CampaignSummary(
        campaign=campaign,
        n_points=len(specs),
        skipped=len(specs) - len(todo),
    )
    driver = _CampaignDriver(
        specs,
        store,
        campaign,
        enrolled,
        summary,
        heartbeat_s,
        stale_after_s,
        warm_start=bool(warm_hints),
    )
    _drive_points(
        driver,
        todo,
        stage_cache,
        use_cache,
        processes,
        retries=retries,
        timeout_s=timeout_s,
        retry_backoff_s=retry_backoff_s,
    )
    computed = driver.computed

    summary.computed = len(computed)
    computed_results = [computed[i] for i in sorted(computed)]
    summary.stage_hits = count_stage_flags(computed_results, cached=True)
    summary.stage_recomputes = count_stage_flags(computed_results, cached=False)
    summary.stage_hit_time_s = {
        stage: round(seconds, 6)
        for stage, seconds in sum_stage_times(computed_results, cached=True).items()
    }
    summary.stage_recompute_time_s = {
        stage: round(seconds, 6)
        for stage, seconds in sum_stage_times(computed_results, cached=False).items()
    }

    # Assemble results in input order -- freshly computed points from this
    # run, previously-done points reloaded from the store -- and count
    # done/timed_out/failed over *this fleet's* digests (a campaign may
    # hold further points from earlier enrollments; `repro campaign status`
    # shows those).  ``degraded`` counts done points answered by a fallback
    # solver, whether computed now or reloaded.
    results: List[ScenarioResult] = []
    for index, digest in enumerate(driver.digests):
        if index in computed:
            summary.done += 1
            if computed[index].degraded:
                summary.degraded += 1
            results.append(computed[index])
            continue
        record = store.point(campaign, digest)
        if record.status == STATUS_DONE:
            summary.done += 1
            if record.degraded:
                summary.degraded += 1
            results.append(record.result())
        elif record.status == STATUS_TIMED_OUT:
            summary.timed_out += 1
        else:
            summary.failed += 1

    # Persist this run's latency rollups so `repro campaign status` can
    # render a per-stage p50/p90/p99 table long after the run finished.
    # Pure no-op resumes (computed == 0) record nothing: there are no new
    # samples, and the previous run's rows stay the latest.
    if computed_results:
        store.record_metrics(campaign, _campaign_metric_rows(computed_results, summary))
    return results, summary


def _campaign_metric_rows(
    computed_results: Sequence[ScenarioResult], summary: CampaignSummary
) -> List[Tuple[str, MetricStats]]:
    """Roll one campaign run's computed points up into metric-table rows."""
    rows: List[Tuple[str, MetricStats]] = []

    stage_samples: Dict[str, List[float]] = {}
    hit_samples: Dict[str, List[float]] = {}
    recompute_samples: Dict[str, List[float]] = {}
    for result in computed_results:
        for stage, seconds in result.stage_times_s.items():
            stage_samples.setdefault(stage, []).append(seconds)
        for stage, hit in result.stage_cached.items():
            seconds = result.stage_times_s.get(stage)
            if seconds is None:
                continue
            bucket = hit_samples if hit else recompute_samples
            bucket.setdefault(stage, []).append(seconds)

    for kind, samples_by_stage in (
        (METRIC_KIND_STAGE_TIME, stage_samples),
        (METRIC_KIND_STAGE_HIT_TIME, hit_samples),
        (METRIC_KIND_STAGE_RECOMPUTE_TIME, recompute_samples),
    ):
        for stage in sorted(samples_by_stage):
            rows.append((kind, MetricStats.from_samples(stage, samples_by_stage[stage])))

    rows.append(
        (
            METRIC_KIND_POINT_TIME,
            MetricStats.from_samples(
                "point", [result.runtime_s for result in computed_results]
            ),
        )
    )
    for counter, value in (
        ("computed", summary.computed),
        ("skipped", summary.skipped),
        ("failed", summary.failed),
        ("retried", summary.retried),
        ("timed_out", summary.timed_out),
        ("degraded", summary.degraded),
        ("reclaimed", summary.reclaimed),
        ("cache_stage_hits", sum(summary.stage_hits.values())),
        ("cache_stage_recomputes", sum(summary.stage_recomputes.values())),
    ):
        rows.append((METRIC_KIND_COUNTER, MetricStats.from_count(counter, value)))
    return rows


def write_results_jsonl(results: Sequence[ScenarioResult], path: PathLike) -> None:
    """Write one JSON record per scenario result (JSONL store)."""
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        for result in results:
            handle.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")


def read_results_jsonl(path: PathLike) -> List[ScenarioResult]:
    """Read a JSONL results store back into :class:`ScenarioResult` objects."""
    results: List[ScenarioResult] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                results.append(ScenarioResult.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"malformed results record at {path}:{line_number}: {exc}"
                ) from exc
    return results
