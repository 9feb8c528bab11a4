"""The campaign worker daemon: one member of a cooperative fleet.

``repro campaign worker <name>`` (or :func:`run_worker`) turns a process
into a fleet member that pulls points from a shared campaign store until
the queue drains.  N workers — across processes or hosts sharing the
store file — cooperate with no coordinator: the store *is* the queue, and
:meth:`~repro.runner.store.ResultStore.claim_next_pending` hands each
point to exactly one owner per attempt.

The loop per worker is claim → run → heartbeat → mark:

* **claim** — one atomic transaction takes the oldest ``pending`` row
  (``interactive``-priority rows — points enqueued by ``repro serve`` for
  a waiting caller — ahead of ``batch`` ones), or *adopts* a ``running``
  row whose heartbeat went stale (a sibling died mid-point; no separate
  reclaim step is needed on this path).
* **run** — the claim feeds the one execution engine,
  :func:`~repro.runner.batch._drive_points`, that every driver uses, with
  one slot: a pool of one process by default, so the daemon refreshes its
  heartbeat mid-point and the watchdog can kill a hung child
  (``timeout_s``); ``serial=True`` runs in-process, where the timeout is
  necessarily post hoc and no mid-point heartbeats are possible (keep
  ``stale_after_s`` comfortably above the longest point).  The next claim
  waits until the point is marked, so a worker holds one lease at a time.
* **mark** — terminal writes are *fenced* on the worker still holding the
  lease (``require_owner``).  If a sibling adopted the point while we ran
  it — always possible after a stall — our late result is discarded and
  counted in ``lost_leases``.  Execution is therefore at-least-once, but
  completion-marking is at-most-once: no point ever reaches ``done``
  twice, and the merged results are identical to a serial run.

Failures follow the engine's retry policy, as in
:func:`~repro.runner.batch.run_batch`: ``retries`` re-attempts errors and
timeouts with :func:`~repro.runner.batch.retry_backoff_delay`, and a
*crashed* child (the ``worker.crash`` chaos site, an OOM kill) gets
``retries + 1`` free passes since the point's own code never raised.  The row stays
``running`` under the worker's lease between attempts; each retry
re-stamps it.  On SIGTERM/SIGINT the worker releases its claim back to
``pending`` — a sibling picks it up immediately — and returns its summary
with ``stopped_by_signal`` set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from .. import faults
from ..errors import ConfigurationError
from ..telemetry import configure_from_env, merge_active_trace, span
from .batch import (
    _drive_points,
    _stop_signals,
    _StopRequested,
    _StoreDriver,
    count_stage_flags,
    execute_point,
)
from .cache import PathLike, StageCache, resolve_cache
from .stages import ScenarioResult
from .store import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_STALE_AFTER_S,
    STATUS_TIMED_OUT,
    ClaimedPoint,
    ResultStore,
    default_lease_owner,
    default_store_path,
    resolve_store,
)

#: ``execute_point`` is re-exported: the benchmark's point clock and tracer
#: patch the name on this module as well as on :mod:`repro.runner.batch`.
__all__ = ["DEFAULT_POLL_S", "WorkerSummary", "execute_point", "run_worker"]

#: How long a worker sleeps between claim attempts while the queue is empty
#: but siblings still hold ``running`` rows (we wait to adopt their leases
#: should they die).
DEFAULT_POLL_S = 1.0


@dataclass
class WorkerSummary:
    """Accounting of one worker's participation in a campaign."""

    campaign: str
    worker_id: str
    claimed: int = 0
    #: Claims that adopted a stale sibling lease rather than a pending row.
    adopted: int = 0
    done: int = 0
    failed: int = 0
    timed_out: int = 0
    retried: int = 0
    #: In-flight points handed back to the queue on SIGTERM/SIGINT.
    released: int = 0
    #: Finished attempts discarded because a sibling adopted the lease
    #: mid-run -- the at-most-once fence in action.
    lost_leases: int = 0
    runtime_s: float = 0.0
    #: Signal number that stopped the worker, or ``None`` on drain/limit.
    stopped_by_signal: Optional[int] = None
    stage_hits: Dict[str, int] = field(default_factory=dict)
    stage_recomputes: Dict[str, int] = field(default_factory=dict)

    def report(self) -> str:
        """One-line human summary, ``repro campaign worker``'s last output."""
        text = (
            f"worker {self.worker_id!r}: claimed {self.claimed}, "
            f"done {self.done}, failed {self.failed}, "
            f"timed_out {self.timed_out}, retried {self.retried}"
        )
        extras = []
        if self.adopted:
            extras.append(f"adopted {self.adopted}")
        if self.released:
            extras.append(f"released {self.released}")
        if self.lost_leases:
            extras.append(f"lost_leases {self.lost_leases}")
        if self.stopped_by_signal is not None:
            extras.append(f"stopped by signal {self.stopped_by_signal}")
        if extras:
            text += " (" + ", ".join(extras) + ")"
        return text

    def as_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "worker_id": self.worker_id,
            "claimed": self.claimed,
            "adopted": self.adopted,
            "done": self.done,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "retried": self.retried,
            "released": self.released,
            "lost_leases": self.lost_leases,
            "runtime_s": self.runtime_s,
            "stopped_by_signal": self.stopped_by_signal,
            "stage_hits": dict(self.stage_hits),
            "stage_recomputes": dict(self.stage_recomputes),
        }


class _WorkerDriver(_StoreDriver):
    """Feeds the engine one claim at a time and marks outcomes under the lease."""

    def __init__(
        self,
        store: ResultStore,
        campaign: str,
        worker_id: str,
        summary: WorkerSummary,
        heartbeat_s: float,
        stale_after_s: float,
        poll_s: float,
        max_points: Optional[int],
        wait_for_stragglers: bool,
        warm_start: bool,
    ) -> None:
        super().__init__([], store, campaign, [], heartbeat_s)
        self.worker_id = worker_id
        self.summary = summary
        self.stale_after_s = stale_after_s
        self.poll_s = poll_s
        self.max_points = max_points
        self.wait_for_stragglers = wait_for_stragglers
        self.warm_start = warm_start
        self.hints: List[Optional[dict]] = []
        #: Claimed points not yet marked terminal, released on a stop signal.
        self.held: Set[int] = set()
        self.results: List[ScenarioResult] = []

    def more(self, inflight: Set[int]) -> Sequence[int]:
        self.beat(inflight)
        # One lease at a time: claim only when no held point is in flight
        # or backing off before a retry.
        if self.held:
            return ()
        claimed = self._claim()
        if claimed is None:
            return ()
        point = claimed.point
        self.summary.claimed += 1
        self.summary.adopted += claimed.adopted
        self.specs.append(point.spec())
        self.digests.append(point.digest)
        # Warm-start pickup: the wiring was written at enrollment, the
        # neighbour's placement is read now -- a fleet worker claiming a
        # point late automatically sees more finished neighbours than an
        # eager one.  Resolved once per point: retries reuse the same hint.
        self.hints.append(self.store.warm_hint(point) if self.warm_start else None)
        index = len(self.specs) - 1
        self.held.add(index)
        return (index,)

    def _claim(self) -> Optional[ClaimedPoint]:
        """The next claimable point, waiting on siblings' leases if asked to."""
        while self.max_points is None or self.summary.claimed < self.max_points:
            claimed = self.store.claim_next_pending(
                self.campaign, owner=self.worker_id, stale_after_s=self.stale_after_s
            )
            if claimed is not None:
                return claimed
            counts = self.store.status_counts(self.campaign)
            if counts.get("pending", 0) == 0 and counts.get("running", 0) == 0:
                return None  # drained: every point is terminal
            if not self.wait_for_stragglers:
                return None
            # Siblings still hold running rows; wait so we can adopt their
            # leases if they die.  A plain sleep: the SIGTERM handler
            # interrupts it.
            time.sleep(self.poll_s)
        return None

    def warm_hint(self, index: int) -> Optional[dict]:
        return self.hints[index]

    def start(self, index: int, attempt: int) -> None:
        # The claim stamped the first attempt.  A retry re-stamps the row,
        # which increments ``attempts`` and refreshes the heartbeat.
        if attempt:
            self.store.mark_running(
                self.campaign, self.digests[index], lease_owner=self.worker_id
            )

    def done(self, index: int, record: dict, wall_time_s: float) -> None:
        self.held.discard(index)
        if self.store.mark_done(
            self.campaign,
            self.digests[index],
            record,
            wall_time_s=wall_time_s,
            require_owner=self.worker_id,
        ):
            self.summary.done += 1
            self.results.append(ScenarioResult.from_dict(record))
        else:
            self.summary.lost_leases += 1

    def failed(self, index: int, status: str, message: str, retrying: bool) -> None:
        if retrying:
            # The row stays running under our lease through the backoff,
            # so a stop signal can still hand it back.
            self.summary.retried += 1
            return
        self.held.discard(index)
        if status == STATUS_TIMED_OUT:
            marked = self.store.mark_timed_out(
                self.campaign, self.digests[index], message, require_owner=self.worker_id
            )
            self.summary.timed_out += marked
        else:
            marked = self.store.mark_failed(
                self.campaign, self.digests[index], message, require_owner=self.worker_id
            )
            self.summary.failed += marked
        self.summary.lost_leases += not marked

    def stop(self, inflight: Sequence[int]) -> None:
        # Graceful shutdown: hand every held claim straight back to the
        # queue so a sibling picks it up without waiting for the lease to
        # go stale.
        for index in sorted(self.held):
            if self.store.release(self.campaign, self.digests[index], self.worker_id):
                self.summary.released += 1
        self.held.clear()


def run_worker(
    campaign: str,
    store: Union[ResultStore, PathLike, None] = None,
    worker_id: Optional[str] = None,
    cache: Union[StageCache, PathLike, None] = None,
    use_cache: bool = True,
    serial: bool = False,
    retries: int = 0,
    timeout_s: Optional[float] = None,
    retry_backoff_s: float = 0.0,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    poll_s: float = DEFAULT_POLL_S,
    max_points: Optional[int] = None,
    wait_for_stragglers: bool = True,
    warm_start: bool = True,
) -> WorkerSummary:
    """Join a campaign as one worker of a cooperative fleet.

    Loops claim → run → heartbeat → mark against the campaign's store
    until the queue drains (no ``pending`` or ``running`` rows remain),
    ``max_points`` claims have been made, or a stop signal lands.  See the
    module docstring for the exactly-once semantics.  Unlike
    :func:`~repro.runner.batch.run_batch` the worker never enrolls points
    (use ``repro campaign enroll`` / :meth:`ResultStore.enroll` first) and
    never resets or reclaims rows wholesale at startup — fleets rely on
    per-row lease adoption instead, so a late worker can join a running
    campaign without disturbing its siblings.

    Parameters mirror ``run_batch`` where they overlap; the new ones:

    worker_id:
        Lease identity written into claimed rows (default ``host:pid``).
        Must be unique across live fleet members.
    serial:
        Run points in-process instead of a single-process pool.  Cheaper,
        but no mid-point heartbeats and only post-hoc timeouts: a serial
        worker stalled in a long point *will* look stale after
        ``stale_after_s``.  The lease fence turns the consequence into a
        discarded duplicate result rather than a double-done.
    poll_s:
        Sleep between claim attempts while waiting on siblings' rows.
    max_points:
        Stop after this many claims (useful for tests and canaries).
    wait_for_stragglers:
        When ``False``, exit as soon as no row is claimable instead of
        waiting to adopt siblings' leases should they die.
    warm_start:
        When ``True`` (default), claimed points with warm-start wiring
        (``warm_hint_digest`` written at enrollment) pick their neighbour's
        done placement up from the store and offer it to the solver; set
        ``False`` to force every point cold.
    """
    if retries < 0:
        raise ConfigurationError("retries must be >= 0")
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError("timeout_s must be > 0 when set")
    if retry_backoff_s < 0:
        raise ConfigurationError("retry_backoff_s must be >= 0")
    if heartbeat_s <= 0 or stale_after_s <= 0:
        raise ConfigurationError("heartbeat_s and stale_after_s must be > 0")
    if poll_s <= 0:
        raise ConfigurationError("poll_s must be > 0")
    if max_points is not None and max_points <= 0:
        raise ConfigurationError("max_points must be > 0 when set")

    # Workers arm telemetry and chaos from the environment like pool
    # workers do: each fleet member is typically its own ``repro`` process.
    configure_from_env()
    faults.configure_from_env()

    result_store = resolve_store(store if store is not None else default_store_path())
    owns_store = not isinstance(store, ResultStore)
    stage_cache = resolve_cache(cache, enabled=use_cache)
    use_cache = stage_cache.enabled
    worker_id = worker_id if worker_id is not None else default_lease_owner()

    summary = WorkerSummary(campaign=campaign, worker_id=worker_id)
    driver = _WorkerDriver(
        store=result_store,
        campaign=campaign,
        worker_id=worker_id,
        summary=summary,
        heartbeat_s=heartbeat_s,
        stale_after_s=stale_after_s,
        poll_s=poll_s,
        max_points=max_points,
        wait_for_stragglers=wait_for_stragglers,
        warm_start=warm_start,
    )
    start = time.perf_counter()
    try:
        with _stop_signals(), span("worker", campaign=campaign, worker_id=worker_id):
            _drive_points(
                driver,
                (),
                stage_cache,
                use_cache,
                processes=0 if serial else 1,
                retries=retries,
                timeout_s=timeout_s,
                retry_backoff_s=retry_backoff_s,
            )
    except _StopRequested as stop:
        summary.stopped_by_signal = stop.signum
    finally:
        summary.runtime_s = time.perf_counter() - start
        summary.stage_hits = count_stage_flags(driver.results, cached=True)
        summary.stage_recomputes = count_stage_flags(driver.results, cached=False)
        if owns_store:
            result_store.close()
        # Fold this worker's pool-child trace shards into the merged trace
        # (no-op while tracing is disabled).
        merge_active_trace()
    return summary
