"""Outside-in layer tracing: wrap the program's public calls, record spans in memory.

The program is not edited.  :func:`install` replaces the public functions
each layer is entered through with wrappers that record one span per call
(name, layer, start, end, parent span, request id) into a :class:`Tracer`.
Spans stay in memory until :meth:`Tracer.write` at the end of the run.  A
request id is the id of the outermost span on the calling thread, so every
span a CLI call, a sweep, a drained point or an HTTP request causes shares it.

Only traced runs install the wrappers; end-to-end metrics come from
untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from common import current_rss_mb, median

#: Layers, in the order the pipeline reaches them.  ``orchestration`` is the
#: point and sweep drivers (runner.batch, sweep, runner.worker).
LAYERS = (
    "cli", "orchestration", "gis", "solar", "suitability", "solve", "evaluate",
    "cache", "store", "serve",
)
SOLVERS = ("greedy", "traditional", "ilp")
STORE_OPS = ("find_done", "find_point", "enroll", "queue_depth", "claim", "mark_done")
SERVE_OUTCOMES = ("hit", "miss", "pending")

Describe = Callable[[tuple, dict, Any], Dict[str, Any]]


def _solver_name(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    solver = args[1] if len(args) > 1 else kwargs.get("solver", "greedy")
    return {"name": f"solve.{solver}"}


def _cache_hit(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"hit": bool(result[1])}


def _cache_put_bytes(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    cache, stage, payload = args[0], args[1], args[2]
    if not cache.enabled:
        return {"bytes": 0}
    entry = cache.path_for(stage, payload)
    size = sum(path.stat().st_size for path in entry.parent.glob(f"{entry.stem}.*"))
    return {"bytes": size}


def _solar_field_bytes(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    # float32 storage of the daylight-compressed field: n_daylight x Ng x 4 bytes.
    return {"bytes": int(result.n_daylight) * int(result.n_cells) * 4}


def _claim_empty(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"empty": result is None}


def _plan_outcome(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    status, payload = result[0], result[1]
    if status == 200:
        outcome = "hit"
    elif status == 202:
        outcome = "miss" if "queue_depth" in payload else "pending"
    else:
        outcome = f"status{status}"
    return {"name": f"serve.plan.{outcome}", "status": status}


#: (module, attribute path, span name, layer, describe, sample RSS).  Functions
#: imported by name into another module are wrapped where they are looked up.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Describe], bool], ...] = (
    ("repro.cli", "main", "cli.main", "cli", None, False),
    ("repro.sweep", "run_sweep", "sweep.run_sweep", "orchestration", None, False),
    ("repro.runner.batch", "execute_point", "batch.execute_point", "orchestration", None, False),
    ("repro.runner.worker", "execute_point", "batch.execute_point", "orchestration", None, False),
    ("repro.runner.worker", "run_worker", "worker.run_worker", "orchestration", None, False),
    ("repro.runner.batch", "run_scenario", "stages.run_scenario", "orchestration", None, False),
    ("repro.cli", "run_scenario", "stages.run_scenario", "orchestration", None, False),
    ("repro.runner.stages", "build_roof_scene", "gis.scene", "gis", None, False),
    ("repro.runner.stages", "make_roof_grid", "gis.grid.make", "gis", None, False),
    ("repro.runner.stages", "suitable_grid_for_scene", "gis.grid.suitable", "gis", None, False),
    ("repro.runner.stages", "compute_roof_solar_field", "solar.field", "solar",
     _solar_field_bytes, True),
    ("repro.solar.irradiance_map", "compute_horizon_map", "solar.horizon", "solar", None, False),
    ("repro.runner.stages", "compute_suitability", "suitability", "suitability", None, False),
    ("repro.runner.stages", "solve_with_fallback", "solve.chain", "solve", None, False),
    ("repro.runner.stages", "solve", "solve", "solve", _solver_name, False),
    ("repro.runner.solvers", "solve", "solve", "solve", _solver_name, False),
    ("repro.core.evaluation", "PlacementEvaluator.__init__", "evaluate.init", "evaluate",
     None, False),
    ("repro.core.evaluation", "PlacementEvaluator.compare", "evaluate", "evaluate", None, False),
    ("repro.runner.cache", "StageCache.get", "cache.get", "cache", _cache_hit, False),
    ("repro.runner.cache", "StageCache.put", "cache.put", "cache", _cache_put_bytes, False),
    ("repro.runner.store", "ResultStore.find_done", "store.find_done", "store", None, False),
    ("repro.runner.store", "ResultStore.find_point", "store.find_point", "store", None, False),
    ("repro.runner.store", "ResultStore.enroll", "store.enroll", "store", None, False),
    ("repro.runner.store", "ResultStore.queue_depth", "store.queue_depth", "store", None, False),
    ("repro.runner.store", "ResultStore.claim_next_pending", "store.claim", "store",
     _claim_empty, False),
    ("repro.runner.store", "ResultStore.mark_done", "store.mark_done", "store", None, False),
    ("repro.serve.app", "ServeApp.handle_plan", "serve.plan", "serve", _plan_outcome, False),
)


class Tracer:
    """In-memory span recorder; wrappers are installed with :func:`install`."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        self.pid = os.getpid()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, owner: Any, attr: str, name: str, layer: str,
        describe: Optional[Describe] = None, sample_rss: bool = False,
    ) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            request = stack[0] if stack else span_id
            stack.append(span_id)
            rss_before = current_rss_mb() if sample_rss else 0.0
            failed = None
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                record = {
                    "id": span_id, "parent": parent, "request": request, "name": name,
                    "layer": layer, "start": start, "end": end, "pid": tracer.pid,
                }
                if failed is not None:
                    record["error"] = failed
                elif describe is not None:
                    record.update(describe(args, kwargs, result))
                if sample_rss:
                    record["rss_delta_mb"] = current_rss_mb() - rss_before
                tracer.spans.append(record)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def install(tracer: Tracer) -> Tracer:
    """Wrap every target in :data:`TARGETS` (importing its module)."""
    for module_name, path, name, layer, describe, sample_rss in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, name, layer, describe, sample_rss)
    return tracer


def read_spans(paths: Iterable[Path]) -> List[Dict[str, Any]]:
    """Spans written by traced child processes (missing files are skipped)."""
    spans: List[Dict[str, Any]] = []
    for path in paths:
        if path.exists():
            with open(path, encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans: List[Dict[str, Any]]) -> Dict[Tuple[int, int], float]:
    """Each span's duration minus the part its direct children cover."""
    child_time: Dict[Tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[(span["pid"], span["parent"])] += span["end"] - span["start"]
    own: Dict[Tuple[int, int], float] = {}
    for span in spans:
        key = (span["pid"], span["id"])
        own[key] = span["end"] - span["start"] - child_time[key]
    return own


def aggregate(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of a span set, named ``<layer>.<op>.<kind>``.

    The ``cli.import.*``, ``trace.*`` and ``serve.http.overhead_ms`` figures
    need measurements outside the spans; the workload fills them in.
    """
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def calls(*names: str) -> int:
        return sum(len(by_name[name]) for name in names)

    def busy(*names: str) -> float:
        return sum(s["end"] - s["start"] for name in names for s in by_name[name])

    def p50_ms(name: str) -> float:
        return median([(s["end"] - s["start"]) * 1e3 for s in by_name[name]])

    out: Dict[str, float] = {
        "gis.scene.calls": calls("gis.scene"), "gis.scene.busy_s": busy("gis.scene"),
        "gis.grid.calls": calls("gis.grid.make"),
        "gis.grid.busy_s": busy("gis.grid.make", "gis.grid.suitable"),
        "solar.horizon.calls": calls("solar.horizon"),
        "solar.horizon.busy_s": busy("solar.horizon"),
        "solar.field.calls": calls("solar.field"), "solar.field.busy_s": busy("solar.field"),
        "solar.field.bytes": sum(s.get("bytes", 0) for s in by_name["solar.field"]),
        "solar.field.rss_delta_mb": max(
            [s.get("rss_delta_mb", 0.0) for s in by_name["solar.field"]], default=0.0
        ),
        "suitability.calls": calls("suitability"), "suitability.busy_s": busy("suitability"),
        "evaluate.calls": calls("evaluate"), "evaluate.busy_s": busy("evaluate"),
        "evaluate.p50_ms": p50_ms("evaluate"),
        "cache.get.calls": calls("cache.get"), "cache.get.busy_s": busy("cache.get"),
        "cache.put.calls": calls("cache.put"), "cache.put.busy_s": busy("cache.put"),
        "cache.put.bytes": sum(s.get("bytes", 0) for s in by_name["cache.put"]),
    }
    gets = by_name["cache.get"]
    out["cache.hit.ratio"] = sum(1 for s in gets if s.get("hit")) / len(gets) if gets else 0.0
    for solver in SOLVERS:
        name = f"solve.{solver}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.p50_ms"] = p50_ms(name)
    for op in STORE_OPS:
        name = f"store.{op}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.p50_ms"] = p50_ms(name)
    claims = by_name["store.claim"]
    out["store.claim.empty_ratio"] = (
        sum(1 for s in claims if s.get("empty")) / len(claims) if claims else 0.0
    )
    for outcome in SERVE_OUTCOMES:
        name = f"serve.plan.{outcome}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.p50_ms"] = p50_ms(name)

    own = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for span in spans:
        out[f"{span['layer']}.self_s"] += own[(span["pid"], span["id"])]
    return out
