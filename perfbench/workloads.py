"""The four benchmark workloads.

Each ``run_<workload>(seed, seconds, trace)`` returns an
:class:`~common.Outcome` holding, untraced, the end-to-end metrics
(``setup_s``, ``latency_p50_ms``, ``latency_tail_ms``, ``ops_per_s``,
``peak_rss_mb``; every workload emits all five), and traced, the per-layer
metrics BENCHMARK.json lists.  Every run sets up ``SETUP_REPS`` times in
fresh private directories (``setup_s`` is the median; the last set-up's
state is the one measured), then fills ``seconds`` with whole units of
work, checking every output.

Why each workload exists (see README.md for the layer map):

* cli-warm: every CLI call pays start-up; the in-process workloads do not.
* table1-cold: the reproduce-the-paper path; data extraction and cache
  writes do the work.
* sweep-warm: the parameter-study path; data extraction is bypassed, so
  solve, evaluate, cache reads and point orchestration do the work.
* serve-mix: the only workload that exercises ``repro serve`` and the
  result store, with reads beside writes.
"""

from __future__ import annotations

import http.client
import importlib
import json
import os
import random
import subprocess
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import (
    OUT_ROOT,
    SETUP_REPS,
    BenchError,
    Outcome,
    Server,
    child_env,
    cpus_kept_awake,
    make_workdir,
    median,
    peak_rss_mb,
    python_argv,
    remove_workdir,
    repeat_units,
    run_child,
    tail,
)
from tracer import Tracer, aggregate, install, read_spans

#: Weather seed of the paper configuration; reference values below hold for it.
DEFAULT_SEED = 7
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def _require(child, what: str) -> None:
    if child.code != 0:
        raise BenchError(f"{what} exited with {child.code}:\n{child.tail()}")


def _setup_median(one: Callable[[int], float], out: Outcome) -> None:
    out.metrics["setup_s"] = median([one(rep) for rep in range(SETUP_REPS)])


def _latency_metrics(out: Outcome, samples_s: List[float], what: str) -> None:
    samples_ms = [value * 1e3 for value in samples_s]
    tail_stat = tail(samples_ms)
    out.metrics["latency_p50_ms"] = median(samples_ms)
    out.metrics["latency_tail_ms"] = tail_stat.value
    out.notes["latency"] = (
        f"{what}; tail = {tail_stat.label} of {tail_stat.samples} samples"
    )


#: How far the traced point spans may differ from the points' outside clock.
ACCOUNTED_TOLERANCE = 0.01


def _trace_metrics(
    out: Outcome, spans: List[dict], untraced_p50_s: float, traced_p50_s: float,
    point_walls: Optional[List[float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics plus tracing overhead and, given point walls, accounting.

    ``point_walls`` are the traced points as :class:`PointClock` timed them
    from outside.  The layer self times inside a point span add up to the
    span's duration, so ``trace.accounted.ratio`` (point spans over point
    walls) says how much of the measured point time the layer self times
    account for; it must be 1 within :data:`ACCOUNTED_TOLERANCE`.
    """
    layer = aggregate(spans)
    layer["trace.overhead_ms"] = (traced_p50_s - untraced_p50_s) * 1e3
    layer["trace.overhead.ratio"] = (
        (traced_p50_s - untraced_p50_s) / untraced_p50_s if untraced_p50_s else 0.0
    )
    # serve-mix, the only workload with HTTP round trips, fills this in.
    layer["serve.http.overhead_ms"] = 0.0
    layer["trace.accounted.ratio"] = 0.0
    if point_walls:
        point_spans = [s for s in spans if s["name"] == "batch.execute_point"]
        ratio = sum(s["end"] - s["start"] for s in point_spans) / sum(point_walls)
        layer["trace.accounted.ratio"] = ratio
        if len(point_spans) != len(point_walls) or abs(ratio - 1.0) > ACCOUNTED_TOLERANCE:
            out.fail(f"{len(point_spans)} point spans cover {ratio:.4f} of "
                     f"{len(point_walls)} clocked points")
    return layer


def measure_import() -> Dict[str, float]:
    """``import repro.cli`` in fresh processes: wall time, and scipy's share."""
    probe = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    walls = []
    for _ in range(3):
        done = subprocess.run(
            python_argv("-c", probe), env=child_env(), capture_output=True, text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise BenchError(f"import probe failed:\n{done.stderr[-2000:]}")
        walls.append(float(done.stdout.strip().splitlines()[-1]))
    done = subprocess.run(
        python_argv("-X", "importtime", "-c", "import repro.cli"), env=child_env(),
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise BenchError(f"import-time probe failed:\n{done.stderr[-2000:]}")
    scipy_us = 0
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            if name == "scipy" or name.startswith("scipy."):
                scipy_us += int(parts[0].split(":")[1])
    return {"cli.import.busy_s": median(walls), "cli.import.scipy_s": scipy_us / 1e6}


def _finish_trace(
    out: Outcome, workload: str, seed: int, tracer: Tracer, layer: Dict[str, float]
) -> None:
    """Add the import figures, write the spans, and report the per-layer metrics."""
    layer.update(measure_import())
    tracer.write(OUT_ROOT / f"trace-{workload}-seed{seed}.jsonl")
    out.metrics = layer


class PointClock:
    """Times each call of ``execute_point`` (one point) where sweeps and the worker call it.

    Entered after :func:`tracer.install`, it clocks each point from outside
    the point's span, which is what the accounting check compares against.
    """

    MODULES = ("repro.runner.batch", "repro.runner.worker")

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._patches: List[Tuple[Any, Any]] = []

    def _timed(self, original: Callable[..., Any]) -> Callable[..., Any]:
        samples = self.samples

        def timed(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - started)

        return timed

    def __enter__(self) -> "PointClock":
        for name in self.MODULES:
            module = importlib.import_module(name)
            self._patches.append((module, module.execute_point))
            module.execute_point = self._timed(module.execute_point)
        return self

    def __exit__(self, *exc: object) -> None:
        while self._patches:
            module, original = self._patches.pop()
            module.execute_point = original


# ---------------------------------------------------------------------------
# cli-warm
# ---------------------------------------------------------------------------


def run_cli_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    """Fresh ``python -m repro run <scenario>`` calls against a warmed cache.

    One client in a closed loop makes whole passes over the catalog, each
    pass in a seed-shuffled order, filling ``seconds`` (at least two passes
    untraced, so that every scenario's call has a repeat: the gated figures
    take each scenario's fastest call, as sweep-warm takes each point's).
    """
    from repro.runner import StageCache
    from repro.runner.stages import ScenarioResult, run_scenario
    from repro.scenario import builtin_scenarios

    out = Outcome()
    work = make_workdir("cli-warm")
    try:
        catalog = builtin_scenarios()
        cache = work / "cache"

        def setup(rep: int) -> float:
            remove_workdir(cache)
            child = run_child(
                python_argv("-m", "repro", "batch", "--serial", "--store", "none",
                            "--cache-dir", str(cache), "--results", str(work / "setup.jsonl")),
                work / f"setup{rep}.log",
            )
            _require(child, "set-up batch")
            return child.wall_s

        _setup_median(setup, out)
        stage_cache = StageCache(root=cache)
        reference = {
            name: run_scenario(spec, cache=stage_cache).fingerprint()
            for name, spec in catalog.items()
        }
        rng = random.Random(seed)

        def one_pass(calls: List[Tuple[str, float, float]], traced: bool) -> float:
            """One call per catalog scenario, in a seed-shuffled order; the pass's wall."""
            order = sorted(catalog)
            rng.shuffle(order)
            tag = f"{'traced' if traced else 'call'}{len(calls)}"
            started = time.perf_counter()
            for index, name in enumerate(order):
                stem = work / f"{tag}-{index}"
                program = (["-m", "repro"] if not traced else
                           [str(Path(__file__).parent / "trace_child.py"), f"{stem}.spans"])
                child = run_child(
                    python_argv(*program, "run", name, "--cache-dir", str(cache),
                                "--output", f"{stem}.json"),
                    Path(f"{stem}.log"),
                )
                out.attempted += 1
                calls.append((name, child.wall_s, child.peak_rss_mb))
                if child.code != 0:
                    out.fail(f"repro run {name} exited {child.code}: {child.tail(3)}")
                    continue
                record = ScenarioResult.from_dict(json.loads(Path(f"{stem}.json").read_text()))
                if record.fingerprint() != reference[name]:
                    out.fail(f"repro run {name}: fingerprint differs from run_scenario")
                elif not all(record.stage_cached.values()):
                    out.fail(f"repro run {name}: recomputed {record.stage_cached}")
            return time.perf_counter() - started

        calls: List[Tuple[str, float, float]] = []
        passes = repeat_units(lambda: one_pass(calls, traced=False),
                              seconds / 2 if trace else seconds, min_units=1 if trace else 2)
        walls = [c[1] for c in calls]
        if not trace:
            best_ms = [min(wall for name, wall, _ in calls if name == scenario) * 1e3
                       for scenario in sorted(catalog)]
            out.metrics["latency_p50_ms"] = median(best_ms)
            out.metrics["latency_tail_ms"] = max(best_ms)
            out.metrics["ops_per_s"] = len(best_ms) / (sum(best_ms) / 1e3)
            out.metrics["peak_rss_mb"] = max(c[2] for c in calls)
            out.notes["latency"] = (
                f"each scenario's fastest of {len(passes)} calls; p50 = the median and "
                f"tail = the maximum over the {len(best_ms)} scenarios; calls per second "
                "of a pass at those times")
            raw_ms = [wall * 1e3 for wall in walls]
            out.notes["all_calls"] = (
                f"{len(calls)} calls: p50 {median(raw_ms):.4f} ms, max {max(raw_ms):.4f} ms, "
                f"{len(calls) / sum(passes):.4f} calls/s (not gated)")
            return out

        traced_calls: List[Tuple[str, float, float]] = []
        for _ in passes:
            one_pass(traced_calls, traced=True)
        traced_walls = [c[1] for c in traced_calls]
        # The children's spans join the (otherwise empty) in-process tracer.
        tracer = Tracer()
        tracer.spans = read_spans(sorted(work.glob("traced*.spans")))
        layer = _trace_metrics(out, tracer.spans, median(walls), median(traced_walls))
        recorded = sum(1 for span in tracer.spans if span["name"] == "cli.main")
        if recorded != len(traced_walls):
            out.fail(f"cli-warm: {recorded} traced CLI calls recorded, "
                     f"{len(traced_walls)} made")
        _finish_trace(out, "cli-warm", seed, tracer, layer)
        return out
    finally:
        remove_workdir(work)


# ---------------------------------------------------------------------------
# table1-cold
# ---------------------------------------------------------------------------


def _paper_case_config(seed: int) -> Any:
    """The bench-harness resolution: 0.2 m grid, 0.4 m DSM, hourly every 7th day."""
    from repro.experiments import CaseStudyConfig
    from repro.solar import SolarSimulationConfig

    return CaseStudyConfig(
        scale=1.0, grid_pitch=0.2, dsm_pitch=0.4, time_step_minutes=60.0, day_stride=7,
        weather_seed=seed, solar=SolarSimulationConfig(),
    )


def _table1_plan(seed: int) -> Any:
    from repro.experiments import Table1Config
    from repro.experiments.table1 import table1_sweep_plan

    return table1_sweep_plan(
        Table1Config(module_counts=(16, 32), series_length=8, case_study=_paper_case_config(seed))
    )


def _import_setup(work: Path, out: Outcome) -> None:
    """Set-up of the in-process workloads: a fresh process importing the program."""

    def setup(rep: int) -> float:
        child = run_child(
            python_argv("-c", "import repro.sweep, repro.experiments"),
            work / f"setup{rep}.log",
        )
        _require(child, "set-up import")
        return child.wall_s

    _setup_median(setup, out)


def run_table1_cold(seed: int, seconds: float, trace: bool) -> Outcome:
    """The paper's Table I sweep, serial and in-process, on an empty cache each time."""
    import repro.sweep as sweep_mod
    from repro.runner import StageCache

    out = Outcome()
    work = make_workdir("table1-cold")
    try:
        _import_setup(work, out)
        plan = _table1_plan(seed)
        reference = REFERENCE["table1"]
        first_fingerprints: List[dict] = []

        def one_sweep() -> float:
            cache_dir = make_workdir("table1-cache")
            cache = StageCache(root=cache_dir)
            try:
                started = time.perf_counter()
                result = sweep_mod.run_sweep(plan, cache=cache, parallel=False)
                wall = time.perf_counter() - started
            finally:
                remove_workdir(cache_dir)
            out.attempted += len(result.points)
            fingerprints = [point.result.fingerprint() for point in result.points]
            if not first_fingerprints:
                first_fingerprints.extend(fingerprints)
            elif fingerprints != first_fingerprints:
                out.fail("table1-cold: repeated cold sweeps disagree")
            seen_roofs = set()
            for point, row in zip(result.points, reference["rows"]):
                res, roof = point.result, point.labels["roof"]
                if roof != row["roof"] or res.n_modules != row["n_modules"]:
                    out.fail(f"table1-cold: unexpected point {point.name}")
                    continue
                if res.n_valid_cells != reference["ng"][roof]:
                    out.fail(f"table1-cold: {roof} Ng {res.n_valid_cells} "
                             f"!= {reference['ng'][roof]}")
                cold = roof not in seen_roofs
                seen_roofs.add(roof)
                flags = set(res.stage_cached.values())
                if flags != ({False} if cold else {True}):
                    out.fail(f"table1-cold: {point.name} cache flags {res.stage_cached}")
                if seed == DEFAULT_SEED and (
                    res.annual_energy_mwh != row["proposed_mwh"]
                    or res.baseline_energy_mwh != row["traditional_mwh"]
                ):
                    out.fail(f"table1-cold: {point.name} energies differ from the reference")
            if cache.stats.misses != cache.stats.writes:
                out.fail(f"table1-cold: cache accounting {cache.stats.as_dict()}")
            return wall

        # At least three sweeps untraced: one cold sweep takes about a third
        # of the default run, so the count does not jump between runs.
        walls = repeat_units(one_sweep, seconds / 2 if trace else seconds,
                             min_units=2 if trace else 3)
        if not trace:
            _latency_metrics(out, walls, f"per cold Table I sweep, {len(walls)} sweeps")
            out.metrics["ops_per_s"] = out.attempted / sum(walls)
            out.metrics["peak_rss_mb"] = peak_rss_mb()
            out.notes["wall_s"] = f"{median(walls):.4f} s (median cold sweep)"
            return out

        tracer = install(Tracer())
        try:
            with PointClock() as clock:
                traced = repeat_units(one_sweep, seconds / 2, min_units=2)
        finally:
            tracer.uninstall()
        layer = _trace_metrics(out, tracer.spans, median(walls), median(traced), clock.samples)
        if layer["solar.field.calls"] != 3 * len(traced):
            out.fail(f"table1-cold: {layer['solar.field.calls']} solar.field calls "
                     f"in {len(traced)} sweeps (expected one per roof)")
        _finish_trace(out, "table1-cold", seed, tracer, layer)
        return out
    finally:
        remove_workdir(work)


# ---------------------------------------------------------------------------
# sweep-warm
# ---------------------------------------------------------------------------


def run_sweep_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    """A 24-point SweepPlan (3 roofs x 4 module counts x 2 solvers) over a filled cache."""
    import repro.sweep as sweep_mod
    from repro.runner import StageCache
    from repro.runner.stages import ScenarioResult
    from repro.sweep import SweepAxis, SweepPlan

    out = Outcome()
    work = make_workdir("sweep-warm")
    try:
        table1 = _table1_plan(seed)
        plan = SweepPlan(
            name="sweep-warm", base=table1.base,
            axes=(table1.axes[0], SweepAxis("n_modules", (16, 32, 64, 128)),
                  SweepAxis("solver.name", ("greedy", "traditional"))),
        )
        plan_path = work / "plan.json"
        plan.save(plan_path)
        cache_dir = work / "cache"
        cold_path = work / "cold.jsonl"

        def setup(rep: int) -> float:
            remove_workdir(cache_dir)
            child = run_child(
                python_argv("-m", "repro", "sweep", str(plan_path), "--serial",
                            "--store", "none", "--cache-dir", str(cache_dir),
                            "--results", str(cold_path)),
                work / f"setup{rep}.log",
            )
            _require(child, "set-up cold sweep")
            return child.wall_s

        _setup_median(setup, out)
        cold = {}
        for line in cold_path.read_text().splitlines():
            record = ScenarioResult.from_dict(json.loads(line))
            cold[record.scenario] = record.fingerprint()
        if len(cold) != plan.n_points:
            raise BenchError(f"cold sweep wrote {len(cold)} of {plan.n_points} points")
        cache = StageCache(root=cache_dir)

        def one_sweep() -> float:
            started = time.perf_counter()
            result = sweep_mod.run_sweep(plan, cache=cache, parallel=False)
            wall = time.perf_counter() - started
            out.attempted += len(result.points)
            for point in result.points:
                res = point.result
                if res.fingerprint() != cold.get(res.scenario):
                    out.fail(f"sweep-warm: {res.scenario} differs from the cold run")
                if not all(res.stage_cached.values()):
                    out.fail(f"sweep-warm: {res.scenario} recomputed {res.stage_cached}")
            return wall

        def best_per_point(samples: List[float]) -> List[float]:
            """Each point's fastest repeat (sweeps run the plan in one serial order).

            On a shared host the speed of a whole run drifts with the other
            tenants' load, which moved the median of the raw per-point
            samples by a quarter between runs of the same code.  The fastest
            of a point's repeats, as ``timeit`` takes it, is the point's own
            cost; slow repeats show in the figures over all samples, which
            are printed but not gated.
            """
            n = plan.n_points
            return [min(samples[i::n]) for i in range(n)]

        def measure(budget: float) -> Tuple[List[float], List[float]]:
            with PointClock() as clock:
                walls = repeat_units(one_sweep, budget)
            if len(clock.samples) != plan.n_points * len(walls):
                out.fail(f"sweep-warm: timed {len(clock.samples)} points, "
                         f"expected {plan.n_points * len(walls)}")
            return walls, clock.samples

        walls, points = measure(seconds / 2 if trace else seconds)
        if cache.stats.misses:
            out.fail(f"sweep-warm: {cache.stats.misses} cache misses on a filled cache")
        if not trace:
            best_ms = [value * 1e3 for value in best_per_point(points)]
            out.metrics["latency_p50_ms"] = median(best_ms)
            out.metrics["latency_tail_ms"] = max(best_ms)
            # The sweep's own work between its points, at its fastest repeat too.
            n = plan.n_points
            between_s = min(wall - sum(points[k * n:(k + 1) * n]) for k, wall in enumerate(walls))
            out.metrics["ops_per_s"] = n / (between_s + sum(best_ms) / 1e3)
            out.metrics["peak_rss_mb"] = peak_rss_mb()
            out.notes["latency"] = (
                f"each point's fastest of {len(walls)} repeats; p50 = the median "
                f"and tail = the maximum over the {plan.n_points} points")
            out.notes["ops_per_s"] = (
                f"points per second of a sweep whose points and whose work between them "
                f"each take their fastest of {len(walls)} repeats ({between_s:.4f} s between)")
            raw_ms = [value * 1e3 for value in points]
            raw_tail = tail(raw_ms)
            out.notes["all_points"] = (
                f"{len(points)} samples: p50 {median(raw_ms):.4f} ms, {raw_tail.label} "
                f"{raw_tail.value:.4f} ms, {len(points) / sum(walls):.4f} points/s "
                f"(not gated), median sweep {median(walls):.4f} s")
            return out

        tracer = install(Tracer())
        try:
            _, traced_points = measure(seconds / 2)
        finally:
            tracer.uninstall()
        layer = _trace_metrics(out, tracer.spans, median(best_per_point(points)),
                               median(best_per_point(traced_points)), traced_points)
        extraction = {name: layer[name] for name in
                      ("gis.scene.calls", "gis.grid.calls", "solar.field.calls",
                       "solar.horizon.calls", "suitability.calls")}
        if any(extraction.values()):
            out.fail(f"sweep-warm: data extraction ran on a filled cache: {extraction}")
        _finish_trace(out, "sweep-warm", seed, tracer, layer)
        return out
    finally:
        remove_workdir(work)


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

#: One request in MISS_EVERY is a fresh scenario (or, once the pool of 192 is
#: used up, an idempotent re-POST of one still in the queue).
MISS_EVERY = 3
SERVE_LISTENING = "repro serve listening on http://"


class TrafficPlan:
    """Seeded request stream shared by the client threads (a closed loop each)."""

    def __init__(self, seed: int, hits: List[Tuple[str, bytes, str]],
                 fresh: List[Tuple[str, bytes, str]], deadline: float) -> None:
        self.rng = random.Random(seed)
        self.hits = hits
        self.fresh = list(fresh)
        self.rng.shuffle(self.fresh)
        self.offset = self.rng.randrange(MISS_EVERY)
        self.deadline = deadline
        self.sent_fresh: List[Tuple[str, bytes, str]] = []
        self.count = 0
        self._lock = threading.Lock()

    def next(self) -> Optional[Tuple[Tuple[str, bytes, str], int]]:
        """The next (request, planned status), or None when the run is over.

        The run lasts until the deadline and until every fresh scenario
        has been sent, so each run drains the same set of points.
        """
        with self._lock:
            if (time.perf_counter() >= self.deadline
                    and len(self.sent_fresh) == len(self.fresh)):
                return None
            index = self.count
            self.count += 1
            if index % MISS_EVERY == self.offset:
                if len(self.sent_fresh) < len(self.fresh):
                    item = self.fresh[len(self.sent_fresh)]
                    self.sent_fresh.append(item)
                else:
                    item = self.rng.choice(self.sent_fresh)
                return item, 202
            return self.rng.choice(self.hits), 200


def _serve_inputs() -> Tuple[List[Tuple[str, bytes, str]], List[Tuple[str, bytes, str]]]:
    """(name, request body, digest) of the memo scenarios and of the fresh ones.

    The memo is the built-in catalog.  Fresh scenarios put the catalog's
    roofs under new module counts (one string) and solvers, so their
    data-extraction stages are already in the cache the memo run filled.
    """
    from repro.runner.stages import scenario_content_digest
    from repro.scenario import builtin_scenarios

    def entry(spec: Any) -> Tuple[str, bytes, str]:
        body = json.dumps({"scenario": spec.to_dict()}).encode("utf-8")
        return spec.name, body, scenario_content_digest(spec)

    catalog = builtin_scenarios()
    hits = [entry(spec) for spec in catalog.values()]
    fresh = [
        entry(spec.with_overrides({"n_modules": n, "n_series": n, "solver.name": solver},
                                  name=f"{spec.name}-n{n}-{solver}"))
        for spec in catalog.values() if spec.solver.name != "ilp"
        for n in range(2, 10) for solver in ("greedy", "traditional")
    ]
    return hits, fresh


def _traffic(port: int, plan: TrafficPlan, out: Outcome, clients: int) -> Dict[str, Any]:
    """Closed-loop clients posting the plan; returns latencies and first hit bodies."""
    hit_s: List[float] = []
    enqueue_s: List[float] = []
    first_hits: Dict[str, dict] = {}
    lock = threading.Lock()

    def client() -> None:
        while True:
            step = plan.next()
            if step is None:
                return
            (name, body, digest), expected = step
            # One connection per request, as the program's own client
            # (urllib, in repro.serve.client) makes them.
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            started = time.perf_counter()
            try:
                conn.request("POST", "/v1/plan", body, {"Content-Type": "application/json"})
                response = conn.getresponse()
                data = response.read()
            except (OSError, http.client.HTTPException) as exc:
                with lock:
                    out.attempted += 1
                    out.fail(f"serve-mix: {name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                conn.close()
            latency = time.perf_counter() - started
            payload = json.loads(data)
            with lock:
                out.attempted += 1
                if response.status != expected or payload.get("request_id") != digest:
                    out.fail(f"serve-mix: {name}: status {response.status} "
                             f"(planned {expected})")
                elif expected == 200:
                    hit_s.append(latency)
                    first_hits.setdefault(name, payload)
                else:
                    enqueue_s.append(latency)

    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            raise BenchError("serve-mix: a client thread did not finish")
    return {"wall": time.perf_counter() - started, "hit": hit_s, "enqueue": enqueue_s,
            "first_hits": first_hits}


def run_serve_mix(seed: int, seconds: float, trace: bool) -> Outcome:
    """``repro serve`` over a memo store, a seeded hit/miss mix, then an in-process drain."""
    import repro.runner.worker as worker_mod
    from repro.runner.stages import ScenarioResult
    from repro.runner.store import ResultStore

    out = Outcome()
    work = make_workdir("serve-mix")
    servers: List[Server] = []
    clients = len(os.sched_getaffinity(0))
    try:
        hits, fresh = _serve_inputs()
        cache = work / "cache"

        def build_memo(store: Path, tag: str) -> None:
            child = run_child(
                python_argv("-m", "repro", "campaign", "run", "memo", "--serial",
                            "--store", str(store), "--cache-dir", str(cache)),
                work / f"{tag}.log",
            )
            _require(child, "memo campaign")

        def start_server(store: Path, tag: str, spans: Optional[Path]) -> Tuple[Server, int]:
            program = (["-m", "repro"] if spans is None else
                       [str(Path(__file__).parent / "trace_child.py"), str(spans)])
            server = Server(
                python_argv(*program, "serve", "--store", str(store), "--port", "0",
                            "--max-queue", "1000"),
                work / f"{tag}-server.log",
            )
            servers.append(server)
            line = server.wait_for_line(SERVE_LISTENING)
            return server, int(line.rsplit(":", 1)[1])

        state: Dict[str, Any] = {}

        def setup(rep: int) -> float:
            if state:
                state["server"].stop()
            remove_workdir(cache)
            store = work / f"store{rep}.sqlite"
            started = time.perf_counter()
            build_memo(store, f"memo{rep}")
            server, port = start_server(store, f"setup{rep}", None)
            state.update(server=server, port=port, store=store)
            return time.perf_counter() - started

        _setup_median(setup, out)

        def phase(budget: float, store: Path, server: Server, port: int) -> Dict[str, Any]:
            """Traffic against the server on ``store``, then drain its queue in process."""
            plan = TrafficPlan(seed, hits, fresh, time.perf_counter() + budget)
            cpus = sorted(os.sched_getaffinity(0))
            if len(cpus) > 1:
                # Server and clients each on a CPU of their own, so the
                # scheduler's placement of the two processes cannot vary
                # between runs.  Client threads inherit the main thread's CPU.
                server.pin({cpus[-1]})
                os.sched_setaffinity(0, {cpus[0]})
            try:
                with cpus_kept_awake(set(cpus)):
                    traffic = _traffic(port, plan, out, clients)
            finally:
                os.sched_setaffinity(0, cpus)
            misses = len(plan.sent_fresh)
            started = time.perf_counter()
            with PointClock() as clock:
                summary = worker_mod.run_worker("serve", store=store, cache=cache,
                                                serial=True, wait_for_stragglers=False)
            traffic.update(misses=misses, requests=plan.count, points=clock.samples,
                           drain=time.perf_counter() - started)
            out.attempted += misses
            if summary.claimed != misses or summary.done != misses:
                out.fail(f"serve-mix: drain claimed {summary.claimed}, done {summary.done}, "
                         f"{misses} misses enqueued", max(1, misses - summary.done))
            with ResultStore(store) as results:
                rows = results.points("serve")
                if len(rows) != misses or any(row.status != "done" for row in rows):
                    out.fail(f"serve-mix: serve campaign rows "
                             f"{results.status_counts('serve')}, {misses} misses")
                for row in rows:
                    if row.status == "done" and not all(row.result().stage_cached.values()):
                        out.fail(f"serve-mix: {row.name} recomputed a data stage")
                by_name = {name: digest for name, _, digest in hits}
                for name, payload in traffic["first_hits"].items():
                    memo = results.find_done(by_name[name])
                    served = ScenarioResult.from_dict(payload["result"]).fingerprint()
                    if memo is None or served != memo.result().fingerprint():
                        out.fail(f"serve-mix: {name} served a result unlike its memo row")
            return traffic

        first = phase(seconds / 2 if trace else seconds, state["store"], state["server"],
                      state["port"])
        if state["server"].stop() != 0:
            out.fail("serve-mix: server exited non-zero")
        if not trace:
            _latency_metrics(out, first["hit"], f"per 200 response, {len(first['hit'])} hits")
            out.metrics["ops_per_s"] = first["requests"] / first["wall"]
            out.metrics["peak_rss_mb"] = state["server"].peak_rss_mb
            out.notes["drain_points_per_s"] = (
                f"{first['misses'] / first['drain']:.2f} points/s ({first['misses']} points)")
            out.notes["enqueue_p50_ms"] = (
                f"{median(first['enqueue']) * 1e3:.4f} ms over {len(first['enqueue'])} "
                "202 responses")
            out.notes["requests"] = f"{first['requests']} requests, {clients} client threads"
            return out

        store = work / "store-traced.sqlite"
        build_memo(store, "memo-traced")
        server_spans = work / "server-spans.jsonl"
        server, port = start_server(store, "traced", server_spans)
        tracer = install(Tracer())
        try:
            second = phase(seconds / 2, store, server, port)
        finally:
            tracer.uninstall()
        if server.stop() != 0:
            out.fail("serve-mix: traced server exited non-zero")
        # The server's main thread sits inside cli.main for its whole life;
        # each request thread roots its own spans, so that span is dropped.
        tracer.spans += [s for s in read_spans([server_spans]) if s["name"] != "cli.main"]
        layer = _trace_metrics(out, tracer.spans, median(first["hit"]), median(second["hit"]),
                               second["points"])
        layer["serve.http.overhead_ms"] = (
            median(second["hit"]) * 1e3 - layer["serve.plan.hit.p50_ms"])
        claims = layer["store.claim.calls"] * (1.0 - layer["store.claim.empty_ratio"])
        if round(claims) != second["misses"]:
            out.fail(f"serve-mix: {claims:.0f} successful claims, {second['misses']} misses")
        if not layer["serve.plan.hit.calls"]:
            out.fail("serve-mix: the traced server recorded no plan spans")
        _finish_trace(out, "serve-mix", seed, tracer, layer)
        return out
    finally:
        for server in servers:
            server.stop()
        remove_workdir(work)


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "cli-warm": run_cli_warm,
    "table1-cold": run_table1_cold,
    "sweep-warm": run_sweep_warm,
    "serve-mix": run_serve_mix,
}
