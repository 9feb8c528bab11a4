"""Warm-start bench: anytime ladders must actually be faster.

The warm-start PR's headline claim is that solving an ``n_modules``
ladder warm -- each rung resuming from the previous rung's placement --
is materially cheaper than solving every rung cold, while producing
*identical* results.  This bench pins both halves of the claim:

* greedy: median warm-vs-cold speedup of at least 1.5x across the ladder,
  with every warm placement module-for-module equal to its cold twin;
* ILP: a warm incumbent never degrades the objective, and warm and cold
  objectives agree within the reported optimality gap.

The roof is synthetic (no dependency on the paper case studies) so the
bench isolates the placer: the solar field and suitability map are
prepared once and shared by every solve.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.core import (
    FloorplanProblem,
    ILPConfig,
    compute_suitability,
    default_topology,
    greedy_floorplan,
    ilp_floorplan,
)
from repro.gis import (
    RoofSpec,
    build_roof_scene,
    chimney,
    make_roof_grid,
    suitable_grid_for_scene,
)
from repro.pv.array import SeriesParallelTopology
from repro.pv.datasheet import PV_MF165EB3
from repro.runner import WarmStart
from repro.solar import SolarSimulationConfig, TimeGrid, compute_roof_solar_field
from repro.weather import SyntheticWeatherConfig, generate_weather

LADDER = (8, 16, 24, 32)
REPEATS = 5


@pytest.fixture(scope="module")
def warm_bench_instance():
    """A mid-size synthetic roof with its solar field and suitability."""
    roof = RoofSpec(
        name="warm-bench-roof",
        width_m=24.0,
        depth_m=10.0,
        tilt_deg=28.0,
        azimuth_deg=0.0,
        eave_height_m=5.0,
        edge_setback_m=0.2,
        obstacles=(chimney(6.0, 7.0, side_m=0.9, height_m=1.5),),
    )
    scene = build_roof_scene(roof, dsm_pitch=0.4)
    grid = suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=0.1))
    weather = generate_weather(
        TimeGrid(step_minutes=240.0, day_stride=45), SyntheticWeatherConfig(seed=3)
    )
    solar = compute_roof_solar_field(
        scene,
        grid,
        weather,
        SolarSimulationConfig(n_horizon_sectors=16, horizon_max_distance_m=25.0),
    )
    return grid, solar, compute_suitability(solar)


def _problem(grid, solar, n_modules: int) -> FloorplanProblem:
    return FloorplanProblem(
        grid=grid,
        solar=solar,
        n_modules=n_modules,
        topology=default_topology(n_modules, n_series=4),
        datasheet=PV_MF165EB3,
        label=f"warm-bench-n{n_modules}",
    )


def _best_of(fn, repeats: int = REPEATS):
    """(min wall-clock, last result) of ``repeats`` calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bench_greedy_warm_ladder_speedup(benchmark, warm_bench_instance):
    """Median warm speedup >= 1.5x on the n_modules ladder, results equal."""
    grid, solar, suitability = warm_bench_instance
    cold = {}
    for n in LADDER:
        problem = _problem(grid, solar, n)
        cold[n] = _best_of(lambda p=problem: greedy_floorplan(p, suitability=suitability))
    rungs = [
        (
            n,
            _problem(grid, solar, n),
            WarmStart(placement=cold[prev][1].placement, exact_prefix=True),
        )
        for prev, n in zip(LADDER, LADDER[1:])
    ]
    warm_times = {n: [] for n in LADDER[1:]}

    def warm_ladder():
        # One benchmark round climbs the whole warm ladder; each rung keeps
        # its own clock, so its best round is its warm time.
        results = {}
        for n, problem, hint in rungs:
            start = time.perf_counter()
            results[n] = greedy_floorplan(problem, suitability=suitability, warm_start=hint)
            warm_times[n].append(time.perf_counter() - start)
        return results

    warm_results = benchmark.pedantic(warm_ladder, rounds=REPEATS, iterations=1)
    speedups = []
    print("\n[warm-start] greedy n_modules ladder (best of", REPEATS, "runs):")
    for prev, n in zip(LADDER, LADDER[1:]):
        warm_s, warm = min(warm_times[n]), warm_results[n]
        cold_s, cold_result = cold[n]
        # Identity first: a fast wrong answer is no speedup at all.
        assert warm.warm_modules == prev
        assert warm.placement.modules == cold_result.placement.modules
        assert warm.relaxed_threshold_count == cold_result.relaxed_threshold_count
        speedups.append(cold_s / warm_s)
        print(
            f"    n={prev:2d}->{n:2d}: cold {cold_s * 1e3:7.2f} ms, "
            f"warm {warm_s * 1e3:7.2f} ms, speedup {cold_s / warm_s:5.2f}x"
        )
    median = statistics.median(speedups)
    print(f"    median speedup: {median:.2f}x (floor: 1.50x)")
    assert median >= 1.5


def test_bench_ilp_warm_objective_within_gap(benchmark, warm_bench_instance):
    """ILP warm vs cold agree within the reported optimality gap."""
    grid, solar, suitability = warm_bench_instance
    # Restrict to a small window so the ILP instance stays bench-friendly.
    mask = np.zeros_like(grid.valid_mask)
    mask[2:22, 2:60] = grid.valid_mask[2:22, 2:60]
    small_grid = grid.with_mask(mask)
    problem = FloorplanProblem(
        grid=small_grid,
        solar=solar.restricted_to(small_grid),
        n_modules=2,
        topology=SeriesParallelTopology(2, 1),
        datasheet=PV_MF165EB3,
        label="warm-bench-ilp",
    )
    small_suitability = compute_suitability(problem.solar)
    config = ILPConfig(time_limit_s=30.0)
    cold_s, cold = _best_of(
        lambda: ilp_floorplan(problem, suitability=small_suitability, config=config),
        repeats=3,
    )
    hint = WarmStart(
        placement=greedy_floorplan(problem, suitability=small_suitability).placement
    )
    warm = benchmark.pedantic(
        lambda: ilp_floorplan(
            problem, suitability=small_suitability, config=config, warm_start=hint
        ),
        rounds=3,
        iterations=1,
    )
    warm_s = float(benchmark.stats.stats.min)
    assert warm.warm_started
    assert warm.gap is not None and cold.gap is not None
    tolerance = max(warm.gap, cold.gap) * max(
        abs(cold.objective_value), 1.0
    ) + 1e-6
    assert warm.objective_value >= cold.objective_value - tolerance
    print(
        f"\n[warm-start] ILP 2-module window: cold {cold_s * 1e3:.1f} ms "
        f"(obj {cold.objective_value:.3f}, gap {cold.gap}), warm "
        f"{warm_s * 1e3:.1f} ms (obj {warm.objective_value:.3f}, gap {warm.gap})"
    )
