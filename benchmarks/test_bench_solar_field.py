"""Speedup / size benchmarks of the daylight-compressed solar field (PR 3).

Measured against the kept dense reference
(:func:`repro.solar.compute_roof_solar_field_dense_reference`) on the
paper's 15-minute annual time base (~35k steps):

* **assembly wall-clock** -- the chunked, per-sector-grouped compressed
  assembly must be at least 2x faster than the dense flow, which
  materialises the full float64 ``(n_time, Ng)`` shadow matrix and the
  dense broadcast products;
* **cache entry size** -- the solar stage entry (pickle + ``.npy``
  irradiance sidecar) must be at least 1.8x smaller than a pickle of the
  dense field;
* **exactness** -- the compressed field expands to the dense irradiance
  bit for bit, so the speed is not bought with accuracy.

The test prints the measured figures so the scheduled CI bench job archives
them in the uploaded timings artifact alongside the other benches.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

from repro.gis import (
    RoofSpec,
    build_roof_scene,
    chimney,
    make_roof_grid,
    suitable_grid_for_scene,
    vent,
)
from repro.runner.cache import StageCache
from repro.runner.stages import STAGE_SOLAR
from repro.solar import (
    SolarSimulationConfig,
    compute_horizon_map,
    compute_roof_solar_field,
    compute_roof_solar_field_dense_reference,
    paper_time_grid,
)
from repro.weather import SyntheticWeatherConfig, generate_weather


def _bench_roof_spec() -> RoofSpec:
    """A 12 m x 6 m roof: Ng ~ 1.5k at the paper's 20 cm pitch, so the
    dense reference's full-matrix transients stay well under a gigabyte
    while the 35k-step time axis matches the paper exactly."""
    return RoofSpec(
        name="bench-roof",
        width_m=12.0,
        depth_m=6.0,
        tilt_deg=26.0,
        azimuth_deg=10.0,
        eave_height_m=5.0,
        edge_setback_m=0.2,
        obstacles=(
            chimney(3.0, 4.5, side_m=0.8, height_m=1.6),
            vent(7.0, 2.0, side_m=0.4, height_m=0.8),
            vent(9.5, 4.0, side_m=0.4, height_m=0.9),
        ),
        surface_roughness_m=0.08,
        roughness_correlation_m=1.0,
        roughness_seed=5,
    )


def _best_of(fn, repeats: int):
    """Smallest wall time of ``repeats`` runs and the last result."""
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bench_solar_field_compression(benchmark, tmp_path):
    """Compressed assembly >= 2x, cache entry >= 1.8x smaller, bit-exact."""
    scene = build_roof_scene(_bench_roof_spec(), dsm_pitch=0.4)
    grid = suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=0.2))
    time_grid = paper_time_grid()  # the paper's 15-minute annual resolution
    weather = generate_weather(time_grid, SyntheticWeatherConfig(seed=7))
    config = SolarSimulationConfig(n_horizon_sectors=16, horizon_max_distance_m=25.0)
    # The horizon map dominates a cold solar stage and is cached/shared in
    # every real flow; precompute it so the benchmark isolates the assembly.
    horizon = compute_horizon_map(
        scene.dsm.raster,
        n_sectors=config.n_horizon_sectors,
        max_distance=config.horizon_max_distance_m,
    )

    compressed = benchmark.pedantic(
        lambda: compute_roof_solar_field(scene, grid, weather, config, horizon_map=horizon),
        rounds=3,
        iterations=1,
    )
    compressed_s = float(benchmark.stats.stats.min)
    dense_s, dense = _best_of(
        lambda: compute_roof_solar_field_dense_reference(
            scene, grid, weather, config, horizon_map=horizon
        ),
        2,
    )

    assert np.array_equal(compressed.to_dense(), dense.irradiance)
    assert compressed.n_daylight < 0.62 * compressed.n_time

    cache = StageCache(root=tmp_path / "cache")
    cache.put(STAGE_SOLAR, {"bench": "compressed"}, compressed)
    entry_bytes = sum(
        path.stat().st_size
        for path in (tmp_path / "cache" / STAGE_SOLAR).glob("*")
    )
    dense_bytes = len(pickle.dumps(dense, protocol=pickle.HIGHEST_PROTOCOL))

    speedup = dense_s / compressed_s
    shrink = dense_bytes / entry_bytes
    print(
        f"\n[solar field] Ng={compressed.n_cells}, n_time={compressed.n_time}, "
        f"n_daylight={compressed.n_daylight} "
        f"({compressed.n_time / compressed.n_daylight:.2f}x row compression): "
        f"dense {dense_s * 1e3:.0f} ms, compressed {compressed_s * 1e3:.0f} ms "
        f"-> {speedup:.1f}x; cache entry {entry_bytes / 1e6:.1f} MB vs dense "
        f"pickle {dense_bytes / 1e6:.1f} MB -> {shrink:.2f}x smaller"
    )
    assert speedup >= 2.0
    assert shrink >= 1.8
