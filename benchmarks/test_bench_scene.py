"""Scene and grid extraction: the array rasteriser against the scalar loop.

The data-extraction step rasterises each roof outline, its encumbrances
and the neighbouring structures into the DSM (``build_roof_scene``), then
aligns the suitable area to the virtual grid (``suitable_grid_for_scene``).
Both stages rasterise polygons through ``Polygon.rasterize``, whose array
kernel must be at least 3x faster over the two stages than the per-cell
loop kept in ``tests/oracles``, with bit-identical elevations and masks.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.geometry import Polygon
from repro.gis import build_roof_scene, make_roof_grid, suitable_grid_for_scene
from tests.oracles.rasterize import rasterize_reference


def test_bench_scene_rasterization(benchmark, case_studies, case_config):
    """Scene plus grid extraction for the three Table I roofs: >= 3x."""
    specs = {name: study.scene.spec for name, study in case_studies.items()}

    def extract():
        extracted = {}
        for name, spec in specs.items():
            scene = build_roof_scene(spec, dsm_pitch=case_config.dsm_pitch)
            grid = make_roof_grid(scene, pitch=case_config.grid_pitch)
            extracted[name] = (scene, suitable_grid_for_scene(scene, grid))
        return extracted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Polygon, "rasterize", rasterize_reference)
        start = time.perf_counter()
        reference = extract()
        reference_s = time.perf_counter() - start

    fast = benchmark.pedantic(extract, rounds=3, iterations=1)
    fast_s = float(benchmark.stats.stats.min)
    for name, study in case_studies.items():
        scene, grid = fast[name]
        assert np.array_equal(scene.dsm.data, reference[name][0].dsm.data)
        assert np.array_equal(scene.dsm.data, study.scene.dsm.data)
        assert np.array_equal(grid.valid_mask, reference[name][1].valid_mask)
        assert np.array_equal(grid.valid_mask, study.grid.valid_mask)

    speedup = reference_s / fast_s
    print(
        f"\n[scene rasterisation] {len(specs)} roofs: scalar loop "
        f"{reference_s * 1e3:.1f} ms, array kernel {fast_s * 1e3:.1f} ms "
        f"-> {speedup:.1f}x (floor 3x)"
    )
    assert speedup >= 3.0
