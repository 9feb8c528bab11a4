"""E4 / E5 -- Figure 6: suitable areas and 75th-percentile irradiance maps.

Checks the roof characteristics columns of Table I (grid dimensions W x L
and the number of valid elements Ng) and regenerates the per-roof
75th-percentile irradiance distribution the floorplanner ranks cells by.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import PAPER_TABLE1, figure6_irradiance_map
from repro.gis import make_roof_grid, suitable_grid_for_scene


def test_bench_roof_characteristics(benchmark, case_studies, case_config):
    """Figure 6(a) / Table I columns: grid size and valid elements per roof."""

    def extract_grids():
        # The timed stage behind these columns: the virtual grid over each
        # roof scene, minus the cells its encumbrances make unsuitable.
        return {
            name: suitable_grid_for_scene(
                study.scene, make_roof_grid(study.scene, pitch=case_config.grid_pitch)
            )
            for name, study in case_studies.items()
        }

    grids = benchmark.pedantic(extract_grids, rounds=3, iterations=1)
    for name, study in case_studies.items():
        assert np.array_equal(grids[name].valid_mask, study.grid.valid_mask)

    paper_ng = {row["roof"]: row["Ng"] for row in PAPER_TABLE1}
    paper_wxl = {row["roof"]: row["WxL"] for row in PAPER_TABLE1}
    print("\n[Fig 6a] roof characteristics (paper vs reproduction):")
    for name, study in case_studies.items():
        measured_wxl = f"{study.grid.n_cols}x{study.grid.n_rows}"
        print(
            f"    {name}: WxL {measured_wxl} (paper {paper_wxl[name]}), "
            f"Ng {study.grid.n_valid} (paper {paper_ng[name]})"
        )
        assert measured_wxl == paper_wxl[name]
        # The synthetic encumbrances remove a comparable share of the roof.
        assert 0.6 * paper_ng[name] < study.grid.n_valid < 1.25 * paper_ng[name]
    # Roof 1 (pipe racks) keeps the smallest usable fraction, as in the paper.
    fractions = {
        name: study.grid.n_valid / study.grid.n_cells for name, study in case_studies.items()
    }
    assert fractions["roof1"] == min(fractions.values())


def test_bench_figure6_percentile_maps(benchmark, case_studies):
    """Figure 6(b): 75th-percentile irradiance distribution of each roof."""

    def build_maps():
        return {name: figure6_irradiance_map(study) for name, study in case_studies.items()}

    maps = benchmark.pedantic(build_maps, rounds=1, iterations=1)

    print("\n[Fig 6b] 75th-percentile irradiance maps:")
    for name, figure in maps.items():
        finite = figure.percentile_map[np.isfinite(figure.percentile_map)]
        print(
            f"    {name}: p75 range {finite.min():6.1f}..{finite.max():6.1f} W/m^2, "
            f"spatial CV {figure.variation_coefficient:.3f}"
        )
        print("\n".join("      " + line for line in figure.ascii_rendering.splitlines()[:8]))
        # The distribution must be spatially non-uniform (the paper's premise).
        assert figure.variation_coefficient > 0.03
        assert finite.max() > finite.min()
    # Roof 1 is the least irradiated on average (visible in the paper's maps).
    means = {
        name: float(np.nanmean(figure.percentile_map)) for name, figure in maps.items()
    }
    assert means["roof1"] <= max(means.values())
