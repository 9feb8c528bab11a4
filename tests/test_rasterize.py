"""Equivalence of the array point-in-polygon kernel with the scalar oracle.

``Polygon.rasterize`` and ``Polygon.contains_point`` evaluate one array
predicate edge by edge.  The stage cache is keyed on inputs, not on code,
so cached scenes and grids stay valid only while the masks are
bit-identical to those of the per-cell loop kept in ``tests/oracles``.
Every comparison here is exact.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.experiments.roofs import case_study_specs
from repro.geometry import Point2D, Polygon
from repro.gis import build_roof_scene, make_roof_grid, suitable_grid_for_scene
from repro.scenario import builtin_scenarios
from tests.oracles.rasterize import contains_point_reference, rasterize_reference

MODES = ("center", "touch")

#: Where a vertex sits relative to its cell: the centre, the lower-left
#: corner, the middle of the bottom edge, the middle of the left edge.
SNAPS = {
    "centre": (0.5, 0.5),
    "corner": (0.0, 0.0),
    "edge-x": (0.5, 0.0),
    "edge-y": (0.0, 0.5),
}


def _assert_same_raster(polygon, origin, pitch, n_cols, n_rows, mode):
    kernel = polygon.rasterize(origin, pitch, n_cols, n_rows, mode=mode)
    oracle = rasterize_reference(polygon, origin, pitch, n_cols, n_rows, mode=mode)
    assert kernel.dtype == oracle.dtype == bool
    assert np.array_equal(kernel, oracle)
    return kernel


@st.composite
def snapped_rasters(draw):
    """A raster and a polygon whose vertices sit on its cell lattice."""
    pitch = draw(st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 1.0]))
    origin = Point2D(
        draw(st.sampled_from([0.0, -3.7, 1.1, 12.35])),
        draw(st.sampled_from([0.0, -2.3, 0.7, 40.05])),
    )
    n_cols = draw(st.integers(1, 20))
    n_rows = draw(st.integers(1, 20))
    n_vertices = draw(st.integers(3, 7))
    vertices = []
    for _ in range(n_vertices):
        col = draw(st.integers(-3, n_cols + 3))
        row = draw(st.integers(-3, n_rows + 3))
        fx, fy = SNAPS[draw(st.sampled_from(sorted(SNAPS)))]
        vertices.append(
            (origin.x + col * pitch + fx * pitch, origin.y + row * pitch + fy * pitch)
        )
    return origin, pitch, n_cols, n_rows, vertices


class TestRasterizeMatchesOracle:
    @settings(max_examples=250, deadline=None)
    @given(raster=snapped_rasters(), mode=st.sampled_from(MODES))
    def test_snapped_vertices(self, raster, mode):
        origin, pitch, n_cols, n_rows, vertices = raster
        try:
            polygon = Polygon(vertices)
        except GeometryError:
            assume(False)
        _assert_same_raster(polygon, origin, pitch, n_cols, n_rows, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("angle_deg", [0.0, 15.0, 30.0, 45.0, 90.0, 137.5, 271.0])
    def test_rotated_polygons(self, mode, angle_deg):
        origin = Point2D(-1.0, -1.0)
        angle = math.radians(angle_deg)
        shapes = [
            Polygon.rectangle(0.2, 0.4, 3.8, 2.6),
            Polygon.regular(Point2D(2.0, 2.0), 1.7, 7),
            _l_shape(),
        ]
        for shape in shapes:
            polygon = shape.rotated(angle)
            mask = _assert_same_raster(polygon, origin, 0.2, 30, 30, mode)
            assert mask.any()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("pitch", [0.1, 0.25, 0.4])
    def test_concave_polygons(self, mode, pitch):
        origin = Point2D(0.0, 0.0)
        for polygon in (_l_shape(), _star(), _comb()):
            assert _assert_same_raster(polygon, origin, pitch, 50, 50, mode).any()

    @pytest.mark.parametrize("mode", MODES)
    def test_partly_outside_raster(self, mode):
        origin = Point2D(0.0, 0.0)
        for polygon in (
            Polygon.rectangle(-2.0, -2.0, 1.3, 1.1),
            Polygon.rectangle(3.1, 2.2, 9.0, 9.0),
            Polygon.regular(Point2D(0.0, 2.0), 1.5, 9),
            _star().translated(-2.5, 1.0),
        ):
            mask = _assert_same_raster(polygon, origin, 0.2, 20, 20, mode)
            assert mask.any() and not mask.all()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "offset", [(-50.0, 0.0), (50.0, 0.0), (0.0, -50.0), (0.0, 50.0), (-9.0, -9.0)]
    )
    def test_wholly_outside_raster(self, mode, offset):
        polygon = Polygon.rectangle(0.5, 0.5, 2.5, 1.5).translated(*offset)
        mask = _assert_same_raster(polygon, Point2D(0.0, 0.0), 0.2, 20, 20, mode)
        assert mask.shape == (20, 20)
        assert not mask.any()

    def test_non_positive_pitch_raises(self):
        with pytest.raises(GeometryError):
            Polygon.rectangle(0, 0, 1, 1).rasterize(Point2D(0, 0), 0.0, 2, 2)


class TestContainsPointMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        vertices=st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=7
        ),
        scale=st.sampled_from([0.1, 0.2, 0.25, 1.0, 3.7]),
        point=st.tuples(
            st.integers(-14, 14).map(lambda k: k / 2.0),
            st.integers(-14, 14).map(lambda k: k / 2.0),
        ),
        include_boundary=st.booleans(),
    )
    def test_lattice_points(self, vertices, scale, point, include_boundary):
        # Vertices and query points on a half-step lattice put many queries
        # exactly on edges and vertices, where the boundary test decides.
        try:
            polygon = Polygon([(x * scale, y * scale) for x, y in vertices])
        except GeometryError:
            assume(False)
        query = Point2D(point[0] * scale, point[1] * scale)
        assert polygon.contains_point(query, include_boundary) is contains_point_reference(
            polygon, query, include_boundary
        )

    @pytest.mark.parametrize("include_boundary", [True, False])
    def test_vertices_edges_and_interior(self, include_boundary):
        for polygon in (_l_shape(), _star(), Polygon.regular(Point2D(1, 1), 2.0, 5)):
            ring = polygon.vertices
            queries = list(ring) + [
                Point2D((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
                for a, b in zip(ring, ring[1:] + ring[:1])
            ]
            queries += [polygon.centroid(), Point2D(100.0, 100.0), Point2D(-0.01, 0.5)]
            for query in queries:
                assert polygon.contains_point(
                    query, include_boundary
                ) is contains_point_reference(polygon, query, include_boundary)


#: The three Table I roofs at the bench resolution, then every catalog scene.
PIPELINE_CASES = [
    pytest.param(spec, 0.4, 0.2, id=name) for name, spec in case_study_specs(1.0).items()
] + [
    pytest.param(scenario.roof, scenario.dsm_pitch, scenario.grid_pitch, id=name)
    for name, scenario in builtin_scenarios().items()
]


def _scene_and_grid(spec, dsm_pitch, grid_pitch):
    scene = build_roof_scene(spec, dsm_pitch=dsm_pitch)
    grid = suitable_grid_for_scene(scene, make_roof_grid(scene, pitch=grid_pitch))
    return scene.dsm.data.copy(), grid.valid_mask.copy()


@pytest.mark.parametrize("spec,dsm_pitch,grid_pitch", PIPELINE_CASES)
def test_pipeline_identity_with_oracle(monkeypatch, spec, dsm_pitch, grid_pitch):
    """Scene elevations and valid masks equal those of the scalar loop."""
    elevations, valid = _scene_and_grid(spec, dsm_pitch, grid_pitch)
    monkeypatch.setattr(Polygon, "rasterize", rasterize_reference)
    oracle_elevations, oracle_valid = _scene_and_grid(spec, dsm_pitch, grid_pitch)
    assert np.array_equal(elevations, oracle_elevations)
    assert np.array_equal(valid, oracle_valid)
    assert valid.any()


def _l_shape() -> Polygon:
    return Polygon([(0.3, 0.3), (4.1, 0.3), (4.1, 1.5), (1.5, 1.5), (1.5, 3.9), (0.3, 3.9)])


def _star() -> Polygon:
    centre = Point2D(2.5, 2.5)
    vertices = []
    for k in range(10):
        radius = 2.2 if k % 2 == 0 else 0.9
        angle = math.pi * k / 5
        vertices.append(
            (centre.x + radius * math.cos(angle), centre.y + radius * math.sin(angle))
        )
    return Polygon(vertices)


def _comb() -> Polygon:
    # Three teeth pointing north: the ray from a gap crosses several edges.
    return Polygon(
        [
            (0.0, 0.0), (4.8, 0.0), (4.8, 4.0), (4.0, 4.0), (4.0, 1.0),
            (3.2, 1.0), (3.2, 4.0), (2.4, 4.0), (2.4, 1.0), (1.6, 1.0),
            (1.6, 4.0), (0.0, 4.0),
        ]
    )
