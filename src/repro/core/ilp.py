"""Exact placement by integer linear programming.

The paper argues that an exhaustive search is infeasible and therefore only
evaluates its greedy heuristic.  To quantify how far the heuristic is from
an optimum, this module formulates the placement as a 0/1 ILP solved with
SciPy's HiGHS backend:

* one binary variable per feasible anchor position (and orientation),
* the objective maximises the summed footprint suitability of the selected
  anchors (the same surrogate signal the greedy algorithm ranks by -- the
  true yearly energy is not linear in the selection because of the
  series/parallel aggregation, so it cannot be an ILP objective),
* exactly N anchors are selected,
* no two selected anchors may cover the same grid cell.

For small instances the ILP optimum provides an upper bound on what any
suitability-driven placer can achieve, which the ablation benchmark (E10)
compares against the greedy result and, where tractable, against the true
energy-optimal placement found by :mod:`repro.core.exhaustive`.

SciPy's :func:`~scipy.optimize.milp` has no MIP-start parameter, so a
warm-start hint is exploited as a *validated incumbent* instead: the hint's
anchors are mapped into the formulation (greedily completed to N modules
when the hint is smaller), an objective cutoff constraint forbids any
answer worse than the incumbent, and when the time budget expires before
HiGHS finds a solution the incumbent itself is returned -- best-so-far
anytime semantics with the optimality ``gap`` reported from the solver's
dual bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import InfeasiblePlacementError, PlacementError
from ..telemetry import span
from .constraints import feasible_anchor_mask, mark_occupied
from .greedy import _footprint_score_map
from .placement import ModulePlacement, Placement
from .problem import FloorplanProblem
from .suitability import SuitabilityConfig, SuitabilityMap, compute_suitability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner -> core)
    from ..runner.solvers import WarmStart


@dataclass(frozen=True)
class ILPConfig:
    """Options of the ILP placement."""

    footprint_aggregate: str = "mean"
    time_limit_s: float = 60.0
    max_anchors: int = 30000
    mip_gap: float = 1e-4

    def __post_init__(self) -> None:
        if self.time_limit_s <= 0:
            raise PlacementError("time_limit_s must be positive")
        if self.max_anchors < 1:
            raise PlacementError("max_anchors must be positive")
        if not 0.0 <= self.mip_gap < 1.0:
            raise PlacementError("mip_gap must be in [0, 1)")


@dataclass(frozen=True)
class ILPResult:
    """Outcome of the ILP placement.

    ``gap`` is the relative optimality gap (0.0 = proven optimal, ``None``
    = the solver reported none); ``warm_started`` records whether a
    validated warm-start incumbent entered the solve.
    """

    placement: Placement
    suitability: SuitabilityMap
    objective_value: float
    runtime_s: float
    solver_status: str
    gap: float | None = None
    warm_started: bool = False


def ilp_floorplan(
    problem: FloorplanProblem,
    suitability: SuitabilityMap | None = None,
    config: ILPConfig | None = None,
    warm_start: "WarmStart | None" = None,
) -> ILPResult:
    """Solve the suitability-maximising placement ILP for a problem instance.

    ``warm_start`` supplies a neighbouring placement used as a feasible
    incumbent (see the module docstring); a hint that fails validation is
    ignored, so it can never degrade the objective -- the cutoff constraint
    guarantees the returned answer scores at least as well as the incumbent.
    """
    # SciPy is imported here, not at module level, so that no process pays
    # for it until an ILP model is built; on the first call the import runs
    # before the clock and the build span start, so they time the model.
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    cfg = config if config is not None else ILPConfig()
    start = time.perf_counter()

    if suitability is None:
        suitability = compute_suitability(
            problem.solar,
            SuitabilityConfig(percentile=problem.suitability_percentile),
            problem.module_model,
        )

    footprint = problem.footprint
    orientations = [(footprint, False)]
    if problem.allow_rotation and footprint.cells_w != footprint.cells_h:
        orientations.append((footprint.rotated(), True))

    # Enumerate anchors and assemble the 0/1 program; the build/solve span
    # split is what lets a trace tell formulation cost from HiGHS cost.
    with span("ilp.build") as build_span:
        anchors: list[tuple[int, int, bool]] = []
        scores: list[float] = []
        empty_occupancy = np.zeros(problem.grid.shape, dtype=bool)
        for fp, rotated in orientations:
            feasible = feasible_anchor_mask(problem.grid.valid_mask, empty_occupancy, fp)
            score_map = _footprint_score_map(
                suitability, fp.cells_h, fp.cells_w, cfg.footprint_aggregate
            )
            rows, cols = np.nonzero(feasible & np.isfinite(score_map))
            for row, col in zip(rows.tolist(), cols.tolist()):
                anchors.append((row, col, rotated))
                scores.append(float(score_map[row, col]))

        n_anchors = len(anchors)
        if n_anchors < problem.n_modules:
            raise InfeasiblePlacementError(
                f"only {n_anchors} feasible anchors exist for {problem.n_modules} modules"
            )
        if n_anchors > cfg.max_anchors:
            raise InfeasiblePlacementError(
                f"the instance has {n_anchors} anchors, above the configured ILP limit "
                f"of {cfg.max_anchors}; use the greedy placer or coarsen the grid"
            )

        # Build the cell-coverage constraint matrix (cells x anchors).
        n_rows, n_cols = problem.grid.shape
        cell_index = lambda r, c: r * n_cols + c  # noqa: E731 - tiny local helper
        row_indices: list[int] = []
        col_indices: list[int] = []
        for anchor_id, (row, col, rotated) in enumerate(anchors):
            fp = footprint.rotated() if rotated else footprint
            for dr in range(fp.cells_h):
                for dc in range(fp.cells_w):
                    row_indices.append(cell_index(row + dr, col + dc))
                    col_indices.append(anchor_id)
        coverage = sparse.csr_matrix(
            (np.ones(len(row_indices)), (row_indices, col_indices)),
            shape=(n_rows * n_cols, n_anchors),
        )
        # Keep only cells that can actually be covered (smaller constraint set).
        covered_cells = np.asarray(coverage.sum(axis=1)).ravel() > 0
        coverage = coverage[covered_cells]

        objective = -np.asarray(scores)
        constraints = [
            LinearConstraint(np.ones((1, n_anchors)), problem.n_modules, problem.n_modules),
            LinearConstraint(coverage, -np.inf, 1.0),
        ]

        incumbent = (
            _warm_incumbent(problem, warm_start, anchors, scores, orientations)
            if warm_start is not None
            else None
        )
        warm_started = incumbent is not None
        if incumbent is not None:
            incumbent_ids, incumbent_objective = incumbent
            # Objective cutoff: no feasible answer may score below the
            # incumbent (the epsilon absorbs float accumulation noise), so
            # the warm solve can only match or improve on the hint.
            cutoff_eps = 1e-9 * max(1.0, abs(incumbent_objective))
            constraints.append(
                LinearConstraint(
                    np.asarray(scores).reshape(1, -1),
                    incumbent_objective - cutoff_eps,
                    np.inf,
                )
            )
        build_span.set(
            n_anchors=n_anchors,
            n_covered_cells=int(covered_cells.sum()),
            warm_started=warm_started,
        )

    with span("ilp.solve", n_anchors=n_anchors) as solve_span:
        result = milp(
            c=objective,
            constraints=constraints,
            integrality=np.ones(n_anchors),
            bounds=Bounds(0, 1),
            options={"time_limit": cfg.time_limit_s, "mip_rel_gap": cfg.mip_gap},
        )
        solve_span.set(status=str(result.message), success=bool(result.success))

    gap: float | None = None
    raw_gap = getattr(result, "mip_gap", None)
    if raw_gap is not None and np.isfinite(raw_gap):
        gap = float(raw_gap)

    if result.x is not None:
        chosen = np.nonzero(np.round(result.x) > 0.5)[0]
    else:
        chosen = None
    if chosen is not None and chosen.size == problem.n_modules:
        milp_objective = float(-result.fun)
        if incumbent is not None and incumbent_objective > milp_objective + 1e-9:
            # Should be ruled out by the cutoff; kept as a belt-and-braces
            # guarantee that a warm solve never returns less than its hint.
            chosen_ids = list(incumbent_ids)
            objective_value = incumbent_objective
            status = f"warm incumbent kept ({result.message})"
        else:
            chosen_ids = chosen.tolist()
            objective_value = milp_objective
            status = str(result.message)
    elif incumbent is not None:
        # Anytime answer: the budget expired (or HiGHS stumbled) before a
        # solution emerged -- return the validated incumbent as best-so-far,
        # with the gap taken against the solver's dual bound when one exists.
        chosen_ids = list(incumbent_ids)
        objective_value = incumbent_objective
        status = f"warm incumbent returned ({result.message})"
        dual = getattr(result, "mip_dual_bound", None)
        if dual is not None and np.isfinite(dual):
            bound = float(-dual)
            gap = abs(bound - incumbent_objective) / max(abs(incumbent_objective), 1e-12)
    elif chosen is not None:
        raise InfeasiblePlacementError(
            f"the ILP returned {chosen.size} anchors instead of {problem.n_modules}"
        )
    else:
        raise InfeasiblePlacementError(
            f"the ILP solver failed to find a feasible placement: {result.message}"
        )

    # Assign module indices to anchors in decreasing-score order so that the
    # series-first string structure matches the greedy convention.
    chosen_sorted = sorted(chosen_ids, key=lambda a: -scores[a])
    modules = [
        ModulePlacement(
            module_index=i,
            row=anchors[a][0],
            col=anchors[a][1],
            rotated=anchors[a][2],
        )
        for i, a in enumerate(chosen_sorted)
    ]
    runtime = time.perf_counter() - start
    metadata = {
        "algorithm": "ilp",
        "runtime_s": runtime,
        "objective": objective_value,
        "status": status,
    }
    if gap is not None:
        metadata["gap"] = gap
    placement = Placement(
        modules=tuple(modules),
        footprint=footprint,
        topology=problem.topology,
        grid_pitch=problem.grid.pitch,
        label="ilp",
        metadata=metadata,
    )
    return ILPResult(
        placement=placement,
        suitability=suitability,
        objective_value=objective_value,
        runtime_s=runtime,
        solver_status=status,
        gap=gap,
        warm_started=warm_started,
    )


def _warm_incumbent(
    problem: FloorplanProblem,
    warm_start: "WarmStart",
    anchors: list,
    scores: list,
    orientations,
):
    """Map a warm-start hint into a feasible incumbent selection.

    Returns ``(anchor_ids, objective)`` or ``None`` when the hint cannot be
    trusted (foreign footprint/pitch, anchors outside the formulation,
    self-overlap, or no feasible completion to N modules).  A smaller hint
    is completed greedily by score; a larger one keeps its N best anchors.
    """
    hint = getattr(warm_start, "placement", None)
    if hint is None or not hint.modules:
        return None
    footprint = problem.footprint
    if (hint.footprint.cells_w, hint.footprint.cells_h) != (
        footprint.cells_w,
        footprint.cells_h,
    ):
        return None
    if abs(hint.grid_pitch - problem.grid.pitch) > 1e-9:
        return None

    anchor_ids = {anchor: aid for aid, anchor in enumerate(anchors)}
    footprint_by_rotation = {rotated: fp for fp, rotated in orientations}
    hinted: list[int] = []
    for module in hint.modules:
        aid = anchor_ids.get((module.row, module.col, module.rotated))
        if aid is None:
            return None
        hinted.append(aid)

    occupied = np.zeros(problem.grid.shape, dtype=bool)
    selected: list[int] = []
    # Best-scoring hinted anchors first, so an oversized hint keeps its
    # strongest N and an exact-size hint is taken verbatim.
    for aid in sorted(set(hinted), key=lambda a: -scores[a]):
        if len(selected) == problem.n_modules:
            break
        row, col, rotated = anchors[aid]
        fp = footprint_by_rotation[rotated]
        if occupied[row : row + fp.cells_h, col : col + fp.cells_w].any():
            return None  # the hint overlaps itself: corrupt, distrust it
        mark_occupied(occupied, row, col, fp)
        selected.append(aid)

    if len(selected) < problem.n_modules:
        chosen = set(selected)
        for aid in sorted(range(len(anchors)), key=lambda a: -scores[a]):
            if len(selected) == problem.n_modules:
                break
            if aid in chosen:
                continue
            row, col, rotated = anchors[aid]
            fp = footprint_by_rotation[rotated]
            if occupied[row : row + fp.cells_h, col : col + fp.cells_w].any():
                continue
            mark_occupied(occupied, row, col, fp)
            selected.append(aid)
            chosen.add(aid)
        if len(selected) < problem.n_modules:
            return None

    return selected, float(sum(scores[a] for a in selected))
