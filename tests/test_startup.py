"""Start-up guard: SciPy stays off the import path.

The ILP reference solver is the package's only SciPy user, and importing
``scipy.optimize``/``scipy.sparse`` costs about as much as everything else
a CLI call does.  The rule is therefore that no module under ``src/repro``
imports SciPy at module level: ``ilp_floorplan`` imports it when it builds
a model.  The static check pins the rule file by file; the subprocess
checks pin its effect, each in a fresh interpreter so that no earlier test
can have loaded SciPy already.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _module_level_imports(tree: ast.Module):
    """Yield the import statements that run when the module is imported.

    Function bodies run only when called; everything else (``if``/``try``
    blocks, class bodies) runs at import time and is searched.
    """
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pending.extend(
                child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)
            )


def _imports_scipy(node: ast.stmt) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        names = [node.module or ""] if node.level == 0 else []
    return any(name == "scipy" or name.startswith("scipy.") for name in names)


def _run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter and return the JSON it prints last."""
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_no_module_imports_scipy_at_module_level():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in _module_level_imports(tree):
            if _imports_scipy(node):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == [], f"module-level scipy imports: {offenders}"


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.cli",
        "repro.serve",
        "repro.sweep",
        "repro.experiments",
        "repro.runner.worker",
    ],
)
def test_import_leaves_scipy_unloaded(module):
    result = _run_fresh(
        f"""
        import importlib, json, sys
        importlib.import_module({module!r})
        print(json.dumps({{"scipy": "scipy" in sys.modules}}))
        """
    )
    assert result == {"scipy": False}


def test_cli_run_leaves_scipy_unloaded(tmp_path):
    cache = str(tmp_path / "cache")
    result = _run_fresh(
        f"""
        import contextlib, io, json, sys
        from repro.cli import main
        args = ["run", "residential-south", "--cache-dir", {cache!r}]
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(args))  # cold: fills the cache
            codes.append(main(args))  # warm: reads it back
        print(json.dumps({{"codes": codes, "scipy": "scipy" in sys.modules}}))
        """
    )
    assert result == {"codes": [0, 0], "scipy": False}


def test_ilp_solve_imports_scipy_on_demand():
    result = _run_fresh(
        """
        import json, sys
        from repro.gis import RoofSpec
        from repro.runner.solvers import solve
        from repro.runner.stages import prepare_problem
        from repro.solar import TimeGrid

        problem, _, _ = prepare_problem(
            RoofSpec(
                name="guard-roof", width_m=4.0, depth_m=3.0, tilt_deg=30.0, azimuth_deg=0.0
            ),
            n_modules=2,
            n_series=2,
            grid_pitch=0.4,
            time_grid=TimeGrid(step_minutes=240.0, day_stride=45),
        )
        before = "scipy" in sys.modules
        outcome = solve(problem, "ilp", {"time_limit_s": 20.0})
        outcome.placement.validate(problem.grid)
        print(json.dumps({
            "before": before,
            "after": "scipy" in sys.modules,
            "n_modules": len(outcome.placement.modules),
        }))
        """
    )
    assert result == {"before": False, "after": True, "n_modules": 2}
