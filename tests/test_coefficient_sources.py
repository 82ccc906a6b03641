"""Coefficient values reach the package only through the Discretization.

The solver, the diagnostics, the equilibrium and the oracle share one
:class:`~fpflow.params.Discretization` per (grid, parameter set): it takes
the cell values of phi, D and pi from their fields, checks them, and
decides from them whether the flux is linear and the mobility unit.  A
field's ``.on_grid(...)`` called anywhere else evaluates a coefficient a
second way, past those checks and decisions, so outside ``params.py`` the
package makes no such call.  The analytic derivatives the d^2F/dt^2
identity reads (``gradient_on_grid``, ``hessian_on_grid``,
``time_derivative_on_grid``) are other methods and stay allowed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fpflow"
HOME = PACKAGE / "params.py"


def on_grid_calls(paths, root: Path = ROOT) -> list[str]:
    """``path:line`` of every ``<expr>.on_grid(...)`` call in ``paths``."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(root)}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "on_grid"
        ]
    return found


def test_coefficient_values_are_evaluated_only_by_the_discretization():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert HOME in paths and on_grid_calls([HOME])
    assert on_grid_calls([path for path in paths if path != HOME]) == []


def test_on_grid_scan_flags_each_direct_evaluation(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(params, grid, disc):\n"
        "    a = params.diffusion.on_grid(grid)\n"
        "    b = params.diffusion.gradient_on_grid(grid)\n"
        "    c = params.mobility.time_derivative_on_grid(grid, 0.0)\n"
        "    return a, b, c, disc.pi(0.0), disc.on_grid\n"
        "g = lambda m, grid: [m.on_grid(grid, t) for t in (0.0, 0.37)]\n"
    )
    assert on_grid_calls([module], tmp_path) == ["m.py:2", "m.py:6"]
