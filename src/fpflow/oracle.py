"""Independent cross-checks: probed sparse linear operator and refined quadratures.

For constant diffusion and unit mobility the face flux is *linear* in the
density (the exponential-fitting weight then depends only on phi), so the
whole semi-discrete system is f' = L f for a fixed sparse matrix L.  This
module extracts L by probing the production flux assembly with coloured
unit bumps (Curtis, Powell & Reid, J. Inst. Math. Appl. 13, 1974: columns
whose stencils do not overlap share one probe) and offers a high-order
explicit reference integrator on it, giving an implementation-independent
answer the implicit solver must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .diagnostics import dissipation, free_energy
from .grid import (
    Boundary,
    ScalarField,
    TensorGrid,
    build_grid,
    face_divergence,
    integrate,
)
from .params import ParameterSet
from . import solver as _solver

_MAX_CELLS = 4096


@dataclass(frozen=True)
class ProbedOperator:
    """Sparse generator matrix of the linearized (constant-D) flow."""

    grid: TensorGrid
    matrix: sp.csr_array

    def __post_init__(self) -> None:
        n = self.grid.n_total
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}, got {self.matrix.shape}")

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (self.matrix @ values.ravel()).reshape(self.grid.shape)


def _probe_colours(grid: TensorGrid) -> tuple[np.ndarray, int]:
    """Colour of each cell (flat order) and the number of colours.

    Along each axis a cell is coloured by its index mod 3, so two cells of
    one colour lie at least 3 apart along some axis and no cell's
    divergence stencil (itself and its +-1 neighbours per axis) holds two
    of them.  On a periodic axis with n % 3 != 0 the wrap would break
    that, so its last n % 3 cells get colours of their own.
    """
    n = grid.n_cells
    axis_colour = np.arange(n) % 3
    tail = n - n % 3
    if grid.boundary is Boundary.PERIODIC and tail < n:
        axis_colour[tail:] = min(tail, 3) + np.arange(n - tail)
    radix = int(axis_colour.max()) + 1
    per_axis = np.meshgrid(*([axis_colour] * grid.dim), indexing="ij")
    colour = np.ravel_multi_index(per_axis, (radix,) * grid.dim).ravel()
    return colour, radix**grid.dim


def build_linear_operator(params: ParameterSet, grid: TensorGrid) -> ProbedOperator:
    """Probe the flux assembly into a sparse matrix with L f = -div J(f).

    Requires a Discretization that is ``linear`` with ``unit_mobility()``,
    so that the flux is exactly linear in f; column j is the response to a
    unit bump at cell j on the positive background f = 1.  All columns of
    one colour (see :func:`_probe_colours`) are bumped at once, and each
    response entry is read back into the one column of that colour in the
    row's stencil, so at most 5^dim probes give the same matrix as one
    probe per column.  The diagonal is then adjusted by the (round-off
    sized) column-sum defect so that mass conservation holds exactly in
    the extracted matrix.
    """
    n = grid.n_total
    if n > _MAX_CELLS:
        raise ValueError(f"probed operator limited to {_MAX_CELLS} cells, grid has {n}")
    disc = params.discretize(grid)
    if not disc.linear:
        raise ValueError("build_linear_operator requires constant diffusion")
    if not disc.unit_mobility():
        raise ValueError("build_linear_operator requires unit mobility")

    def minus_div(values: np.ndarray) -> np.ndarray:
        fld = ScalarField(grid, values.reshape(grid.shape))
        return -face_divergence(_solver.assemble_flux(fld, params, 0.0)).ravel()

    base = minus_div(np.ones(n))
    colour, n_colours = _probe_colours(grid)
    responses = np.stack([
        minus_div(np.where(colour == c, 2.0, 1.0)) - base for c in range(n_colours)
    ])
    # The stencil, row-major: the Newton Jacobian's pattern is symmetric,
    # so it reads as rows whether it is laid out as CSR (3D) or CSC.
    rows = np.repeat(np.arange(n), np.diff(disc.jac_indptr))
    cols = disc.jac_indices
    data = responses[colour[cols], rows]

    scale = float(np.max(np.abs(data))) or 1.0
    off_diag_min = float(np.min(data[rows != cols], initial=0.0))
    if off_diag_min < -1e-12 * scale:
        raise ValueError(f"probed operator has negative off-diagonal {off_diag_min:.3e}")
    col_defect = np.bincount(cols, weights=data, minlength=n)
    if float(np.max(np.abs(col_defect))) > 1e-9 * scale:
        raise ValueError("probed operator is not mass conserving")
    data[rows == cols] -= col_defect
    matrix = sp.csr_array((data, (rows, cols)), shape=(n, n))
    return ProbedOperator(grid=grid, matrix=matrix)


def reference_evolve(
    op: ProbedOperator, f0: ScalarField, t_end: float, dt: float | None = None
) -> ScalarField:
    """Classic RK4 on f' = L f with a stability-safe default step.

    For this linear autonomous system one RK4 step of size h is exactly
    f <- P f with P = I + hL (I + hL/2 (I + hL/3 (I + hL/4))), so P is
    built once by sparse products and each step is one sparse mat-vec.
    The default dt = 0.5 / max|diag L| sits well inside the RK4 stability
    region for this class of operators (for the pure heat operator it
    equals h^2 / (4 dim D)).  Pass an explicit dt much smaller than the
    implicit step under test -- two to three orders -- when using this
    as a convergence reference.
    """
    if f0.grid != op.grid:
        raise ValueError("initial field lives on a different grid than the operator")
    if not 0.0 < t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if dt is None:
        dmax = float(np.max(np.abs(op.matrix.diagonal())))
        dt = 0.5 / dmax if dmax > 0.0 else t_end
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    n_steps = max(1, math.ceil(t_end / dt - 1e-12))
    step = t_end / n_steps
    eye = sp.eye_array(op.grid.n_total, format="csr")
    propagator = eye
    for k in (4.0, 3.0, 2.0, 1.0):
        propagator = eye + ((step / k) * op.matrix) @ propagator
    f = f0.values.ravel()
    for _ in range(n_steps):
        f = propagator @ f
    return ScalarField(op.grid, f.reshape(op.grid.shape))


_FUNCTIONALS = ("mass", "free_energy", "dissipation")


def refined_functional(
    params: ParameterSet,
    functional: str,
    f_analytic: Callable[..., np.ndarray],
    refine: int,
    base_grid: TensorGrid,
    t: float = 0.0,
) -> float:
    """Evaluate a functional of an analytic density on a refined grid.

    ``functional`` is ``"mass"``, ``"free_energy"`` or ``"dissipation"``.
    ``f_analytic`` takes one coordinate array per dimension and broadcasts.
    ``refine`` multiplies the cell count per axis; refine = 1 reproduces
    the base-grid quadrature, larger values give near-exact references for
    convergence tests of the midpoint discretization.
    """
    if functional not in _FUNCTIONALS:
        raise ValueError(f"functional must be one of {_FUNCTIONALS}, got {functional!r}")
    if refine < 1:
        raise ValueError(f"refine must be a positive integer, got {refine}")
    fine = build_grid(base_grid.dim, base_grid.n_cells * refine, base_grid.boundary)
    coords = fine.center_mesh()
    values = np.broadcast_to(
        np.asarray(f_analytic(*coords), dtype=float), fine.shape
    ).copy()
    fld = ScalarField(fine, values)
    if functional == "mass":
        return integrate(fld)
    if functional == "free_energy":
        return free_energy(fld, params)
    return dissipation(fld, params, t)
