"""Independent cross-checks: dense linear operator and refined quadratures.

For constant diffusion and unit mobility the face flux is *linear* in the
density (the exponential-fitting weight then depends only on phi), so the
whole semi-discrete system is f' = L f for a fixed matrix L.  This module
extracts L by probing the production flux assembly column by column and
offers a high-order explicit reference integrator on it, giving an
implementation-independent answer the implicit solver must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import dissipation, free_energy
from .grid import ScalarField, TensorGrid, build_grid, face_divergence, integrate
from .params import ParameterSet
from . import solver as _solver

_MAX_CELLS = 4096


@dataclass(frozen=True)
class DenseOperator:
    """Dense generator matrix of the linearized (constant-D) flow."""

    grid: TensorGrid
    matrix: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n_total
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}, got {self.matrix.shape}")

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (self.matrix @ values.ravel()).reshape(self.grid.shape)


def build_linear_operator(params: ParameterSet, grid: TensorGrid) -> DenseOperator:
    """Probe the flux assembly into an explicit matrix with L f = -div J(f).

    Requires constant diffusion and unit (time-independent) mobility so
    that the flux is exactly linear in f; each column is the response to
    a unit bump on the positive background f = 1.  The diagonal is then
    adjusted by the (round-off sized) column-sum defect so that mass
    conservation holds exactly in the extracted matrix.
    """
    n = grid.n_total
    if n > _MAX_CELLS:
        raise ValueError(f"dense operator limited to {_MAX_CELLS} cells, grid has {n}")
    disc = params.discretize(grid)
    D = disc.D
    if float(np.max(D) - np.min(D)) > 1e-14 * float(np.max(np.abs(D))):
        raise ValueError("build_linear_operator requires constant diffusion")
    for pi in (disc.pi(0.0), params.mobility.on_grid(grid, 0.37)):
        if float(np.max(np.abs(pi - 1.0))) > 1e-14:
            raise ValueError("build_linear_operator requires unit mobility")

    def minus_div(values: np.ndarray) -> np.ndarray:
        fld = ScalarField(grid, values)
        return -face_divergence(_solver.assemble_flux(fld, params, 0.0))

    ones = np.ones(grid.shape)
    base = minus_div(ones)
    matrix = np.empty((n, n))
    bump = ones.copy()
    flat = bump.reshape(-1)
    for j in range(n):
        flat[j] = 2.0
        matrix[:, j] = (minus_div(bump) - base).ravel()
        flat[j] = 1.0

    scale = float(np.max(np.abs(matrix))) or 1.0
    off_diag_min = float(np.min(matrix - np.diag(np.diag(matrix))))
    if off_diag_min < -1e-12 * scale:
        raise ValueError(f"probed operator has negative off-diagonal {off_diag_min:.3e}")
    col_defect = matrix.sum(axis=0)
    if float(np.max(np.abs(col_defect))) > 1e-9 * scale:
        raise ValueError("probed operator is not mass conserving")
    matrix[np.arange(n), np.arange(n)] -= col_defect
    return DenseOperator(grid=grid, matrix=matrix)


def reference_evolve(
    op: DenseOperator, f0: ScalarField, t_end: float, dt: float | None = None
) -> ScalarField:
    """Classic RK4 on f' = L f with a stability-safe default step.

    The default dt = 0.5 / max|diag L| sits well inside the RK4 stability
    region for this class of operators (for the pure heat operator it
    equals h^2 / (4 dim D)).  Pass an explicit dt much smaller than the
    implicit step under test -- two to three orders -- when using this
    as a convergence reference.
    """
    if f0.grid != op.grid:
        raise ValueError("initial field lives on a different grid than the operator")
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if dt is None:
        dmax = float(np.max(np.abs(np.diag(op.matrix))))
        dt = 0.5 / dmax if dmax > 0.0 else t_end
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = max(1, math.ceil(t_end / dt - 1e-12))
    step = t_end / n_steps
    L = op.matrix
    f = f0.values.ravel().copy()
    for _ in range(n_steps):
        k1 = L @ f
        k2 = L @ (f + 0.5 * step * k1)
        k3 = L @ (f + 0.5 * step * k2)
        k4 = L @ (f + step * k3)
        f = f + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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

    ``f_analytic`` takes one coordinate array per dimension and broadcasts.
    ``refine`` multiplies the cell count per axis; refine = 1 reproduces
    the base-grid quadrature, larger values give near-exact references for
    convergence tests of the midpoint discretization.
    """
    key = functional.lower().replace("-", "_").replace(" ", "_")
    if key == "freeenergy":
        key = "free_energy"
    if key not in _FUNCTIONALS:
        raise ValueError(f"functional must be one of {_FUNCTIONALS}, got {functional!r}")
    if refine < 1:
        raise ValueError(f"refine must be a positive integer, got {refine}")
    fine = build_grid(base_grid.dim, base_grid.n_cells * refine, base_grid.boundary)
    coords = fine.center_mesh()
    values = np.broadcast_to(
        np.asarray(f_analytic(*coords), dtype=float), fine.shape
    ).copy()
    fld = ScalarField(fine, values)
    if key == "mass":
        return integrate(fld)
    if key == "free_energy":
        return free_energy(fld, params)
    return dissipation(fld, params, t)
