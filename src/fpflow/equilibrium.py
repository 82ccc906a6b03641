"""Discrete equilibrium states: f_eq = exp((C1 - phi) / D), unit mass.

The normalization constant C1 is the unique solution of
integrate(exp((C1 - phi)/D)) = 1 on the given grid; since the discrete
mass is strictly increasing in C1 the bisection below always converges.
The returned density is the exact cell-wise exponential -- it is *not*
renormalized afterwards, so the identity D log f_eq + phi = C1 holds at
every cell to round-off, which is what makes the equilibrium exactly
stationary for the exponential-fitted flux.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import free_energy
from .grid import ScalarField, TensorGrid
from .params import Discretization, ParameterSet

_BRACKET = 1000.0


@dataclass(frozen=True)
class EquilibriumState:
    """Equilibrium density together with its multiplier and free energy."""

    density: ScalarField
    c1: float
    free_energy: float


def _mass(c1: float, disc: Discretization) -> float:
    with np.errstate(over="ignore"):
        return disc.grid.cell_volume * float(np.sum(np.exp((c1 - disc.phi) / disc.D)))


def solve_normalization(params: ParameterSet, grid: TensorGrid) -> float:
    """Bisect for the constant C1 that gives the equilibrium unit mass."""
    disc = params.discretize(grid)
    lo, hi = -_BRACKET, _BRACKET
    m_lo = _mass(lo, disc)
    m_hi = _mass(hi, disc)
    if not (m_lo < 1.0 < m_hi):
        raise ValueError(
            "equilibrium normalization constant does not bracket in "
            f"[-{_BRACKET}, {_BRACKET}]: mass range [{m_lo:.3e}, {m_hi:.3e}]"
        )
    # ~70 halvings shrink the bracket to ~1e-13 absolute; the trailing
    # mass check guards the quadrature tolerance rather than the interval.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _mass(mid, disc) < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(mid)):
            break
    c1 = 0.5 * (lo + hi)
    if abs(_mass(c1, disc) - 1.0) > 1e-13:
        raise ValueError("equilibrium normalization failed to reach tolerance")
    return c1


def equilibrium_state(params: ParameterSet, grid: TensorGrid) -> EquilibriumState:
    """Solve for C1 and build the (unrenormalized) equilibrium density."""
    disc = params.discretize(grid)
    c1 = solve_normalization(params, grid)
    density = ScalarField(grid, np.exp((c1 - disc.phi) / disc.D))
    return EquilibriumState(
        density=density, c1=c1, free_energy=free_energy(density, params)
    )
