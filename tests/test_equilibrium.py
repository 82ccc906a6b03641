"""Equilibrium construction: normalization, the multiplier identity, and
agreement with closed forms where one exists.

With constant diffusion the normalization constant has the closed form
C1 = -D log(integrate(exp(-phi/D))), which pins the bisection output to an
independently computed number.
"""

import numpy as np
import pytest

from fpflow import (
    Boundary,
    build_grid,
    equilibrium_state,
    free_energy,
    integrate,
    solve_normalization,
)
from fpflow.params import build_parameter_set


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("diffusion_ref", ["D:homogeneous", "D:single"])
def test_equilibrium_has_unit_mass(dim, diffusion_ref):
    grid = build_grid(dim, 12, Boundary.PERIODIC)
    pset = build_parameter_set(dim, diffusion_ref, grid.n_cells)
    eq = equilibrium_state(pset, grid)
    assert integrate(eq.density) == pytest.approx(1.0, abs=1e-13)
    assert np.all(eq.density.values > 0.0)


def test_normalization_closed_form_constant_diffusion():
    # With D = 1: C1 = -log(integrate(exp(-phi))).
    grid = build_grid(1, 64, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:homogeneous", grid.n_cells)
    phi = pset.potential.on_grid(grid)
    expected = -np.log(grid.cell_volume * np.sum(np.exp(-phi)))
    assert solve_normalization(pset, grid) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_multiplier_identity_holds_cellwise(dim):
    # D log f_eq + phi == C1 at every cell, to round-off.  This exactness
    # is what makes the equilibrium a fixed point of the discrete flux.
    grid = build_grid(dim, 16, Boundary.NOFLUX)
    pset = build_parameter_set(dim, "D:single", grid.n_cells)
    eq = equilibrium_state(pset, grid)
    mu = pset.diffusion.on_grid(grid) * np.log(eq.density.values) + (
        pset.potential.on_grid(grid)
    )
    np.testing.assert_allclose(mu, eq.c1, rtol=0.0, atol=1e-12)


def test_equilibrium_density_is_not_renormalized():
    # The density must stay the exact exponential of (C1 - phi)/D; a
    # post-hoc renormalization would break the cell-wise identity above.
    grid = build_grid(1, 50, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:multi", grid.n_cells)
    eq = equilibrium_state(pset, grid)
    phi = pset.potential.on_grid(grid)
    D = pset.diffusion.on_grid(grid)
    np.testing.assert_array_equal(eq.density.values, np.exp((eq.c1 - phi) / D))


def test_equilibrium_free_energy_field_matches_functional():
    grid = build_grid(2, 20, Boundary.PERIODIC)
    pset = build_parameter_set(2, "D:single", grid.n_cells)
    eq = equilibrium_state(pset, grid)
    assert eq.free_energy == pytest.approx(free_energy(eq.density, pset), rel=1e-14)


def test_equilibrium_minimizes_free_energy():
    # F is the Lyapunov functional; the equilibrium should beat nearby
    # unit-mass perturbations of itself.
    grid = build_grid(1, 40, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", grid.n_cells)
    eq = equilibrium_state(pset, grid)
    rng = np.random.default_rng(12)
    for _ in range(5):
        bump = 1.0 + 0.05 * rng.standard_normal(grid.shape)
        vals = eq.density.values * np.abs(bump)
        vals = vals / (grid.cell_volume * np.sum(vals))
        perturbed = eq.density.with_values(vals)
        assert free_energy(perturbed, pset) > eq.free_energy


def test_equilibrium_independent_of_boundary_topology():
    # f_eq depends only on phi and D at cell centers, not on the face
    # topology, so both walls produce the same density.
    pset = build_parameter_set(2, "D:single", 16)
    eq_p = equilibrium_state(pset, build_grid(2, 16, Boundary.PERIODIC))
    eq_n = equilibrium_state(pset, build_grid(2, 16, Boundary.NOFLUX))
    np.testing.assert_array_equal(eq_p.density.values, eq_n.density.values)
    assert eq_p.c1 == eq_n.c1


def test_normalization_rejects_unbracketable_problems():
    from fpflow import DiffusionField, ParameterSet, PotentialField
    from fpflow.params import get_mobility

    # A huge constant potential cannot reach unit mass within the bracket.
    huge = PotentialField(
        evaluate=lambda x: np.full(np.shape(x), 1e6),
        gradient=(lambda x: np.zeros(np.shape(x)),),
        name="phi:huge",
    )
    pset = ParameterSet(
        potential=huge,
        diffusion=DiffusionField(
            evaluate=lambda x: np.ones(np.shape(x)),
            gradient=(lambda x: np.zeros(np.shape(x)),),
        ),
        mobility=get_mobility("pi:unit", 1),
    )
    grid = build_grid(1, 8, Boundary.PERIODIC)
    with pytest.raises(ValueError, match="bracket"):
        solve_normalization(pset, grid)
