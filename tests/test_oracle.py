"""The linear-operator oracle and refined quadrature references.

The oracle rebuilds the semi-discrete generator by probing the production
flux assembly, so guarding its preconditions and checking equivalence
against a direct divergence evaluation catches any nonlinearity sneaking
into the constant-coefficient path.
"""

import numpy as np
import pytest

from fpflow import (
    Boundary,
    ParameterSet,
    PotentialField,
    ScalarField,
    assemble_flux,
    build_grid,
    build_linear_operator,
    equilibrium_state,
    face_divergence,
    free_energy,
    integrate,
    preset_gaussian_ic,
    reference_evolve,
    refined_functional,
)
from fpflow.params import build_parameter_set


def flat_potential():
    return PotentialField(
        evaluate=lambda *coords: np.zeros(np.broadcast(*coords).shape),
        gradient=(lambda *coords: np.zeros(np.broadcast(*coords).shape),),
        name="phi:flat",
    )


def linear_problem(n_cells=32):
    """Constant-D, unit-mobility setup on which the flux is linear."""
    return build_parameter_set(
        1, "D:homogeneous", n_cells, mobility_ref="pi:unit"
    )


# ----------------------------------------------------------------------
# Operator extraction
# ----------------------------------------------------------------------


def test_operator_requires_linear_coefficients():
    grid = build_grid(1, 16, Boundary.PERIODIC)
    with pytest.raises(ValueError, match="constant diffusion"):
        build_linear_operator(
            build_parameter_set(1, "D:single", 16, mobility_ref="pi:unit"), grid
        )
    with pytest.raises(ValueError, match="unit mobility"):
        build_linear_operator(build_parameter_set(1, "D:homogeneous", 16), grid)


def test_operator_refuses_oversized_grids():
    grid = build_grid(1, 4097, Boundary.PERIODIC)
    with pytest.raises(ValueError, match="4096"):
        build_linear_operator(linear_problem(4097), grid)


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_operator_structure(boundary):
    grid = build_grid(1, 32, boundary)
    pset = linear_problem(32)
    op = build_linear_operator(pset, grid)
    L = op.matrix.toarray()
    scale = np.max(np.abs(L))
    # Exact mass conservation: every column sums to zero.
    np.testing.assert_allclose(L.sum(axis=0), 0.0, atol=1e-13 * scale)
    # M-matrix sign pattern: off-diagonal entries are nonnegative.
    off = L - np.diag(np.diag(L))
    assert off.min() >= -1e-12 * scale
    assert np.all(np.diag(L) < 0.0)
    # 1D stencil is nearest-neighbor (plus the periodic wrap corners).
    n = grid.n_cells
    for i in range(n):
        for j in range(n):
            gap = min(abs(i - j), n - abs(i - j)) if boundary is Boundary.PERIODIC else abs(i - j)
            if gap > 1:
                assert L[i, j] == 0.0


def single_column_probes(pset, grid):
    """The generator probed one unit bump per column, mass-corrected on the diagonal."""
    n = grid.n_total

    def minus_div(values):
        return -face_divergence(assemble_flux(ScalarField(grid, values), pset, 0.0)).ravel()

    ones = np.ones(grid.shape)
    base = minus_div(ones)
    L = np.empty((n, n))
    for j in range(n):
        bump = ones.copy()
        bump.flat[j] = 2.0
        L[:, j] = minus_div(bump) - base
    L[np.arange(n), np.arange(n)] -= L.sum(axis=0)
    return L


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_cells", [2, 4, 5, 7, 9])
def test_coloured_probes_match_single_column_probes(n_cells, dim, boundary):
    # n covers every n mod 3, including the periodic 2-cell axis whose two
    # neighbours of a cell coincide.
    grid = build_grid(dim, n_cells, boundary)
    pset = build_parameter_set(dim, "D:homogeneous", n_cells, mobility_ref="pi:unit")
    op = build_linear_operator(pset, grid)
    np.testing.assert_array_equal(op.matrix.toarray(), single_column_probes(pset, grid))


def test_operator_matches_direct_divergence_on_random_densities():
    # L was probed from unit bumps; linearity means L f must equal
    # -div J(f) for every positive f, not just the probes.
    grid = build_grid(1, 48, Boundary.PERIODIC)
    pset = linear_problem(48)
    op = build_linear_operator(pset, grid)
    rng = np.random.default_rng(17)
    for _ in range(5):
        vals = rng.uniform(0.1, 4.0, size=grid.shape)
        direct = -face_divergence(assemble_flux(ScalarField(grid, vals), pset, 0.0))
        probed = op.apply(vals)
        np.testing.assert_allclose(probed, direct, atol=1e-10 * np.max(np.abs(direct)))


def test_operator_annihilates_the_equilibrium():
    grid = build_grid(1, 40, Boundary.NOFLUX)
    pset = linear_problem(40)
    eq = equilibrium_state(pset, grid)
    op = build_linear_operator(pset, grid)
    residual = op.apply(eq.density.values)
    assert np.max(np.abs(residual)) < 1e-9


def test_operator_apply_matches_matrix_product():
    grid = build_grid(2, 8, Boundary.PERIODIC)
    pset = build_parameter_set(2, "D:homogeneous", 8, mobility_ref="pi:unit")
    op = build_linear_operator(pset, grid)
    rng = np.random.default_rng(2)
    vals = rng.uniform(0.5, 2.0, size=grid.shape)
    np.testing.assert_array_equal(
        op.apply(vals), (op.matrix @ vals.ravel()).reshape(grid.shape)
    )


# ----------------------------------------------------------------------
# Reference integrator
# ----------------------------------------------------------------------


def test_reference_evolve_validation():
    grid = build_grid(1, 16, Boundary.PERIODIC)
    op = build_linear_operator(linear_problem(16), grid)
    f0 = ScalarField(grid, np.full(grid.shape, 0.5))
    other = ScalarField(
        build_grid(1, 8, Boundary.PERIODIC), np.full((8,), 0.5)
    )
    with pytest.raises(ValueError, match="different grid"):
        reference_evolve(op, other, 0.1)
    for t_end in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="t_end"):
            reference_evolve(op, f0, t_end)
    for dt in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="dt"):
            reference_evolve(op, f0, 0.1, dt=dt)


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
@pytest.mark.parametrize("dim, n_cells", [(1, 32), (2, 12), (3, 6)])
def test_reference_evolve_matches_staged_rk4(dim, n_cells, boundary):
    grid = build_grid(dim, n_cells, boundary)
    pset = build_parameter_set(dim, "D:homogeneous", n_cells, mobility_ref="pi:unit")
    op = build_linear_operator(pset, grid)
    f0 = preset_gaussian_ic(dim, variance=0.05).build(grid)
    t_end, n_steps = 0.05, 40
    L = op.matrix.toarray()
    step = t_end / n_steps
    f = f0.values.ravel()
    for _ in range(n_steps):
        k1 = L @ f
        k2 = L @ (f + 0.5 * step * k1)
        k3 = L @ (f + 0.5 * step * k2)
        k4 = L @ (f + step * k3)
        f = f + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = reference_evolve(op, f0, t_end, dt=step)
    np.testing.assert_allclose(out.values.ravel(), f, rtol=0.0, atol=1e-14 * np.max(np.abs(f)))


def test_reference_evolve_heat_mode_decay():
    # Flat potential, D = 1: the cosine mode is an exact eigenvector of
    # the discrete operator with eigenvalue -(4/h^2) sin^2(k pi h / 2),
    # so RK4 output is checkable against a closed form.
    n, k, eps, t_end = 32, 2, 0.1, 0.05
    grid = build_grid(1, n, Boundary.PERIODIC)
    pset = ParameterSet(
        potential=flat_potential(),
        diffusion=build_parameter_set(1, "D:homogeneous", n).diffusion,
        mobility=build_parameter_set(1, "D:homogeneous", n, mobility_ref="pi:unit").mobility,
    )
    op = build_linear_operator(pset, grid)
    x = grid.centers_1d()
    mode = np.cos(k * np.pi * x)
    f0 = ScalarField(grid, 0.5 + eps * mode)
    final = reference_evolve(op, f0, t_end, dt=1e-4)
    lam = (4.0 / grid.h**2) * np.sin(0.5 * k * np.pi * grid.h) ** 2
    expected = 0.5 + eps * np.exp(-lam * t_end) * mode
    np.testing.assert_allclose(final.values, expected, atol=1e-9)


def test_reference_evolve_conserves_mass_with_default_step():
    grid = build_grid(1, 24, Boundary.NOFLUX)
    pset = linear_problem(24)
    op = build_linear_operator(pset, grid)
    rng = np.random.default_rng(9)
    vals = rng.uniform(0.3, 1.7, size=grid.shape)
    vals /= grid.cell_volume * vals.sum()
    f0 = ScalarField(grid, vals)
    final = reference_evolve(op, f0, 0.2)
    assert integrate(final) == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# Refined quadratures
# ----------------------------------------------------------------------


def test_refined_functional_validation():
    grid = build_grid(1, 10, Boundary.PERIODIC)
    pset = linear_problem(10)
    with pytest.raises(ValueError, match="functional"):
        refined_functional(pset, "entropy", lambda x: np.ones_like(x), 1, grid)
    with pytest.raises(ValueError, match="refine"):
        refined_functional(pset, "mass", lambda x: np.ones_like(x), 0, grid)


def test_refined_functional_rejects_name_aliases():
    grid = build_grid(1, 12, Boundary.PERIODIC)
    pset = linear_problem(12)
    f = lambda x: 1.0 + 0.2 * np.cos(np.pi * x)
    assert np.isfinite(refined_functional(pset, "free_energy", f, 1, grid))
    for alias in ("Free-Energy", "freeenergy", "free energy", "MASS"):
        with pytest.raises(ValueError, match="functional"):
            refined_functional(pset, alias, f, 1, grid)


def test_refined_functional_refine_one_matches_base_grid():
    grid = build_grid(1, 20, Boundary.PERIODIC)
    pset = linear_problem(20)
    f = lambda x: np.exp(x)
    mass = refined_functional(pset, "mass", f, 1, grid)
    direct = integrate(ScalarField(grid, np.exp(grid.centers_1d())))
    assert mass == pytest.approx(direct, rel=1e-15)
    fe = refined_functional(pset, "free_energy", f, 1, grid)
    assert fe == pytest.approx(
        free_energy(ScalarField(grid, np.exp(grid.centers_1d())), pset), rel=1e-15
    )


def test_refined_functional_converges_at_second_order():
    grid = build_grid(1, 10, Boundary.PERIODIC)
    pset = linear_problem(10)
    f = lambda x: np.exp(x)
    exact = np.exp(1.0) - np.exp(-1.0)
    err1 = abs(refined_functional(pset, "mass", f, 1, grid) - exact)
    err4 = abs(refined_functional(pset, "mass", f, 4, grid) - exact)
    assert err4 < err1 / 10.0  # midpoint rule gains ~16x per 4x refinement


def test_refined_dissipation_of_continuous_equilibrium_is_zero():
    # The analytic equilibrium exp((C1 - phi)/D) has cell-wise constant
    # D log f + phi at *any* resolution, so the discrete velocity -- and
    # with it the dissipation quadrature -- vanishes identically.
    grid = build_grid(1, 16, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", 16, mobility_ref="pi:unit")
    eq = equilibrium_state(pset, grid)

    def f_analytic(x):
        phi = pset.potential.evaluate(x)
        D = pset.diffusion.evaluate(x)
        return np.exp((eq.c1 - phi) / D)

    for refine in (1, 3):
        dd = refined_functional(pset, "dissipation", f_analytic, refine, grid)
        assert abs(dd) < 1e-24
