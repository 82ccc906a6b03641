"""Diagnostics: energy, velocity, entropy bounds, envelopes, rate fitting.

The cross-cutting checks live here: the velocity convention must agree
with the solver flux (they are computed by different code paths), the
entropy bound must hold on arbitrary positive densities, and the rate
fitter must reproduce synthetic exponentials exactly.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpflow import (
    Boundary,
    CKPReport,
    DecayFit,
    EnergyTrace,
    Regime,
    ScalarField,
    SolverConfig,
    assemble_flux,
    build_grid,
    ckp_check,
    dissipation,
    energy_law_mismatch,
    equilibrium_state,
    fit_decay_rate,
    free_energy,
    gronwall_envelope,
    max_principle_envelope,
    preset_gaussian_ic,
    relative_entropy,
    run,
    second_derivative_identity,
    velocity,
)
from fpflow.params import build_parameter_set


def random_density(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.2, 3.0, size=grid.shape)
    vals /= grid.cell_volume * vals.sum()
    return ScalarField(grid, vals)


# ----------------------------------------------------------------------
# Free energy
# ----------------------------------------------------------------------


def test_free_energy_uniform_closed_form():
    grid = build_grid(2, 16, Boundary.PERIODIC)
    pset = build_parameter_set(2, "D:homogeneous", grid.n_cells)
    f = ScalarField(grid, np.full(grid.shape, 0.25))
    phi = pset.potential.on_grid(grid)
    expected = (np.log(0.25) - 1.0) + 0.25 * grid.cell_volume * float(np.sum(phi))
    assert free_energy(f, pset) == pytest.approx(expected, rel=1e-13)


def test_free_energy_requires_positive_density():
    grid = build_grid(1, 8, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:homogeneous", 8)
    vals = np.full(grid.shape, 0.5)
    vals[2] = 0.0
    with pytest.raises(ValueError, match="positive"):
        free_energy(ScalarField(grid, vals), pset)


def test_free_energy_exceeds_equilibrium_value():
    grid = build_grid(1, 48, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", grid.n_cells)
    eq = equilibrium_state(pset, grid)
    for seed in range(4):
        f = random_density(grid, seed)
        assert free_energy(f, pset) > eq.free_energy


# ----------------------------------------------------------------------
# Velocity and dissipation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("diffusion_ref", ["D:homogeneous", "D:multi"])
def test_velocity_vanishes_at_equilibrium(dim, diffusion_ref):
    grid = build_grid(dim, 20, Boundary.NOFLUX)
    pset = build_parameter_set(dim, diffusion_ref, grid.n_cells)
    eq = equilibrium_state(pset, grid)
    assert velocity(eq.density, pset, 0.7).max_abs() < 1e-12
    assert dissipation(eq.density, pset, 0.7) < 1e-24


def test_velocity_matches_two_point_formula():
    grid = build_grid(1, 30, Boundary.NOFLUX)
    pset = build_parameter_set(1, "D:single", grid.n_cells)
    f = random_density(grid, 3)
    t = 0.41
    u = velocity(f, pset, t)
    mu = pset.diffusion.on_grid(grid) * np.log(f.values) + pset.potential.on_grid(grid)
    pi = pset.mobility.on_grid(grid, t)
    pi_face = 0.5 * (pi[:-1] + pi[1:])
    expected = -np.diff(mu) / (pi_face * grid.h)
    np.testing.assert_allclose(u.components[0][1:-1], expected, rtol=1e-13)
    assert u.components[0][0] == 0.0 and u.components[0][-1] == 0.0


def test_flux_equals_density_times_velocity_for_constant_density():
    # For cell-wise constant f the exponential-fitted flux collapses to
    # J = f * u exactly (B(-a) - B(a) = a), tying the two conventions.
    grid = build_grid(1, 40, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", grid.n_cells)
    f = ScalarField(grid, np.full(grid.shape, 0.5))
    t = 0.3
    j = assemble_flux(f, pset, t).components[0]
    u = velocity(f, pset, t).components[0]
    np.testing.assert_allclose(j, 0.5 * u, rtol=1e-12, atol=1e-13)


def test_dissipation_is_nonnegative_on_random_densities():
    grid = build_grid(2, 10, Boundary.PERIODIC)
    pset = build_parameter_set(2, "D:single", grid.n_cells)
    for seed in range(5):
        assert dissipation(random_density(grid, seed), pset, 0.2) >= 0.0


# ----------------------------------------------------------------------
# Relative entropy and the CKP bound
# ----------------------------------------------------------------------


def test_relative_entropy_zero_at_equilibrium():
    grid = build_grid(1, 32, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", grid.n_cells)
    eq = equilibrium_state(pset, grid)
    assert relative_entropy(eq.density, eq, pset) == pytest.approx(0.0, abs=1e-14)


def test_relative_entropy_positive_with_constant_diffusion():
    grid = build_grid(1, 32, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:homogeneous", grid.n_cells)
    eq = equilibrium_state(pset, grid)
    for seed in range(4):
        assert relative_entropy(random_density(grid, seed), eq, pset) > 0.0


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_ckp_bound_holds_on_random_densities(seed):
    grid = build_grid(1, 24, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", grid.n_cells)
    eq = equilibrium_state(pset, grid)
    report = ckp_check(random_density(grid, seed), eq)
    assert report.holds
    assert report.l1 >= 0.0
    assert report.l1**2 <= report.bound + 1e-12


def test_ckp_report_at_equilibrium():
    grid = build_grid(1, 24, Boundary.NOFLUX)
    pset = build_parameter_set(1, "D:homogeneous", grid.n_cells)
    eq = equilibrium_state(pset, grid)
    report = ckp_check(eq.density, eq)
    assert isinstance(report, CKPReport)
    assert report.l1 == pytest.approx(0.0, abs=1e-15)
    assert report.holds


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------


def test_max_principle_envelope_brackets_the_initial_datum():
    grid = build_grid(1, 60, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", grid.n_cells)
    eq = equilibrium_state(pset, grid)
    f0 = preset_gaussian_ic(1, variance=0.05, floor_rel=1e-10).build(grid)
    lower, upper = max_principle_envelope(f0, eq, pset)
    assert np.all(lower.values <= f0.values * (1 + 1e-12))
    assert np.all(f0.values <= upper.values * (1 + 1e-12))
    assert np.all(lower.values > 0.0)


def test_max_principle_envelope_degenerates_at_equilibrium():
    grid = build_grid(2, 12, Boundary.NOFLUX)
    pset = build_parameter_set(2, "D:single", grid.n_cells)
    eq = equilibrium_state(pset, grid)
    lower, upper = max_principle_envelope(eq.density, eq, pset)
    np.testing.assert_allclose(lower.values, eq.density.values, rtol=1e-12)
    np.testing.assert_allclose(upper.values, eq.density.values, rtol=1e-12)


def test_gronwall_envelope_validation():
    with pytest.raises(ValueError, match="positive"):
        gronwall_envelope(0.0, 1.0, 2.0, 0.1, 0.0)
    with pytest.raises(ValueError, match="positive"):
        gronwall_envelope(1.0, -1.0, 2.0, 0.1, 0.0)
    with pytest.raises(ValueError, match="exceed 1"):
        gronwall_envelope(1.0, 1.0, 1.0, 0.1, 0.0)
    with pytest.raises(ValueError, match="g0"):
        gronwall_envelope(1.0, 1.0, 2.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="basin"):
        gronwall_envelope(1.0, 1.0, 2.0, 1.0, 0.0)  # g0 == threshold


def test_gronwall_envelope_matches_exact_bernoulli_solution():
    # dg/dt = -c g + d g^2 solves to g(t) = 1 / ((1/g0 - d/c) e^{c t} + d/c);
    # the envelope must dominate it and reduce to it as d -> 0.
    c, d, g0 = 2.0, 1.0, 1.0
    t = np.linspace(0.0, 3.0, 13)
    exact = 1.0 / ((1.0 / g0 - d / c) * np.exp(c * t) + d / c)
    env = gronwall_envelope(c, d, 2.0, g0, t)
    assert np.all(exact <= env * (1 + 1e-12))
    assert np.all(np.diff(env) < 0.0)
    tiny_d = gronwall_envelope(c, 1e-14, 2.0, g0, t)
    np.testing.assert_allclose(tiny_d, g0 * np.exp(-c * t), rtol=1e-12)


def test_gronwall_envelope_starts_at_or_above_g0():
    env0 = gronwall_envelope(3.0, 0.5, 1.5, 0.2, 0.0)
    assert env0 >= 0.2


# ----------------------------------------------------------------------
# Second-derivative identity
# ----------------------------------------------------------------------


def _context_run(n_cells=100, n_steps=500, t_final=0.5):
    grid = build_grid(1, n_cells, Boundary.PERIODIC)
    pset = build_parameter_set(
        1, "D:homogeneous", n_cells, mobility_ref="pi:unit"
    )
    f0 = preset_gaussian_ic(1, variance=0.05, floor_rel=1e-10).build(grid)
    snaps = {}
    _, trace = run(
        f0, pset, SolverConfig(t_final=t_final, n_steps=n_steps),
        on_step=lambda k, t, f: snaps.__setitem__(k, f),
    )
    return pset, trace, snaps


def test_identity_validates_fd_context():
    pset, trace, snaps = _context_run(n_cells=40, n_steps=20, t_final=0.2)
    k = 10
    f = snaps[k]
    rows = [(trace.t[k - 1], trace.F[k - 1]), (trace.t[k], trace.F[k]),
            (trace.t[k + 1], trace.F[k + 1])]
    with pytest.raises(ValueError, match="three"):
        second_derivative_identity(f, pset, trace.t[k], Regime.HOMOGENEOUS, rows[:2])
    with pytest.raises(ValueError, match="increasing"):
        second_derivative_identity(
            f, pset, trace.t[k], Regime.HOMOGENEOUS, rows[::-1]
        )
    uneven = [rows[0], rows[1], (rows[2][0] + 0.004, rows[2][1])]
    with pytest.raises(ValueError, match="uniformly spaced"):
        second_derivative_identity(f, pset, trace.t[k], Regime.HOMOGENEOUS, uneven)
    with pytest.raises(ValueError, match="middle"):
        second_derivative_identity(
            f, pset, trace.t[k] + 0.003, Regime.HOMOGENEOUS, rows
        )


def test_identity_enforces_regime_assumptions():
    grid = build_grid(1, 30, Boundary.PERIODIC)
    f = random_density(grid, 1)
    rows = [(0.1, 1.0), (0.2, 0.9), (0.3, 0.85)]
    varying_D = build_parameter_set(1, "D:single", 30, mobility_ref="pi:unit")
    with pytest.raises(ValueError, match="constant diffusion"):
        second_derivative_identity(f, varying_D, 0.2, Regime.HOMOGENEOUS, rows)
    varying_pi = build_parameter_set(1, "D:homogeneous", 30)
    with pytest.raises(ValueError, match="unit mobility"):
        second_derivative_identity(f, varying_pi, 0.2, Regime.HOMOGENEOUS, rows)
    with pytest.raises(ValueError, match="unit mobility"):
        second_derivative_identity(f, varying_pi, 0.2, Regime.INHOMOGENEOUS_D, rows)


@pytest.mark.parametrize("field, derivative, broken", [
    ("potential", "gradient", "potential gradient"),
    ("potential", "hessian", "potential Hessian"),
    ("diffusion", "gradient", "diffusion gradient"),
    ("mobility", "gradient", "mobility gradient"),
    ("mobility", "time_derivative", "mobility time derivative"),
])
def test_identity_names_a_non_finite_analytic_derivative(field, derivative, broken):
    nan = lambda x, *rest: np.full_like(x, np.nan)  # noqa: E731
    pset = build_parameter_set(1, "D:single", 30)
    evaluator = {"gradient": (nan,), "hessian": ((nan,),), "time_derivative": nan}[derivative]
    pset = replace(pset, **{field: replace(getattr(pset, field), **{derivative: evaluator})})
    f = random_density(build_grid(1, 30, Boundary.PERIODIC), 1)
    rows = [(0.1, 1.0), (0.2, 0.9), (0.3, 0.85)]
    with pytest.raises(ValueError, match=f"^{broken} must be finite on the grid$"):
        second_derivative_identity(f, pset, 0.2, Regime.VARIABLE_MOBILITY, rows)


@pytest.mark.parametrize("dim", [1, 2])
def test_identity_rejects_two_cell_noflux_grids(dim):
    # Its wall derivatives are one-sided second-order differences, which
    # need 3 cells; a 2-cell periodic axis wraps instead.
    rows = [(0.1, 1.0), (0.2, 0.9), (0.3, 0.85)]
    pset = build_parameter_set(dim, "D:homogeneous", 2, mobility_ref="pi:unit")
    for boundary in (Boundary.NOFLUX, Boundary.PERIODIC):
        f = random_density(build_grid(dim, 2, boundary), dim)
        if boundary is Boundary.PERIODIC:
            assert np.isfinite(
                second_derivative_identity(f, pset, 0.2, Regime.HOMOGENEOUS, rows).residual
            )
            continue
        with pytest.raises(
            ValueError, match=r"at least 3 cells per axis on a no-flux grid, got 2$"
        ):
            second_derivative_identity(f, pset, 0.2, Regime.HOMOGENEOUS, rows)


def test_identity_matches_trace_curvature_in_homogeneous_regime():
    pset, trace, snaps = _context_run()
    k = 250
    rows = [(trace.t[k - 1], trace.F[k - 1]), (trace.t[k], trace.F[k]),
            (trace.t[k + 1], trace.F[k + 1])]
    report = second_derivative_identity(
        snaps[k], pset, trace.t[k], Regime.HOMOGENEOUS, rows
    )
    assert report.regime is Regime.HOMOGENEOUS
    assert report.residual == pytest.approx(abs(report.lhs - report.rhs), rel=1e-12)
    scale = max(abs(report.lhs), abs(report.rhs))
    assert report.residual < 0.05 * scale
    assert report.lhs > 0.0  # F is convex along the decaying trajectory


# ----------------------------------------------------------------------
# Rate fitting
# ----------------------------------------------------------------------


def _synthetic_trace(n=40, rate=3.0, amplitude=2.0, t_final=2.0):
    t = np.linspace(0.0, t_final, n)
    q = amplitude * np.exp(-rate * t)
    return EnergyTrace(
        t=t, mass=np.ones(n), F=q + 1.0, F_rel=q, D_dis=rate * q,
        f_min=np.full(n, 0.1), f_max=np.full(n, 2.0),
    )


def test_fit_recovers_synthetic_exponential():
    trace = _synthetic_trace(n=40, rate=3.0, amplitude=2.0)
    fit = fit_decay_rate(trace, "F_rel", transient_frac=0.1, floor_rel=0.0)
    assert fit.rate == pytest.approx(3.0, rel=1e-10)
    assert fit.intercept == pytest.approx(np.log(2.0), abs=1e-9)
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.n_points == 36  # 40 rows minus floor(0.1 * 40) leading rows
    assert fit.window[0] == pytest.approx(trace.t[4])
    assert fit.window[1] == pytest.approx(trace.t[-1])


def test_fit_on_dissipation_column():
    trace = _synthetic_trace(rate=5.0)
    fit = fit_decay_rate(trace, "D_dis", transient_frac=0.0, floor_rel=0.0)
    assert fit.rate == pytest.approx(5.0, rel=1e-10)


def test_fit_floor_trims_collapsed_tail():
    trace = _synthetic_trace(n=60, rate=10.0, t_final=6.0)  # decays to e^{-60}
    fit = fit_decay_rate(trace, "F_rel", transient_frac=0.0, floor_rel=1e-12)
    # Rows below 1e-12 * q0 are excluded: q/q0 = e^{-10 t} < 1e-12 at
    # t > 2.763, so the window must end at the last surviving row.
    assert fit.window[1] <= 2.763 + 1e-9
    assert fit.n_points < 60
    assert fit.rate == pytest.approx(10.0, rel=1e-9)


def test_fit_validation_errors():
    trace = _synthetic_trace(n=40)
    with pytest.raises(ValueError, match="quantity"):
        fit_decay_rate(trace, "mass")
    with pytest.raises(ValueError, match="transient_frac"):
        fit_decay_rate(trace, "F_rel", transient_frac=1.0)
    short = _synthetic_trace(n=15)
    with pytest.raises(ValueError, match="at least 20"):
        fit_decay_rate(short, "F_rel")
    # A sharp floor leaves fewer than five usable rows.
    steep = _synthetic_trace(n=30, rate=40.0, t_final=6.0)
    with pytest.raises(ValueError, match="survive"):
        fit_decay_rate(steep, "F_rel", transient_frac=0.0, floor_rel=1e-3)


@settings(deadline=None, max_examples=25)
@given(scale=st.floats(1e-6, 1e6))
def test_fit_rate_is_scale_invariant(scale):
    base = _synthetic_trace(n=40, rate=4.0, amplitude=1.0)
    scaled = EnergyTrace(
        t=base.t, mass=base.mass, F=base.F, F_rel=scale * base.F_rel,
        D_dis=base.D_dis, f_min=base.f_min, f_max=base.f_max,
    )
    fit = fit_decay_rate(scaled, "F_rel", transient_frac=0.1, floor_rel=0.0)
    assert fit.rate == pytest.approx(4.0, rel=1e-9)
    assert fit.intercept == pytest.approx(np.log(scale), abs=1e-8)


def test_decay_fit_validation():
    with pytest.raises(ValueError, match="r_squared"):
        DecayFit(rate=1.0, intercept=0.0, r_squared=1.5, window=(0.0, 1.0), n_points=6)
    with pytest.raises(ValueError, match="window"):
        DecayFit(rate=1.0, intercept=0.0, r_squared=0.5, window=(1.0, 1.0), n_points=6)
    with pytest.raises(ValueError, match="5 points"):
        DecayFit(rate=1.0, intercept=0.0, r_squared=0.5, window=(0.0, 1.0), n_points=4)


def test_energy_law_mismatch_arithmetic():
    trace = _synthetic_trace(n=10, rate=2.0)
    out = energy_law_mismatch(trace)
    dt = np.diff(trace.t)
    expected = np.abs(trace.F[1:] - trace.F[:-1] + dt * trace.D_dis[1:])
    np.testing.assert_allclose(out, expected, rtol=1e-14)
    assert out.shape == (9,)


def test_regime_enum_values():
    assert Regime.HOMOGENEOUS.value == "homogeneous"
    assert Regime.INHOMOGENEOUS_D.value == "inhomogeneous-d"
    assert Regime.VARIABLE_MOBILITY.value == "variable-mobility"
