"""The implicit solver: flux structure, single steps, full runs, traces.

The three structural guarantees of the scheme are tested directly at the
single-step level (exact mass conservation, strict positivity, monotone
free-energy decay) together with the property that motivates the
exponential fitting: the discrete equilibrium is a fixed point to
round-off even with spatially varying diffusion.
"""

import io
import itertools
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import fpflow.solver as solver_mod
from fpflow import (
    Boundary,
    EnergyTrace,
    NonConvergence,
    ParameterSet,
    PositivityLoss,
    PotentialField,
    ScalarField,
    SolverConfig,
    assemble_flux,
    backward_euler_step,
    build_grid,
    dissipation,
    equilibrium_state,
    free_energy,
    integrate,
    preset_gaussian_ic,
    run,
)
from fpflow.checks import materialize, pinned_keys, pinned_run
from fpflow.params import build_parameter_set, get_mobility
from fpflow.grid import face_divergence
from fpflow.solver import _bernoulli_pair, _bernoulli_slopes


def gaussian_start(grid, variance=0.05, floor_rel=1e-10):
    return preset_gaussian_ic(grid.dim, variance=variance, floor_rel=floor_rel).build(
        grid
    )


# ----------------------------------------------------------------------
# Configuration and trace containers
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t_final=0.0, n_steps=1),
        dict(t_final=-1.0, n_steps=1),
        dict(t_final=np.inf, n_steps=1),
        dict(t_final=np.nan, n_steps=1),
        dict(t_final=1.0, n_steps=0),
        dict(t_final=1.0, n_steps=2.5),
        dict(t_final=1.0, n_steps=3.0),
    ],
)
def test_solver_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_solver_config_accepts_numpy_integer_counts():
    config = SolverConfig(t_final=1.0, n_steps=np.int64(4))
    assert config.n_steps == 4


def _toy_trace(n=6):
    t = np.linspace(0.0, 1.0, n)
    return EnergyTrace(
        t=t,
        mass=np.ones(n),
        F=2.0 - t,
        F_rel=1.0 - t / 2,
        D_dis=np.exp(-t),
        f_min=np.full(n, 0.1),
        f_max=np.full(n, 3.0),
    )


def test_trace_structure_and_len():
    trace = _toy_trace()
    assert len(trace) == 6
    trace.validate()
    with pytest.raises(ValueError):
        EnergyTrace(
            t=np.arange(3.0),
            mass=np.ones(4),
            F=np.ones(3),
            F_rel=np.ones(3),
            D_dis=np.ones(3),
            f_min=np.ones(3),
            f_max=np.ones(3),
        )


def test_trace_validate_catches_violations():
    good = _toy_trace()
    bad_t = EnergyTrace(
        t=good.t[::-1].copy(), mass=good.mass, F=good.F, F_rel=good.F_rel,
        D_dis=good.D_dis, f_min=good.f_min, f_max=good.f_max,
    )
    with pytest.raises(ValueError, match="increasing"):
        bad_t.validate()
    drifted = good.mass.copy()
    drifted[-1] += 1e-9
    with pytest.raises(ValueError, match="mass"):
        EnergyTrace(
            t=good.t, mass=drifted, F=good.F, F_rel=good.F_rel,
            D_dis=good.D_dis, f_min=good.f_min, f_max=good.f_max,
        ).validate()
    with pytest.raises(ValueError, match="nonpositive"):
        EnergyTrace(
            t=good.t, mass=good.mass, F=good.F, F_rel=good.F_rel,
            D_dis=good.D_dis, f_min=np.zeros(len(good)), f_max=good.f_max,
        ).validate()
    csv = "t,mass,F,F_rel,D_dis,f_min,f_max\n0,1,1,1,1,1,1\nnan,nan,nan,nan,nan,nan,nan\n"
    with pytest.raises(ValueError, match="non-finite"):
        EnergyTrace.from_csv(io.StringIO(csv)).validate()
    for column, bad in itertools.product(solver_mod._TRACE_COLUMNS, (np.nan, np.inf)):
        values = getattr(good, column).copy()
        values[-1] = bad
        with pytest.raises(ValueError, match=f"column {column} has a non-finite"):
            replace(good, **{column: values}).validate()


def test_trace_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    n = 9
    trace = EnergyTrace(
        t=np.sort(rng.uniform(0, 2, n)),
        mass=1.0 + 1e-13 * rng.standard_normal(n),
        F=rng.standard_normal(n),
        F_rel=np.abs(rng.standard_normal(n)),
        D_dis=np.abs(rng.standard_normal(n)) * 1e3,
        f_min=np.abs(rng.standard_normal(n)) * 1e-12,
        f_max=np.abs(rng.standard_normal(n)) * 1e2,
    )
    # In-memory round trip.
    buf = io.StringIO()
    trace.to_csv(buf)
    back = EnergyTrace.from_csv(io.StringIO(buf.getvalue()))
    for col in ("t", "mass", "F", "F_rel", "D_dis", "f_min", "f_max"):
        np.testing.assert_array_equal(getattr(back, col), getattr(trace, col))
    # Path round trip.
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back2 = EnergyTrace.from_csv(path)
    np.testing.assert_array_equal(back2.F, trace.F)


def test_trace_csv_skips_comments_and_checks_header(tmp_path):
    path = tmp_path / "trace.csv"
    trace = _toy_trace()
    with open(path, "w") as fh:
        fh.write("# produced by a run\n")
        trace.to_csv(fh)
        fh.write("# trailing note\n")
    back = EnergyTrace.from_csv(path)
    np.testing.assert_array_equal(back.t, trace.t)
    with pytest.raises(ValueError, match="header"):
        EnergyTrace.from_csv(io.StringIO("time,mass\n0,1\n"))


@pytest.mark.parametrize("row, problem", [
    ("1,1,2,3,4,5", " has 6 fields"),
    ("1,1,2,3,4,5,6,7", " has 8 fields"),
    ("1,1,2,3,4,x,6", ": could not convert string to float: 'x'"),
], ids=["6", "8", "non-numeric"])
def test_trace_csv_names_the_line_of_a_malformed_row(row, problem):
    buf = io.StringIO()
    _toy_trace().to_csv(buf)
    lines = buf.getvalue().splitlines()
    lines[2] = row
    with pytest.raises(ValueError, match=f"line 3{problem}"):
        EnergyTrace.from_csv(io.StringIO("\n".join(lines) + "\n"))


# ----------------------------------------------------------------------
# The Bernoulli kernel
# ----------------------------------------------------------------------


def bernoulli(x):
    return _bernoulli_pair(x)[1]


def bernoulli_prime(x):
    return _bernoulli_slopes(x, np.minimum(*_bernoulli_pair(x)))[1]


def test_bernoulli_basic_values():
    assert bernoulli(np.array([0.0]))[0] == 1.0
    x = np.array([-700.0, -50.0, -2.0, -1e-8, 1e-8, 2.0, 50.0, 700.0])
    b = bernoulli(x)
    assert np.all(b > 0.0)
    assert np.all(np.isfinite(b))
    # B(-x) - B(x) = x exactly characterizes the kernel.
    np.testing.assert_allclose(bernoulli(-x) - b, x, rtol=1e-13, atol=1e-13)


def test_bernoulli_extreme_arguments_do_not_overflow():
    b = bernoulli(np.array([1e4, -1e4]))
    assert b[0] == 0.0  # x / e^x underflows to zero
    assert b[1] == pytest.approx(1e4)


def test_bernoulli_prime_matches_finite_differences():
    xs = np.array([-30.0, -5.0, -1.0, -1e-3, 0.0, 1e-3, 1.0, 5.0, 30.0])
    h = 1e-6
    fd = (bernoulli(xs + h) - bernoulli(xs - h)) / (2 * h)
    np.testing.assert_allclose(bernoulli_prime(xs), fd, rtol=1e-6, atol=1e-9)
    assert bernoulli_prime(np.array([0.0]))[0] == pytest.approx(-0.5)


def test_bernoulli_prime_extreme_arguments():
    d = bernoulli_prime(np.array([800.0, -800.0]))
    assert d[0] == pytest.approx(0.0, abs=1e-300)
    assert d[1] == pytest.approx(-1.0, rel=1e-12)


def test_bernoulli_prime_matches_its_series_where_the_closed_form_cancels():
    # B'(x) = B(x)(1 - B(x) - x)/x loses digits as x -> 0; the series must
    # take over early enough that no digit loss shows above 1e-12.
    x = np.concatenate([np.geomspace(1e-4, 1e-2, 2001), -np.geomspace(1e-4, 1e-2, 2001)])
    series = -0.5 + x / 6 - x**3 / 180 + x**5 / 5040 - x**7 / 151200
    np.testing.assert_allclose(bernoulli_prime(x), series, rtol=0.0, atol=1e-12)


def test_bernoulli_slopes_have_the_bits_of_the_two_branch_formula():
    # The closed form on every face, overwritten by the series below
    # t = 5e-3, against both branches evaluated everywhere and picked by
    # np.where, on each side of the switch and at the ends of the range.
    t = np.array([0.0, 1e-300, 1e-8, 4.999e-3, 5e-3, 5.001e-3, 1.0, 700.0, 710.0, 1e300])
    a = np.concatenate([t, -t])
    b = np.minimum(*_bernoulli_pair(a))
    t = np.abs(a)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.where(t < 5e-3, -0.5 + t / 6.0 - t**3 / 180.0, b * (1.0 - b - t) / t)
    e = -1.0 - d
    expected = np.where(a >= 0.0, e, d), np.where(a >= 0.0, d, e)
    for got, want in zip(_bernoulli_slopes(a, b), expected):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim, n_cells", [(1, 16), (2, 8), (3, 10)])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
@pytest.mark.parametrize("diffusion_ref", ["D:homogeneous", "D:multi"])
def test_newton_jacobian_matches_finite_differences(
    monkeypatch, dim, n_cells, boundary, diffusion_ref
):
    # Every Jacobian the Newton loop hands to the linear solver, applied to
    # a random direction, against a central difference of the
    # backward-Euler residual.  Under D:multi the face weight depends on
    # log f, so the a_l / a_r terms of dJ/df are active.
    grid = build_grid(dim, n_cells, boundary)
    pset = build_parameter_set(dim, diffusion_ref, n_cells)
    disc = pset.discretize(grid)
    f_old = gaussian_start(grid, variance=0.03).values
    t_new, dt = 0.3, 0.1

    def residual(f):
        flux = assemble_flux(ScalarField(grid, f), pset, t_new)
        return (f - f_old + dt * face_divergence(flux)).ravel()

    systems = []
    inner = solver_mod._NewtonSystem.solve

    def capture(self, jac, rhs, f, rtol):
        systems.append((jac, f.reshape(grid.shape).copy()))
        return inner(self, jac, rhs, f, rtol)

    monkeypatch.setattr(solver_mod._NewtonSystem, "solve", capture)
    backward_euler_step(ScalarField(grid, f_old), pset, t_new, dt)
    assert systems
    rng = np.random.default_rng(dim)
    eps = 1e-6
    for jac, f in systems:
        v = f * rng.uniform(-1.0, 1.0, grid.shape)
        fd = (residual(f + eps * v) - residual(f - eps * v)) / (2.0 * eps)
        jv = jac @ v.ravel()
        np.testing.assert_allclose(jv, fd, rtol=0.0, atol=1e-7 * np.max(np.abs(jv)))


@pytest.mark.parametrize("dim, n_cells", [(1, 2), (1, 16), (2, 3), (2, 8), (3, 2), (3, 5)])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_jacobian_pattern_sums_like_coo_to_csc(dim, n_cells, boundary):
    # The once-built pattern, filled by Discretization.jacobian, against
    # the conversion of the same COO entries to the layout the solve reads
    # (CSR in 3D, CSC otherwise), bit for bit.  A 2-cell periodic axis
    # lists each off-diagonal entry twice, so duplicates are summed there.
    grid = build_grid(dim, n_cells, boundary)
    disc = build_parameter_set(dim, "D:homogeneous", n_cells).discretize(grid)
    rng = np.random.default_rng(n_cells)
    c = 0.37
    diag, L, R = np.arange(grid.n_total), disc.l_idx, disc.r_idx
    dfl, dfr = rng.uniform(-1.0, 1.0, (2,) + L.shape)
    jl, jr = c * dfl, c * dfr
    # The face flux enters cell L's divergence with +, cell R's with -.
    entries = sp.coo_matrix(
        (
            np.concatenate((np.ones(grid.n_total), jl, jr, -jl, -jr)),
            (np.concatenate((diag, L, L, R, R)), np.concatenate((diag, L, R, L, R))),
        ),
        shape=(grid.n_total,) * 2,
    )
    expected = entries.tocsr() if dim == 3 else entries.tocsc()
    expected.sort_indices()
    np.testing.assert_array_equal(disc.jac_indptr, expected.indptr)
    np.testing.assert_array_equal(disc.jac_indices, expected.indices)
    jac = disc.jacobian(dfl, dfr, c)
    assert jac.format == expected.format
    for name in ("data", "indices", "indptr"):
        assert getattr(jac, name).tobytes() == getattr(expected, name).tobytes(), name
    # The diagonal's slots.
    np.testing.assert_array_equal(jac.data[disc.jac_diagonal], expected.diagonal())


# ----------------------------------------------------------------------
# Flux assembly
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
@pytest.mark.parametrize("diffusion_ref", ["D:homogeneous", "D:single"])
def test_equilibrium_flux_vanishes(dim, boundary, diffusion_ref):
    # The defining property of the exponential fitting: at f_eq the face
    # flux is zero to round-off even for spatially varying diffusion.
    grid = build_grid(dim, 24, boundary)
    pset = build_parameter_set(dim, diffusion_ref, grid.n_cells)
    eq = equilibrium_state(pset, grid)
    for t in (0.0, 0.4):
        flux = assemble_flux(eq.density, pset, t)
        assert flux.max_abs() < 1e-12


def test_flux_reduces_to_two_point_gradient_for_pure_diffusion():
    # With constant phi and D = pi = 1 the exponential weight is exactly
    # zero, so J must equal -(f_R - f_L)/h with no approximation at all.
    grid = build_grid(1, 16, Boundary.PERIODIC)
    flat = PotentialField(
        evaluate=lambda x: np.zeros(np.shape(x)),
        gradient=(lambda x: np.zeros(np.shape(x)),),
        name="phi:flat",
    )
    pset = ParameterSet(
        potential=flat,
        diffusion=build_parameter_set(1, "D:homogeneous", 16).diffusion,
        mobility=get_mobility("pi:unit", 1),
    )
    f = gaussian_start(grid)
    flux = assemble_flux(f, pset, 0.0)
    expected = -(f.values - np.roll(f.values, 1)) / grid.h
    np.testing.assert_array_equal(flux.components[0], expected)


def test_flux_scales_with_the_mobility_time_factor():
    # pi carries a pure time factor 1/(1 + sin(10 t)/2); the flux is
    # proportional to 1/pi, so J(t) = J(0) * (1 + sin(10 t)/2) exactly.
    grid = build_grid(1, 32, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", grid.n_cells)
    f = gaussian_start(grid)
    j0 = assemble_flux(f, pset, 0.0).components[0]
    t = 0.83
    jt = assemble_flux(f, pset, t).components[0]
    np.testing.assert_allclose(jt, j0 * (1.0 + 0.5 * np.sin(10.0 * t)), rtol=1e-13)


def test_flux_requires_positive_density():
    grid = build_grid(1, 8, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:homogeneous", 8)
    vals = np.full(grid.shape, 0.5)
    vals[3] = 0.0
    with pytest.raises(ValueError, match="positive"):
        assemble_flux(ScalarField(grid, vals), pset, 0.0)


def test_flux_rejects_nonpositive_coefficients():
    from fpflow import DiffusionField, MobilityField

    grid = build_grid(1, 8, Boundary.PERIODIC)
    base = build_parameter_set(1, "D:homogeneous", 8)
    f = gaussian_start(grid)
    bad_D = ParameterSet(
        potential=base.potential,
        diffusion=DiffusionField(
            evaluate=lambda x: np.asarray(x, dtype=float),  # negative on half the box
            gradient=(lambda x: np.ones(np.shape(x)),),
        ),
        mobility=base.mobility,
    )
    with pytest.raises(ValueError, match="diffusion"):
        assemble_flux(f, bad_D, 0.0)
    bad_pi = ParameterSet(
        potential=base.potential,
        diffusion=base.diffusion,
        mobility=MobilityField(
            evaluate=lambda x, t: np.asarray(x, dtype=float),
            gradient=(lambda x, t: np.ones(np.shape(x)),),
        ),
    )
    with pytest.raises(ValueError, match="mobility"):
        assemble_flux(f, bad_pi, 0.0)


@pytest.mark.parametrize(
    "kind, bad, match",
    [
        ("potential", np.nan, "potential must be finite"),
        ("diffusion", np.nan, "diffusion must be positive and finite"),
        ("diffusion", np.inf, "diffusion must be positive and finite"),
        ("mobility", np.nan, "mobility at t = 0.0 must be positive and finite"),
        ("mobility", np.inf, "mobility at t = 0.0 must be positive and finite"),
    ],
)
def test_run_rejects_non_finite_coefficients(kind, bad, match):
    # One cell's value is NaN or infinite: the run stops with a ValueError
    # naming the coefficient, before any arithmetic on it could warn.
    grid = build_grid(1, 16, Boundary.PERIODIC)
    base = build_parameter_set(1, "D:single", 16)
    field = getattr(base, kind)

    def spoiled(x, *t, _evaluate=field.evaluate):
        return _evaluate(x, *t) * np.where(x > 0.9, bad, 1.0)

    pset = replace(base, **{kind: replace(field, evaluate=spoiled)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            run(gaussian_start(grid), pset, SolverConfig(t_final=0.1, n_steps=2))


def test_noflux_flux_has_zero_wall_values():
    grid = build_grid(2, 10, Boundary.NOFLUX)
    pset = build_parameter_set(2, "D:single", grid.n_cells)
    flux = assemble_flux(gaussian_start(grid), pset, 0.1)
    for axis in range(2):
        comp = flux.components[axis]
        sl = [slice(None)] * 2
        sl[axis] = 0
        assert np.all(comp[tuple(sl)] == 0.0)
        sl[axis] = -1
        assert np.all(comp[tuple(sl)] == 0.0)


# ----------------------------------------------------------------------
# Single implicit steps
# ----------------------------------------------------------------------


def test_step_validation():
    grid = build_grid(1, 16, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:homogeneous", 16)
    f = gaussian_start(grid)
    for dt in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="step size"):
            backward_euler_step(f, pset, 0.1, dt)
    for t_new in (np.nan, np.inf):
        with pytest.raises(ValueError, match="t_new"):
            backward_euler_step(f, pset, t_new, 0.1)
    flat = np.zeros(grid.shape)
    flat[0] = 1.0 / grid.cell_volume
    with pytest.raises(ValueError, match="positive"):
        backward_euler_step(ScalarField(grid, flat), pset, 0.1, 0.1)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_step_conserves_mass_exactly(dim, boundary):
    grid = build_grid(dim, 20 if dim == 1 else 12, boundary)
    pset = build_parameter_set(dim, "D:single", grid.n_cells)
    f = gaussian_start(grid)
    f1 = backward_euler_step(f, pset, 0.1, 0.1)
    assert integrate(f1) == pytest.approx(integrate(f), abs=5e-15)
    assert np.all(f1.values > 0.0)


def test_step_fixes_the_equilibrium():
    grid = build_grid(1, 40, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:multi", grid.n_cells)
    eq = equilibrium_state(pset, grid)
    f1 = backward_euler_step(eq.density, pset, 0.37, 0.37)
    np.testing.assert_allclose(f1.values, eq.density.values, rtol=1e-12)


def test_step_decreases_free_energy():
    grid = build_grid(1, 50, Boundary.NOFLUX)
    pset = build_parameter_set(1, "D:single", grid.n_cells)
    f = gaussian_start(grid)
    before = free_energy(f, pset)
    f1 = backward_euler_step(f, pset, 0.1, 0.1)
    assert free_energy(f1, pset) < before


def test_step_raises_nonconvergence_when_starved_of_iterations(monkeypatch):
    grid = build_grid(1, 50, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", grid.n_cells)
    f = gaussian_start(grid, variance=0.01, floor_rel=1e-10)
    monkeypatch.setattr(solver_mod, "_NEWTON_MAX_ITERS", 1)
    with pytest.raises(NonConvergence, match="residual"):
        backward_euler_step(f, pset, 1.0, 1.0)


# ----------------------------------------------------------------------
# Full runs
# ----------------------------------------------------------------------


def test_run_validates_the_initial_datum():
    grid = build_grid(1, 16, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:homogeneous", 16)
    config = SolverConfig(t_final=0.5, n_steps=5)
    with pytest.raises(ValueError, match="nonpositive"):
        run(ScalarField(grid, np.zeros(grid.shape)), pset, config)
    with pytest.raises(ValueError, match="unit mass"):
        run(ScalarField(grid, np.full(grid.shape, 1.0)), pset, config)


def test_run_floors_exact_zeros_and_survives():
    # A half-box top hat contains exact zeros; the positivity floor must
    # lift them so the first Newton step can take logs.
    grid = build_grid(1, 40, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:homogeneous", grid.n_cells)
    vals = np.zeros(grid.shape)
    vals[10:30] = 1.0
    vals /= grid.cell_volume * vals.sum()
    final, trace = run(ScalarField(grid, vals), pset, SolverConfig(t_final=0.2, n_steps=4))
    trace.validate()
    assert np.all(final.values > 0.0)
    assert trace.f_min[0] >= 1e-280


def test_run_recording_schedule():
    grid = build_grid(1, 24, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:homogeneous", grid.n_cells)
    f0 = gaussian_start(grid)
    config = SolverConfig(t_final=0.7, n_steps=7)
    steps = []
    final, trace = run(f0, pset, config, on_step=lambda k, t, f: steps.append((k, t)))
    dt = 0.1
    # Recorded: t=0 and every step.
    np.testing.assert_allclose(trace.t, dt * np.arange(8), rtol=1e-12)
    assert [k for k, _ in steps] == list(range(1, 8))
    np.testing.assert_allclose([t for _, t in steps], dt * np.arange(1, 8), rtol=1e-12)
    assert len(trace) == 8
    assert trace.f_max[0] >= trace.f_max[-1]  # spreading Gaussian flattens


def test_run_trace_satisfies_core_invariants():
    grid = build_grid(1, 60, Boundary.NOFLUX)
    pset = build_parameter_set(1, "D:multi", grid.n_cells)
    f0 = gaussian_start(grid)
    config = SolverConfig(t_final=1.5, n_steps=30)
    _, trace = run(f0, pset, config)
    trace.validate()
    assert np.max(np.abs(trace.mass - 1.0)) < 1e-12
    assert np.all(np.diff(trace.F) <= 10 * solver_mod._NEWTON_TOL)
    assert np.all(trace.f_min > 0.0)
    assert np.all(trace.F_rel >= -1e-12)


@pytest.mark.parametrize("preset, t_final", [
    ("quad-dd-1d", 1e3), ("fig-fe-2d-hom", 1e6), ("fig-fe-3d-coarse-hom", 1e6),
])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_long_steps_land_on_the_equilibrium_through_the_rounding_exit(
    preset, t_final, boundary
):
    # Each step's residual stalls above the tolerance at its own rounding,
    # which grows with the face terms times dt / h; Newton must stop there
    # instead of iterating to the cap.
    _grid, pset, f0, config = materialize(preset, boundary, t_final=t_final, n_steps=2)
    _check_lands_on_the_equilibrium(f0, pset, config)


@pytest.mark.parametrize("n_cells", [40, 100, 200])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
@pytest.mark.parametrize("diffusion_ref", ["D:homogeneous", "D:single", "D:multi"])
def test_long_1d_steps_stop_at_rounding_on_every_grid(n_cells, boundary, diffusion_ref):
    # With dt = 5e5 every case needs the rounding exit, and the rounding
    # bound must follow dt / h from the coarsest grid to the finest.
    grid = build_grid(1, n_cells, boundary)
    pset = build_parameter_set(1, diffusion_ref, grid.n_cells)
    config = SolverConfig(t_final=1e6, n_steps=2)
    _check_lands_on_the_equilibrium(gaussian_start(grid), pset, config)


def _check_lands_on_the_equilibrium(f0, pset, config):
    _, trace = run(f0, pset, config)
    trace.validate()
    assert np.max(np.abs(trace.mass - trace.mass[0])) <= 1e-15
    assert np.all(np.diff(trace.F) < 0.0)
    assert trace.F_rel[-1] <= 1e-14


def test_pinned_1d_and_2d_runs_keep_mass_at_roundoff(shared_runs):
    # The sparse-LU update carries its right-hand side's mass only up to
    # the factorization's rounding; the density-weighted shift restores it
    # exactly.  Without the shift, the linear D:homogeneous runs (one
    # Newton update per step) drift by 2e-14 to 4e-14.
    for dim, diff, bc in pinned_keys():
        if dim < 3:
            mass = pinned_run(dim, diff, bc).trace.mass
            assert np.max(np.abs(mass - mass[0])) <= 1e-14, (dim, diff, bc)


def test_run_prefixes_step_errors_with_the_step_index(monkeypatch):
    grid = build_grid(1, 50, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", grid.n_cells)
    f0 = gaussian_start(grid, variance=0.01, floor_rel=1e-10)
    config = SolverConfig(t_final=1.0, n_steps=1)
    monkeypatch.setattr(solver_mod, "_NEWTON_MAX_ITERS", 1)
    with pytest.raises(NonConvergence, match=r"step 1 \(t = 1\)"):
        run(f0, pset, config)


def test_run_converges_to_the_equilibrium():
    grid = build_grid(1, 50, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", grid.n_cells)
    eq = equilibrium_state(pset, grid)
    f0 = gaussian_start(grid)
    final, trace = run(f0, pset, SolverConfig(t_final=6.0, n_steps=60))
    assert trace.F_rel[-1] < 1e-12
    l1 = grid.cell_volume * float(np.sum(np.abs(final.values - eq.density.values)))
    assert l1 < 1e-6


def test_backward_euler_is_first_order_in_time():
    # Successive dt halvings against the finest run: the error should
    # shrink by a factor near 2 per halving.
    grid = build_grid(1, 32, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", grid.n_cells)
    f0 = gaussian_start(grid)
    finals = {}
    for n_steps in (8, 16, 32, 128):
        final, _ = run(f0, pset, SolverConfig(t_final=0.4, n_steps=n_steps))
        finals[n_steps] = final.values
    err = {
        n: grid.cell_volume * float(np.sum(np.abs(finals[n] - finals[128])))
        for n in (8, 16, 32)
    }
    ratio_1 = err[8] / err[16]
    ratio_2 = err[16] / err[32]
    assert 1.6 < ratio_1 < 2.6
    assert 1.6 < ratio_2 < 2.9


# ----------------------------------------------------------------------
# Linear solve of the Newton system
# ----------------------------------------------------------------------


def _count_calls(monkeypatch, name, counts, replacement=None, owner=solver_mod):
    """Wrap ``owner.<name>`` so that each call bumps ``counts[name]``.

    ``owner`` is ``fpflow.solver`` or a class in it, whose method is then
    wrapped.
    """
    inner = replacement or getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _coarse_3d_run():
    _grid, pset, f0, config = materialize("fig-fe-3d-coarse-DM", Boundary.PERIODIC)
    return run(f0, pset, config)


def _coarse_3d_single_run():
    # The mass-conservation-3d check's run: its damped iterates make
    # diagonals of the Newton matrix negative.
    grid = build_grid(3, 8, Boundary.PERIODIC)
    f0 = preset_gaussian_ic(3, variance=0.04).build(grid)
    return run(f0, build_parameter_set(3, "D:single", 8), SolverConfig(t_final=0.2, n_steps=4))


def _coarse_3d_floored_single_run():
    # The same run with the Gaussian's tail lifted to 1e-10 of its peak.
    grid = build_grid(3, 8, Boundary.PERIODIC)
    f0 = gaussian_start(grid, variance=0.04, floor_rel=1e-10)
    return run(f0, build_parameter_set(3, "D:single", 8), SolverConfig(t_final=0.2, n_steps=4))


@pytest.mark.parametrize(
    "coarse_run", [_coarse_3d_run, _coarse_3d_single_run, _coarse_3d_floored_single_run]
)
def test_3d_newton_systems_are_solved_by_bicgstab(monkeypatch, coarse_run):
    counts, maxiters = {}, []
    _count_calls(monkeypatch, "splu", counts)
    inner = solver_mod.bicgstab

    def recorded(*args, **kwargs):
        maxiters.append(kwargs.get("maxiter"))
        return inner(*args, **kwargs)

    _count_calls(monkeypatch, "bicgstab", counts, replacement=recorded)
    _count_calls(monkeypatch, "_face_derivatives", counts)
    _count_calls(monkeypatch, "solve", counts, owner=solver_mod._NewtonSystem)
    final, trace = coarse_run()
    trace.validate()
    updates = counts["solve"]
    assert updates == counts["_face_derivatives"]
    assert updates >= 5
    assert counts.get("splu", 0) == 0
    assert counts["bicgstab"] >= updates
    # Every solve is capped at N iterations, a tenth of scipy's default.
    assert maxiters == [final.grid.n_total] * counts["bicgstab"]


@pytest.mark.parametrize(
    "preset, boundary, budget",
    [("fig-fe-3d-hom", Boundary.PERIODIC, 100), ("fig-fe-3d-DM", Boundary.NOFLUX, 140)],
)
def test_3d_krylov_iterations_stay_within_budget(monkeypatch, preset, boundary, budget):
    # The pinned n = 20 runs.  No-flux fig-fe-3d-DM: 205 Krylov iterations with
    # N / sum d on the constant mode of the preconditioner, 147 with
    # 1 / (1 + s lam_1), 128 with the correction trusted down to a tenth of
    # the mean density (w = min(1, f / (0.1 mean f)) in place of
    # min(1, f / mean f)).  Periodic fig-fe-3d-hom: 120, then 94.
    counts = {"iterations": 0}
    _count_calls(monkeypatch, "splu", counts)
    inner = solver_mod.bicgstab

    def counted(*args, **kwargs):
        def callback(_xk):
            counts["iterations"] += 1

        return inner(*args, callback=callback, **kwargs)

    monkeypatch.setattr(solver_mod, "bicgstab", counted)
    _grid, pset, f0, config = materialize(preset, boundary)
    _final, trace = run(f0, pset, config)
    trace.validate()
    assert counts.get("splu", 0) == 0
    assert 0 < counts["iterations"] <= budget


@pytest.mark.parametrize("dim, n_cells", [(1, 24), (2, 12), (3, 8)])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
@pytest.mark.parametrize("diffusion_ref", ["D:homogeneous", "D:multi"])
def test_flux_derivatives_are_formed_once_per_newton_update(
    monkeypatch, dim, n_cells, boundary, diffusion_ref
):
    # Each step evaluates the flux (F), and after a failed residual test
    # forms dJ/df (D) and solves (S); the evaluation that stops a step
    # forms no derivatives.
    events = []

    def tagged(tag, inner):
        def wrapped(*args, **kwargs):
            events.append(tag)
            return inner(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(solver_mod, "_face_quantities", tagged("F", solver_mod._face_quantities))
    monkeypatch.setattr(solver_mod, "_face_derivatives", tagged("D", solver_mod._face_derivatives))
    monkeypatch.setattr(
        solver_mod._NewtonSystem, "solve", tagged("S", solver_mod._NewtonSystem.solve)
    )
    grid = build_grid(dim, n_cells, boundary)
    pset = build_parameter_set(dim, diffusion_ref, n_cells)
    config = SolverConfig(t_final=0.3, n_steps=3)
    run(gaussian_start(grid), pset, config)
    assert re.fullmatch(r"((FDS)+F){%d}" % config.n_steps, "".join(events))


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_3d_krylov_iterations_grow_slowly_with_the_grid(monkeypatch, boundary):
    # Jacobi-preconditioned BiCGSTAB needs about 20 iterations per solve at
    # n = 8 and 57 at n = 16; the separable preconditioner keeps the count
    # nearly flat.
    iterations = []

    def counted(jac, rhs, _inner=solver_mod.bicgstab, **kwargs):
        count = [0]
        x, info = _inner(
            jac, rhs, callback=lambda _x: count.__setitem__(0, count[0] + 1), **kwargs
        )
        iterations.append(count[0])
        return x, info

    monkeypatch.setattr(solver_mod, "bicgstab", counted)
    medians = {}
    for n_cells in (8, 16):
        iterations.clear()
        _grid, pset, f0, config = materialize(
            "fig-fe-3d-DM", boundary, n_cells=n_cells, n_steps=2, t_final=0.04
        )
        run(f0, pset, config)[1].validate()
        medians[n_cells] = np.median(iterations)
    assert medians[16] <= 2 * medians[8], medians


def _record_solves(monkeypatch):
    """Record each Newton solve as (rtol, max-norm of rhs, iterate f, update x)."""
    solves = []
    inner = solver_mod._NewtonSystem.solve

    def recorded(self, jac, rhs, f, rtol):
        x = inner(self, jac, rhs, f, rtol)
        solves.append((rtol, float(np.max(np.abs(rhs))), f.copy(), x.copy()))
        return x

    monkeypatch.setattr(solver_mod._NewtonSystem, "solve", recorded)
    return solves


def _forcing_floor(f_old, rnorm):
    """The rtol every update may take: 1% of the Newton tolerance."""
    tol = solver_mod._NEWTON_TOL * max(1.0, float(np.max(f_old)))
    return min(0.1, max(1e-13, 0.01 * tol / rnorm))


def _preset_solves_by_step(monkeypatch, preset, boundary):
    """Per step of a preset run, the (rtol, floor) of each Newton solve."""
    solves = _record_solves(monkeypatch)
    _grid, pset, f0, config = materialize(preset, boundary)
    steps, f_old = [], np.maximum(f0.values, solver_mod._POSITIVITY_FLOOR)

    def on_step(_k, _t, f):
        nonlocal f_old
        steps.append([(rtol, _forcing_floor(f_old, rn)) for rtol, rn, _f, _x in solves])
        solves.clear()
        f_old = f.values

    run(f0, pset, config, on_step=on_step)
    return steps


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_linear_3d_runs_solve_every_update_at_the_forcing_floor(monkeypatch, boundary):
    # A linear step has C ~ 0, so nothing is loosened.
    steps = _preset_solves_by_step(monkeypatch, "fig-fe-3d-hom", boundary)
    assert len(steps) == 10
    assert all(rtol == floor for step in steps for rtol, floor in step)


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_nonlinear_3d_runs_loosen_only_updates_that_are_not_a_steps_last(
    monkeypatch, boundary
):
    steps = _preset_solves_by_step(monkeypatch, "fig-fe-3d-coarse-DM", boundary)
    assert len(steps) == 5
    # Nothing is measured before the run's first update: it starts at the ceiling.
    first_rtol, first_floor = steps[0][0]
    assert first_rtol == 0.1 > first_floor
    for step in steps:
        last_rtol, last_floor = step[-1]
        assert last_rtol == last_floor
        assert all(rtol >= floor for rtol, floor in step)
    assert sum(rtol > floor for step in steps for rtol, floor in step) >= 1


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_a_nonlinear_3d_step_starts_at_the_forcing_ceiling(monkeypatch, boundary):
    # Each backward_euler_step solves through a new system, which has
    # measured nothing yet; its last update is still solved at the floor.
    solves = _record_solves(monkeypatch)
    grid = build_grid(3, 8, boundary)
    f0 = gaussian_start(grid, 0.08)
    backward_euler_step(f0, build_parameter_set(3, "D:single", 8), 0.05, 0.05)
    rtols = [rtol for rtol, _rn, _f, _x in solves]
    floors = [_forcing_floor(f0.values, rn) for _r, rn, _f, _x in solves]
    assert len(solves) >= 2
    assert rtols[0] == 0.1 > floors[0]
    assert rtols[-1] == floors[-1]


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_a_damped_update_forgets_the_measured_nonlinearity(monkeypatch, boundary):
    # A step from a wide Gaussian measures C under D:single.  The next
    # step, through the same system from a narrow unregularized Gaussian,
    # damps its first update, which C loosened, and many after it.
    solves = _record_solves(monkeypatch)
    grid = build_grid(3, 8, boundary)
    disc = build_parameter_set(3, "D:single", 8).discretize(grid)
    system = solver_mod._NewtonSystem(disc)
    solver_mod._newton_solve(disc, gaussian_start(grid, 0.08).values, 0.05, 0.05, system)
    assert system.curvature is not None
    solves.clear()
    narrow = preset_gaussian_ic(3, variance=0.04).build(grid).values
    solver_mod._newton_solve(disc, narrow, 0.1, 0.05, system)
    loose = [rtol > _forcing_floor(narrow, rn) for rtol, rn, _f, _x in solves]
    damped = [
        not np.array_equal(f_next, f.ravel() + x)
        for (_r, _rn, f, x), (_r2, _rn2, f_next, _x2) in zip(solves, solves[1:])
    ]
    assert loose[0] and damped[0]
    assert sum(damped) >= 10
    for k, was_damped in enumerate(damped):
        if was_damped:
            assert not loose[k + 1], k
    assert any(loose[k + 1] for k, was_damped in enumerate(damped) if not was_damped)


@pytest.mark.parametrize("n_cells", [2, 3, 5])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_separable_inverse_matches_a_dense_solve(n_cells, boundary):
    # K is built here from the Discretization's face list, each face adding
    # (e_L - e_R)(e_L - e_R)^T; a 2-cell periodic axis lists its face twice.
    grid = build_grid(3, n_cells, boundary)
    disc = build_parameter_set(3, "D:homogeneous", n_cells).discretize(grid)
    n = grid.n_total
    faces = np.arange(len(disc.l_idx))
    grad = np.zeros((len(faces), n))
    grad[faces, disc.l_idx] = 1.0
    grad[faces, disc.r_idx] = -1.0
    laplacian = grad.T @ grad
    # The smallest nonzero eigenvalue of K is that of one axis, lam_1.
    lam1 = np.linalg.eigvalsh(laplacian)[1]
    x = np.random.default_rng(n_cells).standard_normal((3, n))
    system = solver_mod._NewtonSystem(disc)
    for s in (0.0, 0.37, 40.0):
        apply = system._separable_inverse(s)
        for v in x:
            # The constant vector is an eigenvector of I + sK with eigenvalue
            # 1; its component is scaled by 1 / (1 + s lam_1) instead.
            expected = np.linalg.solve(np.eye(n) + s * laplacian, v) + (
                1.0 / (1.0 + s * lam1) - 1.0
            ) * v.mean()
            np.testing.assert_allclose(apply(v), expected, rtol=0.0, atol=1e-12)
    # A step of dt ~ 1e300 gives s ~ 1e300: every mode, the constant one
    # included, scales like 1/s, so s (I + sK)^-1 tends to K^+ plus the
    # constant mode divided by lam_1.
    s, pinv = 1e300, np.linalg.pinv(laplacian)
    apply = system._separable_inverse(s)
    for v in x:
        out = apply(v)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(s * out, pinv @ v + v.mean() / lam1, rtol=0.0, atol=1e-12)


def _direct_bicgstab(jac, b, **_kwargs):
    """A stand-in for ``solver.bicgstab`` that solves exactly: the direct reference."""
    return spsolve(jac, b), 0


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_3d_krylov_step_matches_the_direct_solve_in_every_cell(monkeypatch, boundary):
    # A steep well drains the Gaussian's corners to ~1e-24.  The Krylov
    # step must resolve them as well as a direct solve does, relative to
    # each cell, not only relative to the peak (Jacobi: 1.1e-5).
    n_cells, dt = 20, 0.01
    grid = build_grid(3, n_cells, boundary)
    well = PotentialField(
        evaluate=lambda x, y, z: (x**2 + y**2 + z**2) / 0.03,
        gradient=tuple((lambda *c, i=i: c[i] / 0.015) for i in range(3)),
        name="phi:well",
    )
    pset = ParameterSet(
        potential=well,
        diffusion=build_parameter_set(3, "D:homogeneous", n_cells).diffusion,
        mobility=get_mobility("pi:unit", 3),
    )
    f0 = gaussian_start(grid, variance=0.025, floor_rel=0.0)
    krylov = backward_euler_step(f0, pset, dt, dt).values
    counts = {}
    _count_calls(monkeypatch, "splu", counts)
    _count_calls(monkeypatch, "bicgstab", counts, replacement=_direct_bicgstab)
    direct = backward_euler_step(f0, pset, dt, dt).values
    assert counts["bicgstab"] > 0
    assert counts.get("splu", 0) == 0
    assert direct.min() < 1e-23
    np.testing.assert_allclose(krylov, direct, rtol=1e-8, atol=0.0)


def test_krylov_run_matches_the_direct_solve_run(monkeypatch):
    krylov_final, krylov = _coarse_3d_run()
    counts = {}
    _count_calls(monkeypatch, "splu", counts)
    _count_calls(monkeypatch, "bicgstab", counts, replacement=_direct_bicgstab)
    direct_final, direct = _coarse_3d_run()
    assert counts["bicgstab"] > 0
    assert counts.get("splu", 0) == 0
    for name in ("mass", "F", "D_dis", "f_min", "f_max"):
        np.testing.assert_allclose(
            getattr(direct, name)[-1], getattr(krylov, name)[-1], rtol=1e-9, atol=0.0
        )
    # F_rel = F - F_eq carries F's absolute rounding, so its bound is a few
    # ulps of |F|: rtol=1e-9 alone is below one ulp of F when F_rel is small.
    np.testing.assert_allclose(
        direct.F_rel[-1], krylov.F_rel[-1], rtol=1e-9, atol=4 * np.spacing(abs(direct.F[-1]))
    )
    np.testing.assert_allclose(direct_final.values, krylov_final.values, rtol=1e-9)


# Stand-ins for a failed BiCGSTAB call, returning (x, info) as scipy's
# does: info is maxiter when the solve did not converge, and negative on a
# breakdown.  An overflowing Krylov iterate can come back with info == 0.
_KRYLOV_FAILURES = {
    "no-convergence": lambda jac, b, maxiter, **_kw: (np.zeros_like(b), maxiter),
    "breakdown": lambda jac, b, **_kw: (np.zeros_like(b), -10),
    "non-finite": lambda jac, b, **_kw: (np.full_like(b, np.inf), 0),
}


@pytest.mark.parametrize(
    "failure, message",
    [
        ("no-convergence", r"BiCGSTAB did not converge within 216 iterations \(rtol 1\.0e-10\)"),
        ("breakdown", r"BiCGSTAB breakdown \(info -10\)"),
        ("non-finite", r"BiCGSTAB returned a non-finite update"),
    ],
    ids=["no-convergence", "breakdown", "non-finite"],
)
def test_failed_bicgstab_solve_is_a_typed_failure(monkeypatch, failure, message):
    # 3D has no direct solve to fall back on: nothing reaches SuperLU.
    counts = {}
    _count_calls(monkeypatch, "splu", counts)
    _count_calls(monkeypatch, "bicgstab", counts, replacement=_KRYLOV_FAILURES[failure])
    grid = build_grid(3, 6, Boundary.PERIODIC)
    disc = build_parameter_set(3, "D:homogeneous", 6).discretize(grid)
    n, zeros = grid.n_total, np.zeros(disc.l_idx.size)
    jac = disc.jacobian(zeros, zeros, 1.0)  # the identity
    with pytest.raises(NonConvergence, match=f"^{message}$"):
        solver_mod._NewtonSystem(disc).solve(jac, np.linspace(1.0, 2.0, n), np.ones(n), 1e-10)
    assert counts == {"bicgstab": 1}


@pytest.mark.parametrize("dim, n_cells", [(1, 100), (3, 6)])
def test_singular_newton_system_is_a_typed_failure(monkeypatch, dim, n_cells):
    # Two equal rows make the system exactly singular.  In 1D SuperLU finds
    # a zero pivot, on the second solve of the same matrix too: no
    # factorization was kept from the first.  In 3D BiCGSTAB breaks down on
    # it (the right-hand side is not in the range), and nothing reaches SuperLU.
    counts = {}
    _count_calls(monkeypatch, "splu", counts)
    grid = build_grid(dim, n_cells, Boundary.PERIODIC)
    disc = build_parameter_set(dim, "D:homogeneous", n_cells).discretize(grid)
    n, zeros = grid.n_total, np.zeros(disc.l_idx.size)
    jac = disc.jacobian(zeros, zeros, 1.0)  # the identity on the Jacobian pattern
    jac[0, 1] = jac[1, 0] = 1.0  # the pattern holds (0, 1) and (1, 0)
    assert jac.nnz == disc.jac_indices.size
    assert jac.data.sum() == n + 2
    rhs = np.zeros(n)
    rhs[0] = 1.0
    system = solver_mod._NewtonSystem(disc)
    message = (
        r"^singular Newton system \(Factor is exactly singular\)" if dim == 1
        else r"^BiCGSTAB breakdown \(info -11\)$"
    )
    for solves in (1, 2):
        with pytest.raises(NonConvergence, match=message):
            system.solve(jac, rhs, np.ones(n), 1e-10)
        assert counts.get("splu", 0) == (solves if dim == 1 else 0)


def test_bicgstab_that_cannot_converge_fails_its_step_without_splu(monkeypatch):
    # A robustness-sweep case: its first step's Krylov solves stall.  It
    # fails at once, where a SuperLU fallback took over a second to fail.
    counts = {}
    _count_calls(monkeypatch, "splu", counts)
    grid = build_grid(3, 10, Boundary.PERIODIC)
    f0 = preset_gaussian_ic(3, variance=0.03).build(grid)
    pset = build_parameter_set(3, "D:single", 10)
    with pytest.raises(
        NonConvergence,
        match=r"^step 1 \(t = 0\.05\): BiCGSTAB did not converge within 1000 iterations",
    ):
        run(f0, pset, SolverConfig(t_final=0.2, n_steps=4))
    assert counts.get("splu", 0) == 0


# What run() raises: the step, then the failure and its Newton iteration.
_AT_STEP_AND_ITERATION = r"^step \d+ \(t = [0-9.e+-]+\): %s at Newton iteration \d+$"


@pytest.mark.parametrize(
    "failure, message",
    [
        ("no-convergence", r"BiCGSTAB did not converge within 1000 iterations \(rtol [0-9.e+-]+\)"),
        ("breakdown", r"BiCGSTAB breakdown \(info -10\)"),
        ("non-finite", r"BiCGSTAB returned a non-finite update"),
    ],
    ids=["no-convergence", "breakdown", "non-finite"],
)
def test_failed_bicgstab_names_its_step_and_newton_iteration(monkeypatch, failure, message):
    monkeypatch.setattr(solver_mod, "bicgstab", _KRYLOV_FAILURES[failure])
    with pytest.raises(NonConvergence, match=_AT_STEP_AND_ITERATION % message):
        _coarse_3d_run()


def test_positivity_loss_names_its_step_and_newton_iteration():
    # A narrow Gaussian under D:multi no-flux: damping finds no positive iterate.
    grid = build_grid(1, 24, Boundary.NOFLUX)
    f0 = preset_gaussian_ic(1, variance=0.005).build(grid)
    with pytest.raises(
        PositivityLoss,
        match=_AT_STEP_AND_ITERATION % r"Newton damping reached 2\^-20 without a positive iterate",
    ):
        run(f0, build_parameter_set(1, "D:multi", 24), SolverConfig(t_final=0.5, n_steps=10))


def test_singular_newton_system_names_its_step_and_newton_iteration(monkeypatch):
    # SuperLU is handed each Newton matrix with its first row copied into its second.
    def singular_splu(jac, _inner=solver_mod.splu):
        rows = jac.tolil()
        rows[1] = rows[0]
        return _inner(rows.tocsc())

    monkeypatch.setattr(solver_mod, "splu", singular_splu)
    grid = build_grid(1, 24, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:homogeneous", 24)
    with pytest.raises(
        NonConvergence,
        match=_AT_STEP_AND_ITERATION % r"singular Newton system \(Factor is exactly singular\)",
    ):
        run(gaussian_start(grid), pset, SolverConfig(t_final=0.3, n_steps=3))


@pytest.mark.parametrize("dim, n_cells", [(1, 100), (3, 6)])
def test_non_finite_newton_residual_is_a_typed_failure(monkeypatch, dim, n_cells):
    # A step of 1e300 leaves the first residual finite (~1e302), and the
    # first update overflows the next one.  The step fails there, without
    # a numpy warning and before an inf/NaN system reaches a linear solver.
    solved = []
    for name in ("splu", "bicgstab"):
        def checked(jac, *args, _name=name, _inner=getattr(solver_mod, name), **kwargs):
            solved.append((_name, bool(np.all(np.isfinite(jac.data)))))
            return _inner(jac, *args, **kwargs)

        monkeypatch.setattr(solver_mod, name, checked)
    grid = build_grid(dim, n_cells, Boundary.PERIODIC)
    pset = build_parameter_set(dim, "D:homogeneous", n_cells)
    f0 = preset_gaussian_ic(dim).build(grid)
    config = SolverConfig(t_final=1e300, n_steps=1)
    with warnings.catch_warnings(record=True) as caught, pytest.raises(
        NonConvergence, match=r"^step 1 \(t = 1e\+300\): non-finite Newton residual \(inf\)"
    ):
        warnings.simplefilter("always")
        run(f0, pset, config)
    assert caught == []
    assert solved == [("splu" if dim == 1 else "bicgstab", True)]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_1d_and_2d_newton_systems_stay_on_splu(monkeypatch, dim, boundary):
    counts = {}
    _count_calls(monkeypatch, "splu", counts)
    _count_calls(monkeypatch, "bicgstab", counts)
    grid = build_grid(dim, 24 if dim == 1 else 12, boundary)
    pset = build_parameter_set(dim, "D:multi", grid.n_cells)
    run(gaussian_start(grid), pset, SolverConfig(t_final=0.3, n_steps=3))
    assert counts.get("bicgstab", 0) == 0
    assert counts["splu"] >= 3


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
@pytest.mark.parametrize(
    "diffusion_ref, mobility_ref, factorizations",
    [
        # Linear and autonomous: one Newton matrix for the whole run.
        ("D:homogeneous", "pi:unit", lambda steps, updates: 1),
        # Linear, but the mobility moves with t: one matrix per step.
        ("D:homogeneous", "pi:standard", lambda steps, updates: steps),
        # Nonlinear: every Newton update has a matrix of its own.
        ("D:multi", "pi:standard", lambda steps, updates: updates),
    ],
)
def test_run_factors_each_distinct_newton_matrix_once(
    monkeypatch, dim, boundary, diffusion_ref, mobility_ref, factorizations
):
    counts = {}
    _count_calls(monkeypatch, "splu", counts)
    _count_calls(monkeypatch, "solve", counts, owner=solver_mod._NewtonSystem)
    grid = build_grid(dim, 24 if dim == 1 else 12, boundary)
    pset = build_parameter_set(dim, diffusion_ref, grid.n_cells, mobility_ref=mobility_ref)
    config = SolverConfig(t_final=0.3, n_steps=3)
    run(gaussian_start(grid), pset, config)
    updates = counts["solve"]
    assert updates >= config.n_steps
    assert counts["splu"] == factorizations(config.n_steps, updates)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_reused_factors_give_the_bits_of_fresh_ones(monkeypatch, dim, boundary):
    # run() factors the constant matrix once; a loop of single steps
    # factors it again at every step.  Trace and states agree bit for bit.
    counts = {}
    _count_calls(monkeypatch, "splu", counts)
    grid = build_grid(dim, 24 if dim == 1 else 12, boundary)
    pset = build_parameter_set(dim, "D:homogeneous", grid.n_cells, mobility_ref="pi:unit")
    config = SolverConfig(t_final=0.3, n_steps=4)
    f0 = gaussian_start(grid)
    final, trace = run(f0, pset, config)
    assert counts.pop("splu") == 1

    dt = config.t_final / config.n_steps
    eq = equilibrium_state(pset, grid)
    states, times = [f0], [0.0]
    for k in range(1, config.n_steps + 1):
        states.append(backward_euler_step(states[-1], pset, k * dt, dt))
        times.append(k * dt)
    assert counts["splu"] == config.n_steps
    np.testing.assert_array_equal(final.values, states[-1].values)
    energies = [free_energy(f, pset) for f in states]
    expected = {
        "t": times,
        "mass": [integrate(f) for f in states],
        "F": energies,
        "F_rel": [F - eq.free_energy for F in energies],
        "D_dis": [dissipation(f, pset, t) for f, t in zip(states, times)],
        "f_min": [f.values.min() for f in states],
        "f_max": [f.values.max() for f in states],
    }
    for name, column in expected.items():
        np.testing.assert_array_equal(getattr(trace, name), column)


@pytest.mark.parametrize("mobility_ref", ["pi:unit", "pi:standard"])
def test_concurrent_runs_on_one_discretization_match_serial_runs(mobility_ref):
    # Two runs with different steps share one ParameterSet, grid and so
    # Discretization.  Factors or mobility values kept on that shared
    # object would be read by the other thread, at another time.
    grid = build_grid(2, 16, Boundary.PERIODIC)
    pset = build_parameter_set(2, "D:homogeneous", grid.n_cells, mobility_ref=mobility_ref)
    disc = pset.discretize(grid)
    attributes = dict(vars(disc))
    f0 = gaussian_start(grid)
    configs = [SolverConfig(t_final=0.3, n_steps=n) for n in (6, 10)]
    serial = [run(f0, pset, config) for config in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda config: run(f0, pset, config), configs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (s_final, s_trace), (t_final, t_trace) in zip(serial, threaded):
        np.testing.assert_array_equal(t_final.values, s_final.values)
        for name in ("t", "mass", "F", "F_rel", "D_dis", "f_min", "f_max"):
            np.testing.assert_array_equal(getattr(t_trace, name), getattr(s_trace, name))
    assert pset.discretize(grid) is disc
    assert vars(disc).keys() == attributes.keys()
    assert all(vars(disc)[name] is value for name, value in attributes.items())


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_3d_krylov_step_keeps_tiny_tails_positive_and_mass_exact(boundary):
    # A Gaussian of variance 0.025 relaxing in a well of equilibrium
    # variance 0.015: corner cells hold ~1e-20 before and ~7e-21 after the
    # step.  Spreading the Krylov mass error uniformly over the cells
    # pushes them negative; the density-weighted correction does not.
    grid = build_grid(3, 10, boundary)
    well = PotentialField(
        evaluate=lambda x, y, z: (x**2 + y**2 + z**2) / 0.03,
        gradient=tuple((lambda *c, i=i: c[i] / 0.015) for i in range(3)),
        name="phi:well",
    )
    pset = ParameterSet(
        potential=well,
        diffusion=build_parameter_set(3, "D:homogeneous", 10).diffusion,
        mobility=get_mobility("pi:unit", 3),
    )
    f0 = gaussian_start(grid, variance=0.025, floor_rel=0.0)
    assert f0.values.min() < 1e-19
    dt = 1e-3
    f1 = backward_euler_step(f0, pset, dt, dt)
    assert np.all(f1.values > 0.0)
    assert f1.values.min() < 1e-20
    assert abs(integrate(f1) - integrate(f0)) <= 1e-15
