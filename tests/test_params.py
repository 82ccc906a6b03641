"""Coefficient presets: analytic derivatives, bounds, symmetry, registry.

Every preset couples an evaluator with hand-written derivatives; a wrong
sign or factor there silently corrupts the flux assembly and the identity
diagnostics, so each derivative is cross-checked against central finite
differences at random points.  The even symmetry asserted here is also
what makes the periodic and no-flux runs of the bundled experiments agree.
"""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from fpflow import (
    Boundary,
    PresetNotFound,
    SolverConfig,
    build_grid,
    build_linear_operator,
    integrate,
    preset_diffusion_homogeneous,
    preset_diffusion_multimode,
    preset_diffusion_single_mode,
    preset_gaussian_ic,
    preset_mobility,
    preset_mobility_unit,
    preset_potential,
    preset_potential_quadratic,
    run,
)
from fpflow.grid import adjacent_cell_values, embed_interior_faces, face_divergence
from fpflow.params import (
    _DIFFUSIONS,
    _MOBILITIES,
    _POTENTIALS,
    ParameterSet,
    build_parameter_set,
    get_diffusion,
    get_initial_condition,
    get_mobility,
    get_potential,
)

FD_STEP = 1e-6
FD_TOL = 5e-8


def random_points(dim, n=40, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1.0, 1.0, size=n) for _ in range(dim)]


def check_gradient(evaluate, gradient, coords, extra=()):
    """Central-difference validation of each analytic gradient component."""
    for d, g in enumerate(gradient):
        shifted_p = [c + (FD_STEP if e == d else 0.0) for e, c in enumerate(coords)]
        shifted_m = [c - (FD_STEP if e == d else 0.0) for e, c in enumerate(coords)]
        fd = (evaluate(*shifted_p, *extra) - evaluate(*shifted_m, *extra)) / (
            2.0 * FD_STEP
        )
        np.testing.assert_allclose(g(*coords, *extra), fd, rtol=1e-6, atol=FD_TOL)


# ----------------------------------------------------------------------
# Potentials
# ----------------------------------------------------------------------


def test_potential_1d_values():
    phi = preset_potential(1)
    assert phi.name == "phi1d:k2"
    x = np.array([0.0, 0.25, 0.5])
    np.testing.assert_allclose(
        phi.evaluate(x), 1.0 + 0.25 * np.sin(np.pi * x) ** 2, rtol=1e-14
    )
    np.testing.assert_allclose(
        phi.gradient[0](x), (np.pi / 4.0) * np.sin(2.0 * np.pi * x), rtol=1e-14
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_potential_gradient_matches_fd(dim):
    phi = preset_potential(dim)
    check_gradient(phi.evaluate, phi.gradient, random_points(dim))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_potential_hessian_matches_fd(dim):
    phi = preset_potential(dim)
    coords = random_points(dim, seed=1)
    for i in range(dim):
        check_gradient(phi.gradient[i], phi.hessian[i], coords)


@pytest.mark.parametrize("dim", [2, 3])
def test_potential_hessian_is_symmetric(dim):
    phi = preset_potential(dim)
    grid = build_grid(dim, 8, Boundary.PERIODIC)
    H = phi.hessian_on_grid(grid)
    assert H.shape == (dim, dim) + grid.shape
    for i in range(dim):
        for j in range(i + 1, dim):
            np.testing.assert_allclose(H[i, j], H[j, i], atol=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_quadratic_potential(dim):
    phi = preset_potential_quadratic(dim)
    coords = random_points(dim, seed=2)
    r2 = sum(c**2 for c in coords)
    np.testing.assert_allclose(phi.evaluate(*coords), 1.0 + 0.5 * r2, rtol=1e-14)
    check_gradient(phi.evaluate, phi.gradient, coords)
    grid = build_grid(dim, 6, Boundary.PERIODIC)
    H = phi.hessian_on_grid(grid)
    eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)
    np.testing.assert_allclose(H, np.broadcast_to(eye, H.shape), atol=1e-14)


def test_potential_without_hessian_raises():
    from fpflow import PotentialField

    phi = PotentialField(evaluate=lambda x: x, gradient=(lambda x: 1.0,))
    grid = build_grid(1, 4, Boundary.PERIODIC)
    with pytest.raises(ValueError, match="Hessian"):
        phi.hessian_on_grid(grid)


# ----------------------------------------------------------------------
# Diffusion
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_diffusion_homogeneous_is_one(dim):
    D = preset_diffusion_homogeneous(dim)
    coords = random_points(dim, seed=3)
    np.testing.assert_array_equal(D.evaluate(*coords), 1.0)
    for g in D.gradient:
        np.testing.assert_array_equal(g(*coords), 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_diffusion_single_mode(dim):
    D = preset_diffusion_single_mode(dim)
    coords = random_points(dim, seed=4)
    check_gradient(D.evaluate, D.gradient, coords)
    vals = D.evaluate(*coords)
    assert np.all(vals >= 0.5**dim - 1e-14)


def test_diffusion_single_mode_1d_touches_lower_bound():
    D = preset_diffusion_single_mode(1)
    assert D.evaluate(np.array([0.25]))[0] == pytest.approx(0.5, rel=1e-14)


def test_diffusion_multimode_value_and_count():
    # caps (3, 3) with the 2D strictly-increasing rule selects (1,2),(1,3),(2,3).
    D = preset_diffusion_multimode(2, (3, 3), amplitude=0.01)
    at_origin = D.evaluate(np.array([0.0]), np.array([0.0]))[0]
    assert at_origin == pytest.approx(1.0 + 0.01 * 2 * 3, rel=1e-14)
    coords = random_points(2, seed=5)
    assert np.all(D.evaluate(*coords) >= 1.0 - 1e-14)
    check_gradient(D.evaluate, D.gradient, coords)


@pytest.mark.parametrize(
    "dim, ref",
    [(1, "D:multi"), (2, "D:multi"), (3, "D:multi"), (3, "D:multi3d-coarse")],
    ids=["1", "2", "3", "3-coarse"],
)
def test_diffusion_multimode_default_selection(dim, ref):
    D = get_diffusion(ref, dim, 20)
    coords = random_points(dim, seed=6)
    assert np.all(D.evaluate(*coords) >= 1.0 - 1e-14)
    check_gradient(D.evaluate, D.gradient, coords)


def test_diffusion_multimode_validation():
    with pytest.raises(ValueError):
        preset_diffusion_multimode(2, (3,))
    with pytest.raises(ValueError):
        preset_diffusion_multimode(1, (0,))
    with pytest.raises(ValueError):
        preset_diffusion_multimode(1, (2,), amplitude=0.0)
    with pytest.raises(ValueError, match="no active modes"):
        # cap 1 leaves no strictly increasing pair
        preset_diffusion_multimode(2, (1, 1))


@pytest.mark.parametrize("n_cells", [2, 4, 6, 7])
def test_2d_multimode_preset_names_its_minimum_grid(n_cells):
    # Caps (n/2, n/4) with the rule m1 < m2 select no mode below 8 cells.
    with pytest.raises(
        ValueError, match=rf"^'D:multi' in 2D needs n_cells >= 8 .*, got n_cells={n_cells}$"
    ):
        build_parameter_set(2, "D:multi", n_cells)
    build_parameter_set(2, "D:multi", 8)


# ----------------------------------------------------------------------
# Mobility
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mobility_gradient_and_time_derivative_match_fd(dim):
    pi = preset_mobility(dim)
    coords = random_points(dim, seed=7)
    for t in (0.0, 0.171, 1.3):
        check_gradient(pi.evaluate, pi.gradient, coords, extra=(t,))
        fd = (pi.evaluate(*coords, t + FD_STEP) - pi.evaluate(*coords, t - FD_STEP)) / (
            2.0 * FD_STEP
        )
        np.testing.assert_allclose(
            pi.time_derivative(*coords, t), fd, rtol=1e-6, atol=FD_TOL
        )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mobility_positive_and_bounded(dim):
    pi = preset_mobility(dim)
    coords = random_points(dim, seed=8)
    for t in np.linspace(0.0, 2.0, 9):
        vals = pi.evaluate(*coords, t)
        assert np.all(vals >= 1.0 / (1.5 * 2.0**dim) - 1e-14)
        assert np.all(vals <= 1.0 / (0.5 * 1.0) + 1e-14)  # time factor >= 1/2


def test_mobility_1d_values():
    pi = preset_mobility(1)
    # At the origin the spatial factor is 2 and at t=0 the time factor is 1.
    assert pi.evaluate(np.array([0.0]), 0.0)[0] == pytest.approx(0.5, rel=1e-14)
    assert pi.evaluate(np.array([0.5]), 0.0)[0] == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mobility_unit(dim):
    pi = preset_mobility_unit(dim)
    coords = random_points(dim, seed=9)
    np.testing.assert_array_equal(pi.evaluate(*coords, 0.7), 1.0)
    np.testing.assert_array_equal(pi.time_derivative(*coords, 0.7), 0.0)


def test_mobility_without_time_derivative_raises():
    from fpflow import MobilityField

    pi = MobilityField(
        evaluate=lambda x, t: np.ones_like(x),
        gradient=(lambda x, t: np.zeros_like(x),),
    )
    grid = build_grid(1, 4, Boundary.PERIODIC)
    with pytest.raises(ValueError, match="time-derivative"):
        pi.time_derivative_on_grid(grid, 0.0)


# ----------------------------------------------------------------------
# Even symmetry of the bundled coefficients
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_preset_coefficients_are_even(dim):
    """phi, D and pi are even in every coordinate on the cell-center grid."""
    grid = build_grid(dim, 10, Boundary.PERIODIC)
    pset = ParameterSet(
        potential=get_potential("phi:standard", dim, grid.n_cells),
        diffusion=get_diffusion("D:multi", dim, grid.n_cells),
        mobility=get_mobility("pi:standard", dim, grid.n_cells),
    )
    arrays = [
        pset.potential.on_grid(grid),
        pset.diffusion.on_grid(grid),
        pset.mobility.on_grid(grid, 0.53),
    ]
    for arr in arrays:
        for axis in range(dim):
            np.testing.assert_allclose(arr, np.flip(arr, axis=axis), rtol=1e-13)


# ----------------------------------------------------------------------
# Discretization: coefficients evaluated once per (grid, parameter set)
# ----------------------------------------------------------------------


def counting(pset):
    """A copy of pset whose evaluators record the arguments of every call."""
    calls = {"potential": [], "diffusion": [], "mobility": []}

    def wrap(kind, evaluate):
        def counted(*args):
            calls[kind].append(args)
            return evaluate(*args)

        return counted

    fields = {
        kind: replace(getattr(pset, kind), evaluate=wrap(kind, getattr(pset, kind).evaluate))
        for kind in calls
    }
    return ParameterSet(**fields, name=pset.name), calls


def test_run_evaluates_static_coefficients_once_and_mobility_once_per_step_and_row():
    # One mobility evaluation per Newton step, at its new time, and one per
    # recorded trace row (the dissipation's); none is kept between them.
    grid = build_grid(1, 32, Boundary.PERIODIC)
    pset, calls = counting(build_parameter_set(1, "D:single", 32))
    f0 = preset_gaussian_ic(1, variance=0.05).build(grid)
    config = SolverConfig(t_final=0.5, n_steps=20)
    run(f0, pset, config)
    assert len(calls["potential"]) == 1
    assert len(calls["diffusion"]) == 1
    dt = config.t_final / config.n_steps
    steps = [k * dt for k in range(1, 21)]
    rows = [k * dt for k in range(0, 21)]
    assert sorted(args[-1] for args in calls["mobility"]) == sorted(steps + rows)


def test_linear_operator_evaluates_static_coefficients_once():
    grid = build_grid(1, 32, Boundary.PERIODIC)
    pset, calls = counting(build_parameter_set(1, "D:homogeneous", 32, mobility_ref="pi:unit"))
    build_linear_operator(pset, grid)
    assert len(calls["potential"]) == 1
    assert len(calls["diffusion"]) == 1
    # The unit-mobility probe at 0.0 and 0.37, then one evaluation at 0.0
    # per flux probe.
    times = [args[-1] for args in calls["mobility"]]
    assert times[:2] == [0.0, 0.37] and set(times[2:]) == {0.0}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_cells", [2, 3, 5])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_face_list_divergence_matches_the_grid_divergence(dim, n_cells, boundary):
    # A 2-cell periodic axis lists the same cell pair twice.
    grid = build_grid(dim, n_cells, boundary)
    disc = build_parameter_set(dim, "D:single", n_cells).discretize(grid)
    J = np.random.default_rng(n_cells).uniform(-1.0, 1.0, disc.l_idx.shape)
    div = disc.divergence(J)
    expected = face_divergence(disc.face_field(J))
    assert div.shape == grid.shape
    ulp = np.finfo(float).eps * np.max(np.abs(J)) / grid.h
    if dim == 1:
        np.testing.assert_array_equal(div, expected)
    else:
        np.testing.assert_allclose(div, expected, rtol=0.0, atol=4 * dim * ulp)
    assert abs(np.sum(div)) <= 4 * dim * grid.n_total * ulp


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_cells", [2, 3, 5])
@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_face_field_lays_out_the_face_list_per_axis(dim, n_cells, boundary):
    # Right-minus-left differences on the face list land where the per-axis
    # pairing of adjacent_cell_values puts them.
    grid = build_grid(dim, n_cells, boundary)
    disc = build_parameter_set(dim, "D:single", n_cells).discretize(grid)
    values = np.random.default_rng(n_cells).uniform(size=grid.shape)
    flat = values.ravel()
    field = disc.face_field(flat[disc.r_idx] - flat[disc.l_idx])
    for axis in range(dim):
        left, right = adjacent_cell_values(values, axis, boundary)
        np.testing.assert_array_equal(
            field.components[axis], embed_interior_faces(right - left, grid, axis)
        )


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.NOFLUX])
def test_discretization_is_memoized_and_read_only(boundary):
    pset = build_parameter_set(2, "D:single", 6)
    disc = pset.discretize(build_grid(2, 6, boundary))
    assert pset.discretize(build_grid(2, 6, boundary)) is disc
    # One flat entry per interior face: 2 axes x 6 lines x 6 or 5 faces.
    n_faces = 2 * 6 * (6 if boundary is Boundary.PERIODIC else 5)
    faces = [disc.dphi, disc.dD, disc.Dbar, disc.l_idx, disc.r_idx]
    assert all(arr.shape == (n_faces,) for arr in [*faces, disc.face_mean(disc.pi(0.3))])
    for arr in [disc.phi, disc.D, disc.pi(0.3), *faces]:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    # No reference cycle: the memo goes with its parameter set, at once.
    alive = weakref.ref(disc)
    del pset, disc
    assert alive() is None


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_discretization_decides_linearity_unit_mobility_and_krylov(dim):
    grid = build_grid(dim, 8, Boundary.NOFLUX)
    for diffusion, mobility, linear, unit in [
        ("D:homogeneous", "pi:unit", True, True),
        ("D:homogeneous", "pi:standard", True, False),
        ("D:single", "pi:unit", False, True),
    ]:
        disc = build_parameter_set(dim, diffusion, 8, mobility_ref=mobility).discretize(grid)
        assert (disc.linear, disc.unit_mobility(), disc.krylov) == (linear, unit, dim == 3)
        assert disc.jacobian(disc.dD, disc.dD, 1.0).format == ("csr" if disc.krylov else "csc")


def test_discretized_parameter_set_keeps_equality_hash_and_repr():
    a = build_parameter_set(1, "D:single", 16)
    b = ParameterSet(a.potential, a.diffusion, a.mobility, name=a.name)
    before = repr(a)
    a.discretize(build_grid(1, 16, Boundary.PERIODIC))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == before == repr(b)


# ----------------------------------------------------------------------
# Initial conditions
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_ic_unit_mass_and_positive(dim):
    grid = build_grid(dim, 16, Boundary.NOFLUX)
    f0 = preset_gaussian_ic(dim, variance=0.05).build(grid)
    assert integrate(f0) == pytest.approx(1.0, abs=1e-14)
    assert np.all(f0.values > 0.0)
    for axis in range(dim):
        np.testing.assert_allclose(
            f0.values, np.flip(f0.values, axis=axis), rtol=1e-12
        )


def test_gaussian_ic_variance_matches_request():
    grid = build_grid(1, 200, Boundary.PERIODIC)
    f0 = preset_gaussian_ic(1, variance=0.01).build(grid)
    x = grid.centers_1d()
    second_moment = grid.cell_volume * float(np.sum(x**2 * f0.values))
    assert second_moment == pytest.approx(0.01, rel=0.02)


def test_gaussian_ic_floor_lifts_tail():
    grid = build_grid(1, 200, Boundary.PERIODIC)
    raw = preset_gaussian_ic(1, variance=0.01).build(grid)
    floored = preset_gaussian_ic(1, variance=0.01, floor_rel=1e-10).build(grid)
    # exp(-1 / (2 * 0.01)) at the domain edge: far below any useful floor
    assert raw.values.min() < 1e-20 * raw.values.max()
    ratio = floored.values.min() / floored.values.max()
    assert ratio == pytest.approx(1e-10, rel=1e-12)
    assert integrate(floored) == pytest.approx(1.0, abs=1e-14)


def test_gaussian_ic_validation():
    with pytest.raises(ValueError):
        preset_gaussian_ic(1, variance=0.0)
    with pytest.raises(ValueError, match="finite"):
        preset_gaussian_ic(1, variance=float("nan"))
    with pytest.raises(ValueError):
        preset_gaussian_ic(1, floor_rel=-0.1)
    with pytest.raises(ValueError):
        preset_gaussian_ic(1, floor_rel=1.0)
    grid = build_grid(2, 8, Boundary.PERIODIC)
    with pytest.raises(ValueError, match="grid"):
        preset_gaussian_ic(1).build(grid)
    # Positive and finite, but every cell value underflows to zero.
    with pytest.raises(ValueError, match="not resolvable"):
        preset_gaussian_ic(2, variance=1e-300).build(grid)


def test_gaussian_ic_names():
    assert preset_gaussian_ic(1).name == "ic:gauss-v0.01"
    assert preset_gaussian_ic(2, variance=0.08, floor_rel=1e-10).name == (
        "ic:gauss-reg-v0.08"
    )


def test_equilibrium_ic_matches_equilibrium_state():
    from fpflow import equilibrium_state

    for dim, n_cells in ((1, 32), (2, 12), (3, 6)):
        grid = build_grid(dim, n_cells, Boundary.PERIODIC)
        pset = build_parameter_set(dim, "D:single", n_cells)
        ic = get_initial_condition("ic:eq", dim, pset)
        assert ic.name == "ic:eq"
        np.testing.assert_array_equal(
            ic.build(grid).values, equilibrium_state(pset, grid).density.values
        )


def test_equilibrium_ic_needs_the_parameter_set():
    with pytest.raises(ValueError, match="'ic:eq' needs the parameter set"):
        get_initial_condition("ic:eq", 1)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_registry_resolves_known_names():
    assert get_potential("phi:standard", 2, 40).name == "phi2d:k12"
    assert get_potential("phi:quad", 3, 20).name == "phi3d:quad"
    assert get_diffusion("D:homogeneous", 1, 100).name == "D:homogeneous"
    assert get_diffusion("D:multi", 1, 100).name == "D:multi1d50"
    assert get_diffusion("D:multi", 2, 40).name == "D:multi2d20x10"
    assert get_mobility("pi:unit", 1).name == "pi:unit"


def test_registry_unknown_names_raise_with_candidates():
    with pytest.raises(PresetNotFound, match="phi:nope"):
        get_potential("phi:nope", 1, 10)
    with pytest.raises(PresetNotFound, match="known:"):
        get_diffusion("D:nope", 1, 10)
    with pytest.raises(PresetNotFound):
        get_mobility("pi:nope", 1)
    with pytest.raises(PresetNotFound):
        get_initial_condition("ic:nope", 1)
    assert issubclass(PresetNotFound, KeyError)


def test_registry_dimension_guards():
    with pytest.raises(ValueError, match="3D only"):
        get_diffusion("D:multi3d-coarse", 2, 10)


def test_initial_condition_references():
    assert get_initial_condition("ic:gauss", 1).name == "ic:gauss-v0.01"
    assert get_initial_condition("ic:gauss-v0.05", 1).name == "ic:gauss-v0.05"
    assert get_initial_condition("ic:gauss-reg", 2).name == "ic:gauss-reg-v0.01"
    assert get_initial_condition("ic:gauss-reg-v0.08", 3).name == "ic:gauss-reg-v0.08"
    pset = build_parameter_set(1, "D:homogeneous", 16)
    assert get_initial_condition("ic:eq", 1, pset).name == "ic:eq"


def _known_names(resolve):
    with pytest.raises(PresetNotFound) as exc:
        resolve("nope")
    return set(str(exc.value.args[0]).split("; known: ")[1].split(", "))


def test_preset_not_found_lists_every_registered_name():
    for resolve, table in (
        (lambda name: get_potential(name, 1, 8), _POTENTIALS),
        (lambda name: get_diffusion(name, 1, 8), _DIFFUSIONS),
        (lambda name: get_mobility(name, 1, 8), _MOBILITIES),
    ):
        assert _known_names(resolve) == set(table)
    # Initial conditions are parsed, not tabled: every listed pattern resolves.
    ic_names = _known_names(lambda name: get_initial_condition(name, 1))
    assert ic_names == {
        "ic:gauss", "ic:gauss-reg", "ic:gauss-v<var>", "ic:gauss-reg-v<var>", "ic:eq"
    }
    pset = build_parameter_set(1, "D:homogeneous", 8)
    for name in ic_names:
        ic = get_initial_condition(name.replace("<var>", "0.05"), 1, pset)
        assert ic.build(build_grid(1, 8, Boundary.PERIODIC)).values.min() > 0.0
