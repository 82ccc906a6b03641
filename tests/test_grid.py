"""Grid, field containers, and the face-based calculus.

The face-indexing convention is the load-bearing contract here: divergence
must telescope exactly (mass conservation relies on it) and the discrete
divergence must be the negative adjoint of the face gradient (energy
dissipation relies on that).  Both are checked for every dim/boundary
combination on randomized data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpflow import (
    Boundary,
    FaceField,
    ScalarField,
    build_grid,
    face_divergence,
    face_gradient,
    integrate,
)
from fpflow.grid import adjacent_cell_values, embed_interior_faces
from fpflow.params import build_parameter_set

ALL_BOUNDARIES = (Boundary.PERIODIC, Boundary.NOFLUX)


def random_face_field(grid, rng) -> FaceField:
    comps = []
    for axis in range(grid.dim):
        comp = rng.standard_normal(grid.face_shape(axis))
        if grid.boundary is Boundary.NOFLUX:
            sl = [slice(None)] * grid.dim
            sl[axis] = 0
            comp[tuple(sl)] = 0.0
            sl[axis] = -1
            comp[tuple(sl)] = 0.0
        comps.append(comp)
    return FaceField(grid, tuple(comps))


# ----------------------------------------------------------------------
# Geometry
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_cells", [2, 5, 16])
def test_grid_geometry(dim, n_cells):
    grid = build_grid(dim, n_cells, Boundary.PERIODIC)
    assert grid.h == pytest.approx(2.0 / n_cells)
    assert grid.shape == (n_cells,) * dim
    assert grid.n_total == n_cells**dim
    assert grid.cell_volume == pytest.approx(grid.h**dim)
    x = grid.centers_1d()
    assert x[0] == pytest.approx(-1.0 + grid.h / 2)
    assert x[-1] == pytest.approx(1.0 - grid.h / 2)
    # Centers are symmetric about the origin.
    np.testing.assert_allclose(x + x[::-1], 0.0, atol=1e-15)
    mesh = grid.center_mesh()
    assert len(mesh) == dim
    assert np.broadcast_shapes(*(m.shape for m in mesh)) == grid.shape


@pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
def test_face_shape_convention(boundary):
    grid = build_grid(2, 8, boundary)
    extra = 1 if boundary is Boundary.NOFLUX else 0
    assert grid.face_shape(0) == (8 + extra, 8)
    assert grid.face_shape(1) == (8, 8 + extra)


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(4, 8, Boundary.PERIODIC)
    with pytest.raises(ValueError):
        build_grid(0, 8, Boundary.PERIODIC)
    with pytest.raises(ValueError):
        build_grid(1, 1, Boundary.PERIODIC)
    with pytest.raises(ValueError, match="dim"):
        build_grid(2.0, 8, Boundary.PERIODIC)
    with pytest.raises(ValueError, match="n_cells"):
        build_grid(1, 2.5, Boundary.PERIODIC)
    with pytest.raises(ValueError, match="n_cells"):
        build_grid(1, 8.0, Boundary.PERIODIC)
    with pytest.raises(TypeError):
        build_grid(1, 8, "periodic")
    assert build_grid(np.int64(2), np.int32(8), Boundary.PERIODIC).shape == (8, 8)


# ----------------------------------------------------------------------
# Field containers
# ----------------------------------------------------------------------


def test_scalar_field_validation_and_immutability():
    grid = build_grid(2, 4, Boundary.PERIODIC)
    field = ScalarField(grid, np.ones(grid.shape))
    with pytest.raises(ValueError):
        field.values[0, 0] = 2.0
    with pytest.raises(ValueError):
        ScalarField(grid, np.ones((4, 5)))
    bad = np.ones(grid.shape)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        ScalarField(grid, bad)
    replaced = field.with_values(2.0 * np.ones(grid.shape))
    assert replaced.values[0, 0] == 2.0
    assert field.values[0, 0] == 1.0


def test_scalar_field_does_not_alias_input():
    grid = build_grid(1, 4, Boundary.PERIODIC)
    raw = np.ones(4)
    field = ScalarField(grid, raw)
    raw[0] = 99.0
    assert field.values[0] == 1.0


def test_face_field_validation():
    grid = build_grid(2, 4, Boundary.NOFLUX)
    good = [np.zeros(grid.face_shape(axis)) for axis in range(2)]
    FaceField(grid, tuple(good))
    with pytest.raises(ValueError):
        FaceField(grid, (good[0],))
    with pytest.raises(ValueError):
        FaceField(grid, (good[0], np.zeros((4, 4))))
    leaky = [c.copy() for c in good]
    leaky[0][0, 2] = 1.0  # nonzero value on a wall face
    with pytest.raises(ValueError):
        FaceField(grid, tuple(leaky))


def test_face_field_max_abs():
    grid = build_grid(1, 4, Boundary.PERIODIC)
    field = FaceField(grid, (np.array([0.0, -3.0, 1.0, 2.0]),))
    assert field.max_abs() == 3.0


# ----------------------------------------------------------------------
# Integration
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_integrate_constant(dim):
    grid = build_grid(dim, 6, Boundary.PERIODIC)
    field = ScalarField(grid, np.full(grid.shape, 0.25))
    assert integrate(field) == pytest.approx(0.25 * 2.0**dim, rel=1e-14)


@settings(deadline=None, max_examples=30)
@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8),
    a=st.floats(-10, 10),
    b=st.floats(-10, 10),
)
def test_integrate_is_linear(values, a, b):
    grid = build_grid(1, 8, Boundary.PERIODIC)
    v = np.asarray(values)
    w = v[::-1].copy()
    lhs = integrate(ScalarField(grid, a * v + b * w))
    rhs = a * integrate(ScalarField(grid, v)) + b * integrate(ScalarField(grid, w))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


# ----------------------------------------------------------------------
# Face pairing and embedding
# ----------------------------------------------------------------------


def test_adjacent_cell_values_periodic_pairs_wrap():
    values = np.arange(5.0)
    left, right = adjacent_cell_values(values, 0, Boundary.PERIODIC)
    # Face k sits below cell k: it pairs cells (k-1 mod N, k).
    np.testing.assert_array_equal(left, [4.0, 0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(right, values)


def test_adjacent_cell_values_noflux_interior_only():
    values = np.arange(5.0)
    left, right = adjacent_cell_values(values, 0, Boundary.NOFLUX)
    np.testing.assert_array_equal(left, [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(right, [1.0, 2.0, 3.0, 4.0])


def test_embed_interior_faces():
    grid_p = build_grid(1, 4, Boundary.PERIODIC)
    np.testing.assert_array_equal(
        embed_interior_faces(np.arange(4.0), grid_p, 0), np.arange(4.0)
    )
    grid_n = build_grid(1, 4, Boundary.NOFLUX)
    full = embed_interior_faces(np.arange(1.0, 4.0), grid_n, 0)
    np.testing.assert_array_equal(full, [0.0, 1.0, 2.0, 3.0, 0.0])


# ----------------------------------------------------------------------
# Gradient
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
def test_gradient_of_constant_vanishes(dim, boundary):
    grid = build_grid(dim, 5, boundary)
    grad = face_gradient(ScalarField(grid, np.full(grid.shape, 3.7)))
    assert grad.max_abs() == 0.0


def test_gradient_of_linear_noflux():
    grid = build_grid(1, 10, Boundary.NOFLUX)
    field = ScalarField(grid, 2.5 * grid.centers_1d())
    grad = face_gradient(field)
    np.testing.assert_allclose(grad.components[0][1:-1], 2.5, rtol=1e-13)
    assert grad.components[0][0] == 0.0
    assert grad.components[0][-1] == 0.0


def test_gradient_of_linear_periodic_wrap_face():
    grid = build_grid(1, 10, Boundary.PERIODIC)
    field = ScalarField(grid, grid.centers_1d())
    grad = face_gradient(field)
    np.testing.assert_allclose(grad.components[0][1:], 1.0, rtol=1e-13)
    # The wrap face sees the full jump across the seam.
    expected_wrap = (grid.centers_1d()[0] - grid.centers_1d()[-1]) / grid.h
    assert grad.components[0][0] == pytest.approx(expected_wrap, rel=1e-13)


@pytest.mark.parametrize("n_cells", [16, 32, 64])
def test_gradient_second_order_on_smooth_field(n_cells):
    # Two-point face differences of cell-center samples of sin(pi x) equal
    # the face-point derivative up to O(h^2).
    grid = build_grid(1, n_cells, Boundary.PERIODIC)
    x = grid.centers_1d()
    grad = face_gradient(ScalarField(grid, np.sin(np.pi * x)))
    faces = x - grid.h / 2
    exact = np.pi * np.cos(np.pi * faces)
    err = np.max(np.abs(grad.components[0] - exact))
    assert err < 1.1 * (np.pi**3 / 24) * grid.h**2


# ----------------------------------------------------------------------
# Divergence: telescoping and adjointness
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
def test_divergence_telescopes_to_zero(dim, boundary):
    grid = build_grid(dim, 6, boundary)
    rng = np.random.default_rng(42 + dim)
    flux = random_face_field(grid, rng)
    total = integrate(ScalarField(grid, face_divergence(flux)))
    assert abs(total) < 1e-13 * max(1.0, flux.max_abs())


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
def test_divergence_is_negative_adjoint_of_gradient(dim, boundary):
    # sum_cells div(J) phi h^dim == -sum_faces J . grad(phi) h^dim
    grid = build_grid(dim, 5, boundary)
    rng = np.random.default_rng(7 * dim)
    flux = random_face_field(grid, rng)
    phi = ScalarField(grid, rng.standard_normal(grid.shape))
    lhs = grid.cell_volume * float(np.sum(face_divergence(flux) * phi.values))
    grad = face_gradient(phi)
    rhs = -grid.cell_volume * sum(
        float(np.sum(flux.components[axis] * grad.components[axis]))
        for axis in range(dim)
    )
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_divergence_of_uniform_periodic_flux_vanishes():
    grid = build_grid(2, 6, Boundary.PERIODIC)
    flux = FaceField(grid, (np.full(grid.shape, 1.3), np.full(grid.shape, -0.4)))
    np.testing.assert_allclose(face_divergence(flux), 0.0, atol=1e-15)


# ----------------------------------------------------------------------
# Face-to-cell reductions
# ----------------------------------------------------------------------


def face_list_values(dim, n_cells, boundary, seed):
    """A Discretization on a fresh grid and random values on its face list."""
    grid = build_grid(dim, n_cells, boundary)
    disc = build_parameter_set(dim, "D:single", n_cells).discretize(grid)
    return disc, np.random.default_rng(seed).standard_normal(disc.l_idx.shape)


@pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
def test_face_to_cell_reductions(boundary):
    # Each cell's lower and upper face of an axis, bit for bit as per-axis
    # slices of the face array give them; a 2-cell periodic axis lists the
    # same cell pair twice, once as each cell's lower face.
    for dim in (1, 2, 3):
        for n_cells in (2, 3, 5):
            disc, values = face_list_values(dim, n_cells, boundary, 3 + n_cells)
            field = disc.face_field(values)
            for axis in range(dim):
                comp = field.components[axis]
                if boundary is Boundary.PERIODIC:
                    lo, hi = comp, np.roll(comp, -1, axis=axis)
                else:
                    lo, hi = adjacent_cell_values(comp, axis, Boundary.NOFLUX)
                lower, upper = disc.cell_faces(values, axis)
                np.testing.assert_array_equal(lower, lo)
                np.testing.assert_array_equal(upper, hi)


def test_mean_square_dominates_square_of_mean():
    for dim in (1, 2, 3):
        for boundary in ALL_BOUNDARIES:
            disc, values = face_list_values(dim, 5, boundary, 11)
            for axis in range(dim):
                lo, hi = disc.cell_faces(values, axis)
                assert np.all(0.5 * (lo**2 + hi**2) >= (0.5 * (lo + hi)) ** 2 - 1e-15)
