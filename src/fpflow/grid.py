"""Uniform cell-centered tensor-product grids on the box [-1, 1]^n.

The grid is the common substrate for every field in the package: cell
averages live in :class:`ScalarField`, face-normal quantities (fluxes,
velocities, gradients) live in :class:`FaceField`.

Face indexing convention
------------------------
For a grid with N cells per dimension (spacing h = 2/N):

* ``Periodic``: along each axis there are exactly N distinct faces.  The
  face array has the same shape as the cell array, and entry ``k`` along
  the axis is the face *below* cell ``k``, i.e. the face shared by cells
  ``k-1 (mod N)`` and ``k``.  Entry 0 is the wrap face at x = -1 == +1.
* ``NoFlux``: along each axis there are N+1 faces (two of them on the
  domain boundary).  Entry ``k`` is the face between cells ``k-1`` and
  ``k`` for 1 <= k <= N-1; entries 0 and N are the boundary faces and are
  identically zero for any flux-like quantity.

With this convention the discrete divergence of a face field J at cell k
is ``(J[upper face] - J[lower face]) / h`` summed over axes, and it
telescopes exactly: summing over all cells leaves only boundary terms,
which vanish under both topologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np


class Boundary(Enum):
    """Face topology of the box: periodic wrap or zero-flux walls."""

    PERIODIC = "periodic"
    NOFLUX = "noflux"


@dataclass(frozen=True)
class TensorGrid:
    """Uniform cell-centered grid on [-1, 1]^dim with N cells per axis."""

    dim: int
    n_cells: int
    boundary: Boundary

    def __post_init__(self) -> None:
        if not isinstance(self.dim, Integral) or self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim!r}")
        if not isinstance(self.n_cells, Integral) or self.n_cells < 2:
            raise ValueError(f"n_cells must be an integer >= 2, got {self.n_cells!r}")
        if not isinstance(self.boundary, Boundary):
            raise TypeError("boundary must be a Boundary enum member")

    @property
    def h(self) -> float:
        """Cell spacing, identical in every dimension."""
        return 2.0 / self.n_cells

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_cells,) * self.dim

    @property
    def n_total(self) -> int:
        return self.n_cells**self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def centers_1d(self) -> np.ndarray:
        """Cell-center coordinates along one axis: x_i = -1 + (i + 1/2) h."""
        return -1.0 + (np.arange(self.n_cells) + 0.5) * self.h

    def center_mesh(self) -> tuple[np.ndarray, ...]:
        """Sparse meshgrid of cell centers, one broadcastable array per axis."""
        x = self.centers_1d()
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij", sparse=True))

    def face_shape(self, axis: int) -> tuple[int, ...]:
        """Shape of the face-normal array along ``axis`` (see module docstring)."""
        shape = list(self.shape)
        if self.boundary is Boundary.NOFLUX:
            shape[axis] += 1
        return tuple(shape)


@dataclass(frozen=True)
class ScalarField:
    """One real cell-average value per cell of a :class:`TensorGrid`."""

    grid: TensorGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("ScalarField values must all be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.grid, values)


@dataclass(frozen=True)
class FaceField:
    """One face-normal value per face, stored as one array per axis."""

    grid: TensorGrid
    components: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.grid.dim:
            raise ValueError(
                f"expected {self.grid.dim} component arrays, got {len(self.components)}"
            )
        comps = []
        for axis, comp in enumerate(self.components):
            comp = np.asarray(comp, dtype=float)
            want = self.grid.face_shape(axis)
            if comp.shape != want:
                raise ValueError(
                    f"component {axis} has shape {comp.shape}, expected {want}"
                )
            if self.grid.boundary is Boundary.NOFLUX:
                lo = comp[_axis_slice(self.grid.dim, axis, 0)]
                hi = comp[_axis_slice(self.grid.dim, axis, -1)]
                if np.any(lo != 0.0) or np.any(hi != 0.0):
                    raise ValueError(
                        "no-flux boundary faces must carry identically zero values"
                    )
            comp = comp.copy()
            comp.flags.writeable = False
            comps.append(comp)
        object.__setattr__(self, "components", tuple(comps))

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(c))) for c in self.components)


def _axis_slice(ndim: int, axis: int, index) -> tuple:
    """Index tuple selecting ``index`` along ``axis`` and everything else."""
    sl: list = [slice(None)] * ndim
    sl[axis] = index
    return tuple(sl)


def build_grid(dim: int, n_cells: int, boundary: Boundary) -> TensorGrid:
    """Construct a uniform cell-centered grid on [-1, 1]^dim."""
    return TensorGrid(dim=dim, n_cells=n_cells, boundary=boundary)


def integrate(field: ScalarField) -> float:
    """Discrete integral over the box: h^dim times the sum of cell values."""
    return field.grid.cell_volume * float(np.sum(field.values))


def adjacent_cell_values(
    values: np.ndarray, axis: int, boundary: Boundary
) -> tuple[np.ndarray, np.ndarray]:
    """Cell values (left, right) adjacent to each non-boundary face along ``axis``.

    Periodic: N faces per line, face k pairs cells (k-1 mod N, k).
    NoFlux:   the N-1 interior faces only; boundary faces carry no pair.
    """
    if boundary is Boundary.PERIODIC:
        return np.roll(values, 1, axis=axis), values
    ndim = values.ndim
    return (
        values[_axis_slice(ndim, axis, slice(None, -1))],
        values[_axis_slice(ndim, axis, slice(1, None))],
    )


def embed_interior_faces(
    interior: np.ndarray, grid: TensorGrid, axis: int
) -> np.ndarray:
    """Place per-face values into the full face array for ``axis``.

    For periodic grids the input already covers every face.  For no-flux
    grids the input covers the N-1 interior faces and the two boundary
    faces are set to zero.
    """
    if grid.boundary is Boundary.PERIODIC:
        return np.asarray(interior, dtype=float)
    full = np.zeros(grid.face_shape(axis))
    full[_axis_slice(grid.dim, axis, slice(1, -1))] = interior
    return full


def face_gradient(field: ScalarField) -> FaceField:
    """Two-point difference (right - left)/h on every face.

    Periodic faces wrap; no-flux boundary faces are defined to be zero
    (zero normal derivative, consistent with equilibrium-compatible walls).
    """
    grid = field.grid
    comps = []
    for axis in range(grid.dim):
        left, right = adjacent_cell_values(field.values, axis, grid.boundary)
        comps.append(embed_interior_faces((right - left) / grid.h, grid, axis))
    return FaceField(grid, tuple(comps))


def face_divergence(flux: FaceField) -> np.ndarray:
    """Cell-wise divergence of a face field: sum_d (J_upper - J_lower)/h.

    It differences each axis's face array on its own, apart from the
    :class:`~fpflow.params.Discretization`'s face list, and so serves as
    the reference that list's divergence is tested against.
    """
    grid = flux.grid
    out = np.zeros(grid.shape)
    for axis, comp in enumerate(flux.components):
        if grid.boundary is Boundary.PERIODIC:
            lo, hi = comp, np.roll(comp, -1, axis=axis)
        else:
            lo, hi = adjacent_cell_values(comp, axis, Boundary.NOFLUX)
        out += (hi - lo) / grid.h
    return out
