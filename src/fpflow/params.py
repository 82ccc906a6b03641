"""Model data for the drift-diffusion problem: potential, diffusion, mobility.

Each field couples an analytic evaluator with its analytic gradient (and,
for the potential, an optional Hessian used by the second-derivative
diagnostics).  Evaluators take one coordinate array per dimension and
broadcast, so a sparse meshgrid evaluates a whole grid in one call; the
mobility additionally takes the time ``t`` as its last argument.

All grid discretizations are midpoint rules: a cell carries the value of
the analytic function at its center; :class:`Discretization` keeps them
with the grid's one list of interior faces.  The fields carry no bounds
of their own: the :class:`Discretization` checks every value it takes
(phi finite, D and pi positive and finite) on the grid, and keeps no
time-dependent state: the mobility is evaluated, and checked, at each
request.  The bounds each preset's docstring states are documentation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .grid import FaceField, ScalarField, TensorGrid, adjacent_cell_values, embed_interior_faces


def _full(grid: TensorGrid, arr) -> np.ndarray:
    """Broadcast an evaluator result to a full, writable grid-shaped array."""
    return np.broadcast_to(np.asarray(arr, dtype=float), grid.shape).copy()


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _checked(values: np.ndarray, what: str, positive: bool = True) -> np.ndarray:
    """Grid values made read-only once they are finite (and positive, if required)."""
    ok = np.isfinite(values)
    if positive:
        ok &= values > 0.0
    if not np.all(ok):
        raise ValueError(f"{what} must be {'positive and ' if positive else ''}finite on the grid")
    return _read_only(values)


@dataclass(frozen=True)
class PotentialField:
    """Confining potential phi(x) with analytic derivatives.

    ``evaluate(*coords)`` and each entry of the gradient/Hessian broadcast
    over coordinate arrays.
    """

    evaluate: Callable[..., np.ndarray]
    gradient: tuple[Callable[..., np.ndarray], ...]
    hessian: Optional[tuple[tuple[Callable[..., np.ndarray], ...], ...]] = None
    name: str = "potential"

    def on_grid(self, grid: TensorGrid) -> np.ndarray:
        return _full(grid, self.evaluate(*grid.center_mesh()))

    def gradient_on_grid(self, grid: TensorGrid) -> tuple[np.ndarray, ...]:
        coords = grid.center_mesh()
        return tuple(_full(grid, g(*coords)) for g in self.gradient)

    def hessian_on_grid(self, grid: TensorGrid) -> np.ndarray:
        """Hessian at cell centers, shape (dim, dim) + grid.shape."""
        if self.hessian is None:
            raise ValueError(f"potential {self.name!r} has no Hessian evaluator")
        coords = grid.center_mesh()
        out = np.empty((grid.dim, grid.dim) + grid.shape)
        for i in range(grid.dim):
            for j in range(grid.dim):
                out[i, j] = _full(grid, self.hessian[i][j](*coords))
        return out


@dataclass(frozen=True)
class DiffusionField:
    """Spatially varying diffusion D(x) > 0 with analytic gradient."""

    evaluate: Callable[..., np.ndarray]
    gradient: tuple[Callable[..., np.ndarray], ...]
    name: str = "diffusion"

    def on_grid(self, grid: TensorGrid) -> np.ndarray:
        return _full(grid, self.evaluate(*grid.center_mesh()))

    def gradient_on_grid(self, grid: TensorGrid) -> tuple[np.ndarray, ...]:
        coords = grid.center_mesh()
        return tuple(_full(grid, g(*coords)) for g in self.gradient)


@dataclass(frozen=True)
class MobilityField:
    """Mobility pi(x, t) > 0; evaluators take coordinates then time.

    ``time_derivative`` is the analytic d(pi)/dt, read by every evaluation
    of the d^2F/dt^2 identity diagnostic, whatever its regime.
    """

    evaluate: Callable[..., np.ndarray]
    gradient: tuple[Callable[..., np.ndarray], ...]
    time_derivative: Optional[Callable[..., np.ndarray]] = None
    name: str = "mobility"

    def on_grid(self, grid: TensorGrid, t: float) -> np.ndarray:
        return _full(grid, self.evaluate(*grid.center_mesh(), t))

    def gradient_on_grid(self, grid: TensorGrid, t: float) -> tuple[np.ndarray, ...]:
        coords = grid.center_mesh()
        return tuple(_full(grid, g(*coords, t)) for g in self.gradient)

    def time_derivative_on_grid(self, grid: TensorGrid, t: float) -> np.ndarray:
        if self.time_derivative is None:
            raise ValueError(f"mobility {self.name!r} has no time-derivative evaluator")
        return _full(grid, self.time_derivative(*grid.center_mesh(), t))


@dataclass(frozen=True)
class ParameterSet:
    """The full coefficient triple defining one evolution problem."""

    potential: PotentialField
    diffusion: DiffusionField
    mobility: MobilityField
    name: str = "problem"
    _discretizations: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def discretize(self, grid: TensorGrid) -> "Discretization":
        """The coefficients discretized on ``grid``, built once and kept with self."""
        if grid not in self._discretizations:
            self._discretizations[grid] = Discretization(grid, self)
        return self._discretizations[grid]


class Discretization:
    """One parameter set's coefficients on one grid, unchanged once built.

    The one home of the discretization rule: cells carry the midpoint
    values phi, D and pi, and a face carries the arithmetic mean of D and
    of pi over its two cells.  The solver's flux and the diagnostics'
    velocity both read it here, which keeps the discrete equilibrium an
    exact fixed point with zero dissipation.  It lists every non-boundary
    face once, axis after axis, each as :func:`~fpflow.grid.adjacent_cell_values`
    pairs them: ``l_idx``, ``r_idx`` (flat cell indices), ``dphi``, ``dD``
    (right minus left) and ``Dbar`` are flat arrays over that list.

    The mobility is the one time-dependent coefficient and is not kept:
    :meth:`pi` evaluates it at each call, and :meth:`face_mean` takes the
    caller's cell values to the faces.  Nothing on the object changes
    after construction, so runs and threads share it freely.  It decides,
    exactly and for every consumer, whether the flux is ``linear`` in f
    (no face sees a change of D), whether the mobility is unit
    (:meth:`unit_mobility`) and whether the Newton systems are solved by
    ``krylov`` BiCGSTAB (3D) rather than SuperLU.  It builds the
    backward-Euler Newton Jacobian, the one place that does, in the layout
    that solve reads: CSR for BiCGSTAB, which only multiplies by it, CSC
    for SuperLU, which factors it.  The sparsity pattern is built once
    (``jac_indptr``, ``jac_indices``, sorted within each row or column)
    with the slots of the diagonal (``jac_diagonal``).  It is structurally
    symmetric, so these arrays read the same in either layout.
    :meth:`jacobian` fills it from the faces' flux derivatives by one
    mat-vec of a sparse assembly operator built with the pattern.
    """

    def __init__(self, grid: TensorGrid, params: ParameterSet):
        self.grid = grid
        self.mobility = params.mobility
        self.phi = _checked(params.potential.on_grid(grid), "potential", positive=False)
        self.D = _checked(params.diffusion.on_grid(grid), "diffusion")
        n = grid.n_total
        cells = np.arange(n)
        pairs = [adjacent_cell_values(cells.reshape(grid.shape), axis, grid.boundary)
                 for axis in range(grid.dim)]
        # Each axis's part of the face list and its per-axis shape.
        stops = np.cumsum([l_idx.size for l_idx, _ in pairs])
        self._axis_faces = tuple((slice(stop - l_idx.size, stop), l_idx.shape)
                                 for stop, (l_idx, _) in zip(stops, pairs))
        L = self.l_idx = _read_only(np.concatenate([l_idx.ravel() for l_idx, _ in pairs]))
        R = self.r_idx = _read_only(np.concatenate([r_idx.ravel() for _, r_idx in pairs]))
        phi, D = self.phi.ravel(), self.D.ravel()
        self.dphi = _read_only(phi[R] - phi[L])
        self.dD = _read_only(D[R] - D[L])
        self.Dbar = _read_only(self.face_mean(self.D))
        self.linear = not np.any(self.dD)
        self.krylov = grid.dim == 3
        # Jacobian COO entries: the diagonal, then (L, L), (L, R), (R, L),
        # (R, R) of every face, keyed row-major for Krylov (CSR) and
        # column-major otherwise (CSC).
        major, minor = (cells, L, L, R, R), (cells, L, R, L, R)
        self._jac_format = sp.csr_matrix
        if not self.krylov:
            major, minor, self._jac_format = minor, major, sp.csc_matrix
        keys = np.concatenate(major) * n + np.concatenate(minor)
        # One stable sort gives what np.unique(..., return_inverse=True)
        # gives, without that call's set-up transient in peak memory, and
        # lists each slot's entries in COO order.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.r_[True, keys[1:] != keys[:-1]]
        slot = np.empty_like(order)
        slot[order] = np.cumsum(first) - 1
        keys = keys[first]
        # scipy's index type where it fits, so the matrices built on the
        # pattern share these arrays instead of checking and copying them.
        index = np.int32 if order.size <= np.iinfo(np.int32).max else np.int64
        self.jac_indptr = _read_only(np.searchsorted(keys, np.arange(n + 1) * n).astype(index))
        self.jac_indices = _read_only((keys % n).astype(index))
        self.jac_diagonal = _read_only(slot[:n].copy())
        # Row k sums the entries of slot k, in COO order, from
        # x = (1, c dJ/df_L, c dJ/df_R): the diagonal's 1, then +x for the
        # face blocks (L, L), (L, R) and -x for (R, L), (R, R).
        n_faces = L.size
        entry = order - n
        cols = entry % (2 * n_faces) + 1
        cols[entry < 0] = 0
        self._jac_assembly = sp.csr_matrix(
            (np.where(entry < 2 * n_faces, 1.0, -1.0), cols.astype(index),
             np.r_[np.flatnonzero(first), order.size].astype(index)),
            shape=(keys.size, 1 + 2 * n_faces),
        )

    def divergence(self, face_values: np.ndarray) -> np.ndarray:
        """Cell-wise divergence of values on the face list: +J/h into L, -J/h into R."""
        n = self.grid.n_total
        net = np.bincount(self.l_idx, face_values, n) - np.bincount(self.r_idx, face_values, n)
        return (net / self.grid.h).reshape(self.grid.shape)

    def cell_faces(self, face_values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) face value of ``axis`` at each cell, 0 at a no-flux wall.

        A face of the axis is the lower face of its cell R and the upper
        face of its cell L, so each bin of the two ``np.bincount`` calls
        receives one term: the face value itself.
        """
        axis_faces, n = self._axis_faces[axis][0], self.grid.n_total
        values = face_values[axis_faces]
        lower = np.bincount(self.r_idx[axis_faces], values, n)
        upper = np.bincount(self.l_idx[axis_faces], values, n)
        return lower.reshape(self.grid.shape), upper.reshape(self.grid.shape)

    def face_field(self, face_values: np.ndarray) -> FaceField:
        """The :class:`~fpflow.grid.FaceField` of values on the face list."""
        return FaceField(self.grid, tuple(
            embed_interior_faces(face_values[axis_faces].reshape(shape), self.grid, axis)
            for axis, (axis_faces, shape) in enumerate(self._axis_faces)
        ))

    def face_mean(self, cell_values: np.ndarray) -> np.ndarray:
        """Arithmetic mean of cell values over each face's two cells, on the face list."""
        flat = cell_values.ravel()
        return 0.5 * (flat[self.l_idx] + flat[self.r_idx])

    def jacobian(self, dj_l: np.ndarray, dj_r: np.ndarray, c: float) -> sp.spmatrix:
        """I + c * d(div J)/df on ``jac_indptr`` and ``jac_indices``: CSR if ``krylov``, else CSC.

        ``dj_l`` and ``dj_r`` are the faces' dJ/df_L and dJ/df_R and ``c``
        is dt / h.  The face flux enters cell L's divergence with + and
        cell R's with -.  One mat-vec of the assembly operator adds each
        slot's entries from zero in COO order, which gives the bits of a
        COO-to-CSR or COO-to-CSC conversion.
        """
        n_faces = self.l_idx.size
        x = np.empty(1 + 2 * n_faces)
        x[0] = 1.0
        np.multiply(c, dj_l, out=x[1:1 + n_faces])
        np.multiply(c, dj_r, out=x[1 + n_faces:])
        return self._jac_format((self._jac_assembly @ x, self.jac_indices, self.jac_indptr),
                                shape=(self.grid.n_total,) * 2)

    def pi(self, t: float) -> np.ndarray:
        """Cell values of the mobility at time t, evaluated and checked at each call.

        A value that overflows (sin(10 t) of the standard mobility at t ~ 1e308)
        is reported by the check, not by a numpy warning.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.mobility.on_grid(self.grid, t)
        return _checked(values, f"mobility at t = {t}")

    def unit_mobility(self) -> bool:
        """Whether pi is exactly 1 in every cell at t = 0 and at the probe time 0.37."""
        return all(np.all(self.pi(t) == 1.0) for t in (0.0, 0.37))


@dataclass(frozen=True)
class InitialCondition:
    """Named recipe producing a positive ScalarField on a given grid."""

    name: str
    build: Callable[[TensorGrid], ScalarField] = field(repr=False)


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

def _product_rule(factor, dfactor, dim: int, ddfactor=None):
    """Evaluators of the separable product prod_d factor(d, x_d) and its derivatives.

    Returns ``(evaluate, gradient, hessian)``; ``hessian`` is None without
    ``ddfactor``.  ``evaluate`` multiplies the factors in axis order; a
    partial derivative starts from the differentiated factor(s) and then
    multiplies in the others in axis order.
    """

    def partial(lead, differentiated):
        def g(*coords):
            out = lead(coords)
            for e in range(dim):
                if e not in differentiated:
                    out = out * factor(e, coords[e])
            return out

        return g

    def second(i: int, j: int):
        if i == j:
            return lambda c: ddfactor(i, c[i])
        return lambda c: dfactor(i, c[i]) * dfactor(j, c[j])

    evaluate = partial(lambda c: factor(0, c[0]), (0,))
    gradient = tuple(partial(lambda c, d=d: dfactor(d, c[d]), (d,)) for d in range(dim))
    if ddfactor is None:
        return evaluate, gradient, None
    hessian = tuple(
        tuple(partial(second(i, j), (i, j)) for j in range(dim)) for i in range(dim)
    )
    return evaluate, gradient, hessian


def _tensor_potential(ks: Sequence[int], name: str) -> PotentialField:
    """Product well phi(x) = prod_d (1 + sin^2(k_d pi x_d / 2) / 4).

    Smooth, 2-periodic in each coordinate, even, and non-convex: the 1D
    factor has curvature (k pi)^2/8 * cos(k pi x) which changes sign.
    """
    ks = tuple(int(k) for k in ks)

    def factor(d: int, x):
        return 1.0 + 0.25 * np.sin(0.5 * ks[d] * np.pi * x) ** 2

    def dfactor(d: int, x):
        # d/dx [sin^2(k pi x/2)/4] = (k pi / 8) sin(k pi x)
        return (ks[d] * np.pi / 8.0) * np.sin(ks[d] * np.pi * x)

    def ddfactor(d: int, x):
        return (ks[d] * np.pi) ** 2 / 8.0 * np.cos(ks[d] * np.pi * x)

    evaluate, gradient, hessian = _product_rule(factor, dfactor, len(ks), ddfactor)
    return PotentialField(
        evaluate=evaluate,
        gradient=gradient,
        hessian=hessian,
        name=name,
    )


def preset_potential(dim: int) -> PotentialField:
    """Dimension-matched product well: k = (2,), (1, 2), (1, 2, 3)."""
    ks = {1: (2,), 2: (1, 2), 3: (1, 2, 3)}[dim]
    return _tensor_potential(ks, name=f"phi{dim}d:k" + "".join(map(str, ks)))


def preset_potential_quadratic(dim: int) -> PotentialField:
    """Convex well phi(x) = 1 + |x|^2 / 2, with convexity bound exactly 1."""
    dim = int(dim)

    def evaluate(*coords):
        out = 1.0 + 0.5 * coords[0] ** 2
        for c in coords[1:]:
            out = out + 0.5 * c**2
        return out

    def grad_component(d: int):
        def g(*coords):
            return np.asarray(coords[d], dtype=float) + np.zeros(np.broadcast(*coords).shape)

        return g

    def hess_component(i: int, j: int):
        def hcomp(*coords):
            shape = np.broadcast(*coords).shape
            return np.full(shape, 1.0) if i == j else np.zeros(shape)

        return hcomp

    return PotentialField(
        evaluate=evaluate,
        gradient=tuple(grad_component(d) for d in range(dim)),
        hessian=tuple(
            tuple(hess_component(i, j) for j in range(dim)) for i in range(dim)
        ),
        name=f"phi{dim}d:quad",
    )


def preset_diffusion_homogeneous(dim: int) -> DiffusionField:
    """Constant diffusion D = 1."""

    def evaluate(*coords):
        return np.ones(np.broadcast(*coords).shape)

    def zero(*coords):
        return np.zeros(np.broadcast(*coords).shape)

    return DiffusionField(
        evaluate=evaluate,
        gradient=(zero,) * dim,
        name="D:homogeneous",
    )


def preset_diffusion_single_mode(dim: int) -> DiffusionField:
    """Separable single-mode diffusion, one sine well per coordinate.

    1D: D(x) = 1 - sin^2(2 pi x)/2.  In 2D/3D each coordinate contributes
    a factor 1 - sin^2(m_d pi x_d)/2 with m = (1, 3) and (1, 3, 4).
    Each factor lies in [1/2, 1], so D >= 0.5^dim.
    """
    modes = {1: (2,), 2: (1, 3), 3: (1, 3, 4)}[dim]

    def factor(d: int, x):
        return 1.0 - 0.5 * np.sin(modes[d] * np.pi * x) ** 2

    def dfactor(d: int, x):
        # d/dx [-sin^2(m pi x)/2] = -(m pi / 2) sin(2 m pi x)
        return -(modes[d] * np.pi / 2.0) * np.sin(2.0 * modes[d] * np.pi * x)

    evaluate, gradient, _ = _product_rule(factor, dfactor, dim)
    return DiffusionField(
        evaluate=evaluate,
        gradient=gradient,
        name="D:single",
    )


def preset_diffusion_multimode(
    dim: int,
    mode_caps: Sequence[int],
    amplitude: float = 0.01,
) -> DiffusionField:
    """Oscillatory multi-mode diffusion built from half-frequency cosines.

    D(x) = 1 + sum_m A (prod_d cos(m_d pi x_d / 2) + 1) over the selected
    multi-indices 1 <= m_d <= mode_caps[d].  Each summand is nonnegative,
    so D >= 1 everywhere.  The dimension picks the active indices: all of
    them in 1D, m1 < m2 in 2D, m1 >= m2 >= m3 in 3D.
    """
    mode_caps = tuple(int(m) for m in mode_caps)
    if len(mode_caps) != dim:
        raise ValueError(f"need {dim} mode caps, got {len(mode_caps)}")
    if any(m < 1 for m in mode_caps):
        raise ValueError("mode caps must be positive integers")
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")

    ranges = [range(1, cap + 1) for cap in mode_caps]
    keep = {2: lambda m: m[0] < m[1], 3: lambda m: m[0] >= m[1] >= m[2]}
    selected = [m for m in itertools.product(*ranges) if keep.get(dim, lambda m: True)(m)]
    if not selected:
        raise ValueError("selection rule leaves no active modes")

    A = float(amplitude)
    modes = [
        _product_rule(
            lambda d, x, m=m: np.cos(0.5 * m[d] * np.pi * x),
            lambda d, x, m=m: -0.5 * m[d] * np.pi * np.sin(0.5 * m[d] * np.pi * x),
            dim,
        )
        for m in selected
    ]

    def evaluate(*coords):
        out = 1.0 + A * len(modes) + np.zeros(np.broadcast(*coords).shape)
        for mode, _, _ in modes:
            out = out + A * mode(*coords)
        return out

    def grad_component(d: int):
        def g(*coords):
            out = np.zeros(np.broadcast(*coords).shape)
            for _, mode_gradient, _ in modes:
                out = out + A * mode_gradient[d](*coords)
            return out

        return g

    return DiffusionField(
        evaluate=evaluate,
        gradient=tuple(grad_component(d) for d in range(dim)),
        name=f"D:multi{dim}d" + "x".join(str(c) for c in mode_caps),
    )


def preset_mobility(dim: int) -> MobilityField:
    """Oscillating mobility pi = 1/gamma with gamma a separable cosine profile.

    gamma(x, t) = (1 + 1/2 sin(10 t)) * prod_d (1 + cos^2(k_d pi x_d)) with
    k = (1,), (1, 2), (1, 2, 3).  The spatial factors range over [1, 2] and
    the time factor over [1/2, 3/2], so pi >= 1/(3/2 * 2^dim).
    """
    ks = {1: (1,), 2: (1, 2), 3: (1, 2, 3)}[dim]

    def spatial(*coords):
        out = 1.0 + np.cos(ks[0] * np.pi * coords[0]) ** 2
        for d in range(1, dim):
            out = out * (1.0 + np.cos(ks[d] * np.pi * coords[d]) ** 2)
        return out

    def evaluate(*coords_t):
        *coords, t = coords_t
        return 1.0 / (spatial(*coords) * (1.0 + 0.5 * np.sin(10.0 * t)))

    def grad_component(d: int):
        def g(*coords_t):
            *coords, t = coords_t
            pi_val = evaluate(*coords_t)
            # d(cos^2(k pi x))/dx = -k pi sin(2 k pi x); grad pi = -pi * d(log gamma)
            dlog = (
                -ks[d]
                * np.pi
                * np.sin(2.0 * ks[d] * np.pi * coords[d])
                / (1.0 + np.cos(ks[d] * np.pi * coords[d]) ** 2)
            )
            return -pi_val * dlog

        return g

    def time_derivative(*coords_t):
        *coords, t = coords_t
        pi_val = evaluate(*coords_t)
        return -pi_val * 5.0 * np.cos(10.0 * t) / (1.0 + 0.5 * np.sin(10.0 * t))

    return MobilityField(
        evaluate=evaluate,
        gradient=tuple(grad_component(d) for d in range(dim)),
        time_derivative=time_derivative,
        name="pi:standard",
    )


def preset_mobility_unit(dim: int) -> MobilityField:
    """Constant mobility pi = 1 (reduces the flux to pure drift-diffusion)."""

    def evaluate(*coords_t):
        *coords, _t = coords_t
        return np.ones(np.broadcast(*coords).shape)

    def zero(*coords_t):
        *coords, _t = coords_t
        return np.zeros(np.broadcast(*coords).shape)

    return MobilityField(
        evaluate=evaluate,
        gradient=(zero,) * dim,
        time_derivative=zero,
        name="pi:unit",
    )


def preset_gaussian_ic(
    dim: int, variance: float = 0.01, floor_rel: float = 0.0
) -> InitialCondition:
    """Centered isotropic Gaussian profile, renormalized to exact unit mass.

    Cell values are midpoint evaluations of the product density
    prod_d exp(-x_d^2 / (2 s^2)) / sqrt(2 pi s^2), then divided by their
    own discrete integral so that ``integrate`` returns 1 to round-off.

    A positive ``floor_rel`` lifts the tail to ``floor_rel * peak`` before
    the renormalization.  Coarse multidimensional grids need this: the raw
    tensor Gaussian steps across adjacent cells by factors of e^10 or more,
    and with an inhomogeneous diffusion coefficient such jumps put the
    implicit solver's Newton iteration outside its convergence basin.
    """
    if not 0.0 < variance < np.inf:
        raise ValueError(f"variance must be positive and finite, got {variance}")
    if floor_rel < 0.0 or floor_rel >= 1.0:
        raise ValueError("floor_rel must lie in [0, 1)")
    s2 = float(variance)

    def build(grid: TensorGrid) -> ScalarField:
        if grid.dim != dim:
            raise ValueError(f"initial condition is {dim}D but grid is {grid.dim}D")
        coords = grid.center_mesh()
        vals = np.exp(-coords[0] ** 2 / (2.0 * s2))
        for c in coords[1:]:
            vals = vals * np.exp(-(c**2) / (2.0 * s2))
        vals = _full(grid, vals / (2.0 * np.pi * s2) ** (dim / 2.0))
        if floor_rel > 0.0:
            vals = np.maximum(vals, floor_rel * vals.max())
        mass = grid.cell_volume * np.sum(vals)
        if not 0.0 < mass < np.inf:
            raise ValueError(
                f"variance {variance:g} is not resolvable on this grid (discrete mass {mass})"
            )
        vals /= mass
        return ScalarField(grid, vals)

    reg = "-reg" if floor_rel > 0.0 else ""
    return InitialCondition(name=f"ic:gauss{reg}-v{variance:g}", build=build)


def preset_equilibrium_ic(params: ParameterSet) -> InitialCondition:
    """Start exactly at the discrete equilibrium of ``params``."""

    def build(grid: TensorGrid) -> ScalarField:
        from .equilibrium import equilibrium_state

        return equilibrium_state(params, grid).density

    return InitialCondition(name="ic:eq", build=build)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class PresetNotFound(KeyError):
    """Raised when a preset reference does not resolve to a known name."""

    def __init__(self, kind: str, name: str, known: Sequence[str]):
        self.kind = kind
        self.name = name
        super().__init__(
            f"unknown {kind} preset {name!r}; known: {', '.join(sorted(known))}"
        )


_POTENTIALS = {
    "phi:standard": lambda dim, n: preset_potential(dim),
    "phi:quad": lambda dim, n: preset_potential_quadratic(dim),
}

_DIFFUSIONS = {
    "D:homogeneous": lambda dim, n: preset_diffusion_homogeneous(dim),
    "D:single": lambda dim, n: preset_diffusion_single_mode(dim),
    "D:multi": lambda dim, n: _default_multimode(dim, n),
    "D:multi3d-coarse": lambda dim, n: _require_dim(3, dim, "D:multi3d-coarse")
    or preset_diffusion_multimode(3, (5, 3, 4), amplitude=0.04),
}

_MOBILITIES = {
    "pi:standard": lambda dim, n: preset_mobility(dim),
    "pi:unit": lambda dim, n: preset_mobility_unit(dim),
}


def _require_dim(want: int, got: int, name: str) -> None:
    if got != want:
        raise ValueError(f"preset {name!r} is {want}D only, requested dim={got}")
    return None


def _default_multimode(dim: int, n_cells: int) -> DiffusionField:
    """Grid-matched mode caps: more cells resolve more diffusion modes."""
    if dim == 1:
        return preset_diffusion_multimode(1, (n_cells // 2,))
    if dim == 2:
        # Caps (n/2, n/4) with the rule m1 < m2 need n/4 >= 2.
        if n_cells < 8:
            raise ValueError(
                f"'D:multi' in 2D needs n_cells >= 8 for an active mode, got n_cells={n_cells}"
            )
        return preset_diffusion_multimode(2, (n_cells // 2, n_cells // 4))
    return preset_diffusion_multimode(3, (n_cells // 2, max(n_cells // 2 - 2, 1), 4))


def _resolve(kind: str, table: dict, name: str, dim: int, n_cells: int):
    try:
        factory = table[name]
    except KeyError:
        raise PresetNotFound(kind, name, table) from None
    return factory(dim, n_cells)


def get_potential(name: str, dim: int, n_cells: int = 0) -> PotentialField:
    return _resolve("potential", _POTENTIALS, name, dim, n_cells)


def get_diffusion(name: str, dim: int, n_cells: int) -> DiffusionField:
    return _resolve("diffusion", _DIFFUSIONS, name, dim, n_cells)


def get_mobility(name: str, dim: int, n_cells: int = 0) -> MobilityField:
    return _resolve("mobility", _MOBILITIES, name, dim, n_cells)


def build_parameter_set(dim: int, diffusion_ref: str, n_cells: int,
                        mobility_ref: str = "pi:standard",
                        potential_ref: str = "phi:standard",
                        name: Optional[str] = None) -> ParameterSet:
    """The parameter set named by three preset refs; the name defaults to them."""
    return ParameterSet(
        potential=get_potential(potential_ref, dim, n_cells),
        diffusion=get_diffusion(diffusion_ref, dim, n_cells),
        mobility=get_mobility(mobility_ref, dim, n_cells),
        name=f"{potential_ref}/{diffusion_ref}/{mobility_ref}" if name is None else name,
    )


# Relative tail floor shared by the regularized Gaussian presets.
_GAUSS_REG_FLOOR = 1e-10


def get_initial_condition(
    name: str, dim: int, params: Optional[ParameterSet] = None
) -> InitialCondition:
    """The initial datum named by ``name``; ``ic:eq`` needs the parameter set."""
    if name == "ic:gauss":
        return preset_gaussian_ic(dim)
    if name == "ic:gauss-reg":
        return preset_gaussian_ic(dim, floor_rel=_GAUSS_REG_FLOOR)
    for prefix, floor_rel in (("ic:gauss-reg-v", _GAUSS_REG_FLOOR), ("ic:gauss-v", 0.0)):
        if name.startswith(prefix):
            try:
                return preset_gaussian_ic(dim, float(name[len(prefix):]), floor_rel)
            except ValueError as exc:
                raise ValueError(f"initial condition {name!r}: {exc}") from None
    if name == "ic:eq":
        if params is None:
            raise ValueError("initial condition 'ic:eq' needs the parameter set")
        return preset_equilibrium_ic(params)
    raise PresetNotFound(
        "initial-condition", name,
        ["ic:gauss", "ic:gauss-reg", "ic:gauss-v<var>", "ic:gauss-reg-v<var>", "ic:eq"],
    )
