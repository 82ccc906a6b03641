"""Energy, entropy and decay diagnostics for drift-diffusion densities.

Everything here is a pure function of a density snapshot (plus the model
coefficients): the free energy and its dissipation, the face-centered
transport velocity, relative entropy and the Csiszar-Kullback-Pinsker
bound, pointwise equilibrium envelopes, a second-derivative consistency
check for the energy trace, and exponential-rate fitting.

The velocity convention matches the solver's flux exactly: on the face
between cells L and R,

    u = -(mu_R - mu_L) / (pi_face * h),    mu_i = D_i log f_i + phi_i,

with the arithmetic face mean of the cell mobilities, as the solver
reads them from :class:`~fpflow.params.Discretization`.  Because mu is
constant at equilibrium cell-by-cell, the discrete velocity (and hence
the dissipation) vanishes there to round-off, not merely to O(h^2).

The dissipation and the d^2F/dt^2 identity evaluate the mobility once,
form u on the Discretization's face list, and bring it to the cells
through :meth:`~fpflow.params.Discretization.cell_faces`, each cell's
lower and upper face value per axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grid import Boundary, FaceField, ScalarField
from .params import Discretization, ParameterSet, _checked

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .equilibrium import EquilibriumState
    from .solver import EnergyTrace


class Regime(Enum):
    """Which structural assumptions the identity evaluator may rely on."""

    HOMOGENEOUS = "homogeneous"
    INHOMOGENEOUS_D = "inhomogeneous-d"
    VARIABLE_MOBILITY = "variable-mobility"


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit of a positive trace quantity."""

    rate: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_points: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.r_squared <= 1.0):
            raise ValueError(f"r_squared must lie in [0, 1], got {self.r_squared}")
        if not self.window[0] < self.window[1]:
            raise ValueError(f"fit window must satisfy t_lo < t_hi, got {self.window}")
        if self.n_points < 5:
            raise ValueError(f"fit needs at least 5 points, got {self.n_points}")


@dataclass(frozen=True)
class IdentityReport:
    """Two independently computed values that an exact identity equates."""

    lhs: float
    rhs: float
    residual: float
    regime: Regime


@dataclass(frozen=True)
class CKPReport:
    """L1 distance against its entropy bound: holds iff l1^2 <= bound."""

    l1: float
    bound: float
    holds: bool


def _require_positive(values: np.ndarray, what: str) -> None:
    if np.any(values <= 0.0):
        raise ValueError(f"{what} requires a strictly positive density")


def _finite(values, what: str) -> np.ndarray:
    """Analytic derivative values on the grid, stacked into one array and checked finite."""
    return _checked(np.asarray(values), what, positive=False)


def free_energy(f: ScalarField, params: ParameterSet) -> float:
    """F[f] = integral of D f (log f - 1) + f phi over the box."""
    _require_positive(f.values, "free_energy")
    disc = params.discretize(f.grid)
    fv = f.values
    density = disc.D * fv * (np.log(fv) - 1.0) + fv * disc.phi
    return f.grid.cell_volume * float(np.sum(density))


def _face_velocity(disc: Discretization, fv: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The velocity on the face list, from the density's and the mobility's cell values."""
    mu = (disc.D * np.log(fv) + disc.phi).ravel()
    return -(mu[disc.r_idx] - mu[disc.l_idx]) / (disc.face_mean(pi) * disc.grid.h)


def _mean_square(cell_faces: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """|u|^2 at each cell: per axis, the mean of its two faces' squares."""
    return sum(0.5 * (lo**2 + hi**2) for lo, hi in cell_faces)


def velocity(f: ScalarField, params: ParameterSet, t: float) -> FaceField:
    """Face-centered transport velocity -grad(D log f + phi) / pi."""
    _require_positive(f.values, "velocity")
    disc = params.discretize(f.grid)
    return disc.face_field(_face_velocity(disc, f.values, disc.pi(t)))


def dissipation(f: ScalarField, params: ParameterSet, t: float) -> float:
    """Energy dissipation rate: integral of pi |u|^2 f.

    |u|^2 at a cell averages the squares of the two adjacent face values
    per direction, so a single nonzero face contributes to both of its
    cells with weight one half.
    """
    _require_positive(f.values, "dissipation")
    grid = f.grid
    disc = params.discretize(grid)
    pi = disc.pi(t)
    u = _face_velocity(disc, f.values, pi)
    usq = _mean_square([disc.cell_faces(u, axis) for axis in range(grid.dim)])
    return grid.cell_volume * float(np.sum(pi * f.values * usq))


def relative_entropy(f: ScalarField, eq: "EquilibriumState", params: ParameterSet) -> float:
    """D-weighted relative entropy of f against the equilibrium density."""
    _require_positive(f.values, "relative_entropy")
    D = params.discretize(f.grid).D
    ratio = np.log(f.values) - np.log(eq.density.values)
    return f.grid.cell_volume * float(np.sum(D * f.values * ratio))


def ckp_check(f: ScalarField, eq: "EquilibriumState") -> CKPReport:
    """Csiszar-Kullback-Pinsker inequality on the discrete quadrature.

    l1 = ||f - f_eq||_1 and bound = 2 * (unweighted) relative entropy;
    the report holds when l1^2 <= bound up to a 1e-12 slack.
    """
    _require_positive(f.values, "ckp_check")
    grid = f.grid
    feq = eq.density.values
    l1 = grid.cell_volume * float(np.sum(np.abs(f.values - feq)))
    ent = grid.cell_volume * float(np.sum(f.values * (np.log(f.values) - np.log(feq))))
    bound = 2.0 * ent
    return CKPReport(l1=l1, bound=bound, holds=l1**2 <= bound + 1e-12)


def max_principle_envelope(
    f0: ScalarField, eq: "EquilibriumState", params: ParameterSet
) -> tuple[ScalarField, ScalarField]:
    """Pointwise lower/upper barriers spanned by the initial datum.

    With h0 = D log(f0 / f_eq), the envelope is
    exp(min h0 / D(x)) f_eq(x) <= f(x, t) <= exp(max h0 / D(x)) f_eq(x),
    which the continuous flow preserves for time-independent coefficients.
    """
    _require_positive(f0.values, "max_principle_envelope")
    grid = f0.grid
    D = params.discretize(grid).D
    feq = eq.density.values
    h0 = D * (np.log(f0.values) - np.log(feq))
    lo, hi = float(np.min(h0)), float(np.max(h0))
    lower = ScalarField(grid, np.exp(lo / D) * feq)
    upper = ScalarField(grid, np.exp(hi / D) * feq)
    return lower, upper


def gronwall_envelope(c: float, d: float, p: float, g0: float, t) -> float:
    """Decay envelope for dg/dt <= -c g + d g^p started inside the basin.

    Requires c, d > 0, p > 1 and 0 < g0 strictly below the critical value
    (c/d)^(1/(p-1)); then g(t) <= (g0^(1-p) - d/c)^(-1/(p-1)) e^(-c t).
    """
    if c <= 0.0 or d <= 0.0:
        raise ValueError("rate constants c and d must be positive")
    if p <= 1.0:
        raise ValueError(f"exponent p must exceed 1, got {p}")
    if g0 <= 0.0:
        raise ValueError(f"initial value g0 must be positive, got {g0}")
    base = g0 ** (1.0 - p) - d / c
    if base <= 0.0:
        raise ValueError(
            f"g0 = {g0} is not below the basin threshold (c/d)^(1/(p-1)) = "
            f"{(c / d) ** (1.0 / (p - 1.0))}"
        )
    return base ** (-1.0 / (p - 1.0)) * np.exp(-c * np.asarray(t, dtype=float))


# ----------------------------------------------------------------------
# Second-derivative identity for the energy trace
# ----------------------------------------------------------------------

def _cell_gradient(arr: np.ndarray, grid, axis: int) -> np.ndarray:
    """Centered cell-to-cell derivative; wraps when periodic, one-sided at walls."""
    if grid.boundary is Boundary.PERIODIC:
        return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * grid.h)
    return np.gradient(arr, grid.h, axis=axis, edge_order=2)


def _check_constant(values: np.ndarray, what: str, regime: Regime) -> None:
    scale = max(float(np.max(np.abs(values))), 1.0)
    if float(np.max(values) - np.min(values)) > 1e-12 * scale:
        raise ValueError(f"regime {regime.value!r} requires {what}, which does not hold")


def second_derivative_identity(
    f: ScalarField,
    params: ParameterSet,
    t: float,
    regime: Regime,
    fd_context: Sequence[tuple[float, float]],
) -> IdentityReport:
    """Compare d^2F/dt^2 from the trace against its analytic expansion.

    ``fd_context`` holds three consecutive uniformly spaced (t, F) rows
    centered on the snapshot time; the left side is their second
    difference.  The right side integrates the regime's expansion of
    d^2F/dt^2 in terms of the velocity field, its first derivatives, and
    the analytic derivatives of D, phi and pi.  Terms are grouped exactly
    as the expansion introduces them: convexity + velocity-gradient terms
    first (the only ones for homogeneous coefficients), the five
    diffusion-gradient couplings next, and six mobility couplings last.
    """
    grid = f.grid
    if grid.boundary is Boundary.NOFLUX and grid.n_cells < 3:
        # The one-sided second-order differences at the walls need 3 cells.
        raise ValueError(
            "second_derivative_identity needs at least 3 cells per axis on a no-flux "
            f"grid, got {grid.n_cells}"
        )
    if len(fd_context) != 3:
        raise ValueError("fd_context must hold exactly three (t, F) rows")
    (t0, F0), (t1, F1), (t2, F2) = [(float(a), float(b)) for a, b in fd_context]
    dt1, dt2 = t1 - t0, t2 - t1
    if dt1 <= 0.0 or dt2 <= 0.0:
        raise ValueError("fd_context times must be strictly increasing")
    if abs(dt2 - dt1) > 1e-8 * max(dt1, dt2):
        raise ValueError("fd_context rows must be uniformly spaced in time")
    if abs(t1 - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError("snapshot time t must match the middle fd_context row")
    dt = 0.5 * (dt1 + dt2)
    lhs = (F2 - 2.0 * F1 + F0) / dt**2

    disc = params.discretize(grid)
    D = disc.D
    pi = disc.pi(t)
    if regime is Regime.HOMOGENEOUS:
        _check_constant(D, "constant diffusion", regime)
    if regime in (Regime.HOMOGENEOUS, Regime.INHOMOGENEOUS_D):
        for pi_probe in (pi, params.mobility.on_grid(grid, t + 0.37)):
            if float(np.max(np.abs(pi_probe - 1.0))) > 1e-12:
                raise ValueError(
                    f"regime {regime.value!r} requires unit mobility, which does not hold"
                )

    _require_positive(f.values, "second_derivative_identity")
    fv = f.values
    logf = np.log(fv)
    phi_grad = _finite(params.potential.gradient_on_grid(grid), "potential gradient")
    phi_hess = _finite(params.potential.hessian_on_grid(grid), "potential Hessian")
    D_grad = _finite(params.diffusion.gradient_on_grid(grid), "diffusion gradient")

    dim = grid.dim
    u = _face_velocity(disc, fv, pi)
    cell_faces = [disc.cell_faces(u, d) for d in range(dim)]
    ubar = [0.5 * (lo + hi) for lo, hi in cell_faces]
    usq = _mean_square(cell_faces)
    # du[d][e] = d(u_d)/d(x_e): exact face difference on the diagonal,
    # centered differences of the cell-averaged component otherwise.
    du = [
        [(hi - lo) / grid.h if d == e else _cell_gradient(ubar[d], grid, e) for e in range(dim)]
        for d, (lo, hi) in enumerate(cell_faces)
    ]

    def dot(a, b) -> np.ndarray:
        """sum_d a[d] * b[d], cell by cell."""
        return sum(a[d] * b[d] for d in range(dim))

    div_u = sum(du[d][d] for d in range(dim))
    grad_usq = [_cell_gradient(usq, grid, d) for d in range(dim)]
    u_dot_gradD = dot(ubar, D_grad)
    u_dot_gradphi = dot(ubar, phi_grad)
    hess_quad = sum(phi_hess[d][e] * ubar[d] * ubar[e] for d in range(dim) for e in range(dim))
    grad_u_sq = sum(du[d][e] ** 2 for d in range(dim) for e in range(dim))

    vol = grid.cell_volume

    def qsum(expr: np.ndarray) -> float:
        return vol * float(np.sum(expr))

    rhs = 2.0 * qsum(hess_quad * fv) + 2.0 * qsum(D * grad_u_sq * fv)

    if regime is not Regime.HOMOGENEOUS:
        rhs -= qsum((logf - 1.0) * dot(grad_usq, D_grad) * fv)
        rhs -= 2.0 * qsum((1.0 + logf) * u_dot_gradD * div_u * fv)
        pi_weight = pi if regime is Regime.VARIABLE_MOBILITY else 1.0
        rhs += 2.0 * qsum(pi_weight / D * usq * logf * u_dot_gradD * fv)
        rhs += 2.0 * qsum(logf**2 / D * u_dot_gradD**2 * fv)
        rhs += 2.0 * qsum(logf / D * u_dot_gradD * u_dot_gradphi * fv)

    if regime is Regime.VARIABLE_MOBILITY:
        pi_t = _finite(params.mobility.time_derivative_on_grid(grid, t), "mobility time derivative")
        pi_grad = _finite(params.mobility.gradient_on_grid(grid, t), "mobility gradient")
        u_dot_gradpi = dot(ubar, pi_grad)
        # ((grad u) u)_d = sum_e u_e d(u_d)/d(x_e)
        conv = [dot(ubar, du[d]) for d in range(dim)]
        rhs += qsum(pi_t * usq * fv)
        rhs += qsum(usq * u_dot_gradpi * fv)
        rhs -= 2.0 * qsum((logf - 1.0) / pi * usq * dot(pi_grad, D_grad) * fv)
        rhs += 2.0 * qsum((logf - 1.0) / pi * u_dot_gradpi * u_dot_gradD * fv)
        rhs += qsum(D / pi * dot(grad_usq, pi_grad) * fv)
        rhs -= 2.0 * qsum(D / pi * dot(conv, pi_grad) * fv)

    return IdentityReport(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs), regime=regime)


# ----------------------------------------------------------------------
# Exponential decay fitting
# ----------------------------------------------------------------------

_FIT_QUANTITIES = ("F_rel", "D_dis")


def fit_decay_rate(
    trace: "EnergyTrace",
    quantity: str = "F_rel",
    transient_frac: float = 0.1,
    floor_rel: float = 1e-12,
) -> DecayFit:
    """Fit log(quantity) = intercept - rate * t by least squares.

    The initial transient (first ``transient_frac`` of the rows) and any
    rows whose value has collapsed below ``floor_rel`` times the initial
    value are excluded before fitting; at least five rows must survive.
    """
    if quantity not in _FIT_QUANTITIES:
        raise ValueError(f"quantity must be one of {_FIT_QUANTITIES}, got {quantity!r}")
    if not 0.0 <= transient_frac < 1.0:
        raise ValueError("transient_frac must lie in [0, 1)")
    t = np.asarray(trace.t, dtype=float)
    q = np.asarray(getattr(trace, quantity), dtype=float)
    if t.shape != q.shape or t.ndim != 1:
        raise ValueError("trace arrays are malformed")
    if int(np.sum(q > 0.0)) < 20:
        raise ValueError(
            f"fit_decay_rate needs at least 20 rows with positive {quantity}, "
            f"got {int(np.sum(q > 0.0))}"
        )
    n_drop = int(np.floor(transient_frac * len(t)))
    floor = floor_rel * q[0] if q[0] > 0.0 else 0.0
    keep = np.zeros(len(t), dtype=bool)
    keep[n_drop:] = True
    keep &= q > 0.0
    keep &= q >= floor
    if int(np.sum(keep)) < 5:
        raise ValueError(
            f"only {int(np.sum(keep))} rows survive windowing; need at least 5"
        )
    x = t[keep]
    y = np.log(q[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r2 = min(max(r2, 0.0), 1.0)
    return DecayFit(
        rate=float(-slope),
        intercept=float(intercept),
        r_squared=r2,
        window=(float(x[0]), float(x[-1])),
        n_points=int(np.sum(keep)),
    )


def energy_law_mismatch(trace: "EnergyTrace") -> np.ndarray:
    """Per-step defect |F_new - F_old + dt * D_dis_new| of the energy balance.

    For the implicit scheme the discrete energy identity holds up to a
    quadrature-consistency error that vanishes under refinement; this is
    the quantity whose maximum the refinement tests track.
    """
    t = np.asarray(trace.t, dtype=float)
    F = np.asarray(trace.F, dtype=float)
    Dd = np.asarray(trace.D_dis, dtype=float)
    dt = np.diff(t)
    return np.abs(F[1:] - F[:-1] + dt * Dd[1:])
