"""Implicit finite-volume solver for the generalized drift-diffusion flow.

The face flux uses exponential fitting (Scharfetter-Gummel): on the face
between cells L and R along an axis,

    J = (Dbar / (pibar * h)) * (B(-a) f_L - B(a) f_R),
    a = -(dphi + lbar * dD) / Dbar,          B(x) = x / (e^x - 1),

where dphi = phi_R - phi_L, dD = D_R - D_L, Dbar and pibar are arithmetic
face means, and lbar = (log f_L + log f_R)/2.  The weight ``a`` is built
so that a = log f_R - log f_L exactly when D log f + phi is cell-wise
constant: the discrete equilibrium is a fixed point of the scheme to
round-off, for constant *and* variable diffusion.  Three more properties
follow from B > 0, B(-x) - B(x) = x, and B(0) = 1: the Jacobian is an
M-matrix (hence the positivity-preserving damped Newton below rarely
damps), the drift-dominated limit is donor-cell upwinding, and the pure
heat limit is the plain two-point gradient.  Finally, sign(J) is opposite
to the sign of the face difference of D log f + phi, which makes each
backward-Euler step dissipate the discrete free energy unconditionally.

One expm1 per face gives both Bernoulli values: with t = |a|,
B(t) = t / expm1(t) is in (0, 1] and B(-t) = B(t) + t adds two
nonnegative terms (B(a) + a would cancel to 0 for a << 0); the sign of a
picks which is B(a).  The slopes need no exp: B'(t) = B(t)(1 - B(t) - t)/t
(a Taylor series below t = 5e-3) and B'(-t) = -1 - B'(t), both <= 0, so
f_L B'(-a) + f_R B'(a) in dJ/df sums two terms of one sign.

Each implicit step solves R(f) = f - f_old + dt * div J(f, t_new) = 0 by
a damped Newton iteration with the exact sparse Jacobian.  The iteration
stops as soon as the max-norm of R is at most the tolerance (newton_tol
times the larger of 1 and max |f_old|) or, for tolerances below what
double precision can reach, at most 64 ulps of that scale.  The rounding
of R also grows with its face terms coef * B(-a) f_L and coef * B(a) f_R:
once the residual stops halving, the iteration also stops within 64 ulps
of the largest sum of them over a cell's faces times dt / h.

The Newton system J delta = -R is solved by sparse LU (SuperLU) in 1D and
2D, and by preconditioned BiCGSTAB in 3D.  The LU factors of the
seven-point 3D Jacobian fill in heavily (9.6 million L+U nonzeros for
20^3 periodic cells) and the factorization took over 90% of a 3D run.
2D stays on SuperLU because a linear run factors its one Newton matrix
once and reuses the factors at every update (see the end of this note):
on the linear 2D benchmark run (48^2 cells, 30 updates, 2-CPU machine)
BiCGSTAB with a dimension-generic version of the preconditioner below took
0.36 s where SuperLU took 0.14 s.  Nonlinear 2D runs, which factor
every update, have not been compared.  The 3D preconditioner inverts
a constant-coefficient model of the matrix, I + s K, with K the graph
Laplacian of the face list, by fast diagonalization (Lynch, Rice &
Thomas, Numer. Math. 6, 1964; as a preconditioner for nonseparable
problems, Concus & Golub, SIAM J. Numer. Anal. 10, 1973): K is a
Kronecker sum of one axis's Laplacian T = Q diag(lam) Q^T, so (I + sK)^-1
applies Q^T along each axis, divides by 1 + s (lam_i + lam_j + lam_k) and
applies Q back.  The Krylov iteration count then grows slowly with the
grid where Jacobi's grows like n.  Each piece has a reason:

- Q is computed once per run or step.  The model's scale s, set once per
  matrix A with diagonal d, is (sum d - N) / (2 * faces), the mean
  off-diagonal magnitude, because every column of A sums to one.  It is
  clamped at 0: damped iterates next to empty cells can make diagonals
  negative.
- I + sK keeps the constant vector; A does not wherever the drift has a
  divergence.  The constant mode therefore gets 1 / (1 + s lam_1), the
  factor of the model's slowest non-constant mode (lam_1 the smallest
  nonzero eigenvalue of T), in place of 1.  The factor is exact at s = 0,
  lies between N / sum d (the mean Jacobi factor) and 1 on ordinary steps,
  and falls like 1/s with the neighbouring modes, so BiCGSTAB converges on
  a step of dt = 1e300; with 1 it takes thousands of iterations.  On
  the pinned fig-fe-3d-DM no-flux run, with the weight w = min(1, f /
  mean f), N / sum d took 205 Krylov iterations and 1 / (1 + s lam_1) 147.
- M^-1 r is a Jacobi sweep z = r / d, the correction z += w F(r - A z)
  with w = min(1, f / (0.1 mean f)), and another Jacobi sweep.  The
  correction is trusted in every cell above a tenth of the mean density;
  only near-empty cells, where the drift the model leaves out dominates,
  are left to the diagonal: without w the tails of a steep well come out
  with errors far above their size, and without the sweeps BiCGSTAB
  breaks down on the damped iterates of coarse runs.  With both, a
  steep-well step agrees with the direct solve to 1e-10 relative in
  every cell.  Why a tenth: the pinned 3D Gaussians start with 82% of
  their cells below the mean density, where min(1, f / mean f) scaled the
  correction down, and 58% below a tenth of it.  With the tenth the
  pinned n = 20 runs take fewer Krylov iterations (fig-fe-3d-hom
  periodic 120 -> 94, fig-fe-3d-DM no-flux 147 -> 128) and no more Newton
  updates.  Lower thresholds save a few iterations more but loosen the
  tails: the steep-well step is off by at most 9.9e-11 relative at a
  tenth, 1.3e-10 at 0.03 and 1.1e-9 at 0.01.

BiCGSTAB stops after N iterations, N the number of cells, a tenth of
scipy's default.  A Krylov solve that fails (no convergence within N, a
breakdown, or a non-finite x) fails its Newton step with
:class:`NonConvergence`, as an inexact Newton method with capped inner
iterations does (Kelley, Iterative Methods for Linear and Nonlinear
Equations, SIAM 1995, ch. 6); 3D has no direct fallback.  Two details
make the Krylov update as good as the direct one:

- The right-hand side is divided by its max-norm before the call and the
  solution multiplied back after it.  BiCGSTAB's breakdown thresholds are
  absolute, so the small right-hand sides of the last Newton iterations
  would otherwise end it early.
- The solve stops at a relative residual rtol, an inexact-Newton
  forcing term (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996).  Its
  floor, rtol = min(0.1, max(1e-13, 0.01 * tol / |R|)), leaves a linear
  residual of order 1% of the Newton tolerance, so no solve is more
  accurate than the Newton test can see.  Each solve also records
  rho = |rhs - A x|, and the residual after an undamped update measures
  the nonlinearity C = | |R_new| - rho | / |R_old|^2, kept into the next
  step and forgotten after a damped update.  Where C |R|^2, what the next
  residual keeps even after an exact solve, exceeds ten times the
  tolerance, the update cannot end its step, and rtol loosens to
  min(0.1, max(floor, C |R|)).  The margin of ten keeps an update that
  might end its step at the floor, so the state a step accepts is solved
  as tightly as before.  A linear step has C ~ 0 and stays at the floor,
  so its Newton iterations are unchanged (Eisenstat-Walker's "choice 2",
  which loosens from the residual ratio alone, took 40 in place of 13 on
  the linear 3D preset).  Before the system has measured any update, C is
  unknown, and Eisenstat-Walker start at the ceiling: where the flux is
  nonlinear in f (dD nonzero on some face), the first update of a run (or
  of one backward_euler_step) takes rtol 0.1 wherever 0.1 |R| is over ten
  times the tolerance, so that what it leaves cannot end its step.  On the
  pinned fig-fe-3d-DM no-flux run the floor's first update was damped
  anyway (8 cells would have gone negative); at 0.1 it is not, and the run
  takes 89 Krylov iterations in place of 128, with the same 33 updates.  A
  linear flux (dD = 0) keeps the floor: its C is 0 and its first update
  may end its step (fig-fe-3d-hom at 0.1: 89 iterations in place of 94,
  but 11 updates in place of 10).  After a damped update the floor returns
  as well: loosening there made the coarse 3D D:single runs fail to
  converge.

On both paths the update's mass error is then removed exactly.  Every
Jacobian column sums to one, so the exact update carries the mass of the
right-hand side; the difference between the two sums is added back in
proportion to the current iterate.  That weighting moves a near-empty
cell only in proportion to its content, where a uniform shift pushes
cells of size 1e-21 negative.  Each accepted iterate therefore carries
the mass of f_old to round-off whatever the linear solver's accuracy.

The :class:`~fpflow.params.Discretization` lists every interior face
once: the flux and dJ/df_L, dJ/df_R gather cell values through each
face's two cell indices, and the residual scatters J back to the cells.
It also builds the Jacobian: one matrix per update, in the layout its
solve reads.  It fills a once-built sparsity pattern from dJ/df by one
mat-vec of a sparse assembly operator, which adds each slot's entries in
the order a COO conversion would, into one new array per update.  In 3D
the matrix is CSR, whose row-order mat-vec suits BiCGSTAB, its
preconditioner and rho.  In 1D and 2D it is CSC, which SuperLU factors as
it is.  The face coefficient Dbar / (pibar h) depends on the step's time
alone, so each step evaluates the mobility once and forms it once, before
its first Newton iteration.  Each flux evaluation keeps the face terms
the derivatives reuse, and dJ/df is formed only after the residual test
has failed, for the update that follows: the iteration that stops forms
none.  One :func:`run` (or one :func:`backward_euler_step`) solves its
Newton systems through one object, which keeps its last SuperLU
factorization with the values it factored.  When the next matrix to
factor has values bitwise equal to those, as it has at every update for
constant D and a time-independent mobility, the kept factors solve it:
SuperLU is deterministic, so the update has the same bits as with a new
factorization.  Otherwise the old factors are dropped before the new
matrix is factored.  The kept factors live only in the call's local
state: the Discretization, shared across runs and threads, keeps
nothing that a run changes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, bicgstab, splu

from .diagnostics import dissipation, free_energy
from .equilibrium import equilibrium_state
from .grid import FaceField, ScalarField, adjacent_cell_values, integrate
from .params import Discretization, ParameterSet


class NonConvergence(RuntimeError):
    """Newton failed to reach the residual tolerance in the allowed iterations."""


class PositivityLoss(RuntimeError):
    """Newton damping could not produce a positive iterate."""


# The one-time lift of the initial datum: it keeps log f finite in empty
# cells and is far too small to move the unit mass.
_POSITIVITY_FLOOR = 1e-280


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping and Newton controls for :func:`run`."""

    t_final: float
    n_steps: int
    newton_tol: float = 1e-10
    newton_max_iters: int = 50
    record_every: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.t_final < np.inf:
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        for name in ("n_steps", "newton_max_iters", "record_every"):
            count = getattr(self, name)
            if not isinstance(count, Integral) or count < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
        if not 0.0 < self.newton_tol < 1.0:
            raise ValueError(f"newton_tol must lie in (0, 1), got {self.newton_tol}")


_TRACE_COLUMNS = ("t", "mass", "F", "F_rel", "D_dis", "f_min", "f_max")


@dataclass(frozen=True)
class EnergyTrace:
    """Recorded per-step scalars: time, mass, energy, dissipation, bounds."""

    t: np.ndarray
    mass: np.ndarray
    F: np.ndarray
    F_rel: np.ndarray
    D_dis: np.ndarray
    f_min: np.ndarray
    f_max: np.ndarray

    def __post_init__(self) -> None:
        for name in _TRACE_COLUMNS:
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or arr.shape != np.shape(self.t):
                raise ValueError("trace columns must be 1D arrays of equal length")

    def __len__(self) -> int:
        return len(self.t)

    def validate(self) -> None:
        """Check the structural trace invariants; raise ValueError if violated."""
        for column in _TRACE_COLUMNS:
            if not np.all(np.isfinite(getattr(self, column))):
                raise ValueError(f"trace column {column} has a non-finite entry")
        if len(self.t) and np.any(np.diff(self.t) <= 0.0):
            raise ValueError("trace times must be strictly increasing")
        if len(self.t) and np.max(np.abs(self.mass - self.mass[0])) > 1e-11:
            raise ValueError("trace mass drifts by more than 1e-11 from the initial mass")
        if np.any(self.f_min <= 0.0):
            raise ValueError("trace contains a nonpositive density minimum")

    def to_csv(self, target) -> None:
        """Write the trace; floats use repr so the file round-trips bit-exactly."""
        with _open_or_borrow(target, "w") as fh:
            fh.write(",".join(_TRACE_COLUMNS) + "\n")
            for i in range(len(self.t)):
                fh.write(
                    ",".join(repr(float(getattr(self, c)[i])) for c in _TRACE_COLUMNS)
                    + "\n"
                )

    @classmethod
    def from_csv(cls, source) -> "EnergyTrace":
        with _open_or_borrow(source, "r") as fh:
            lines = [(k, ln.strip()) for k, ln in enumerate(fh, 1)
                     if ln.strip() and not ln.startswith("#")]
        if not lines or lines[0][1] != ",".join(_TRACE_COLUMNS):
            raise ValueError("not an energy-trace CSV (bad header)")
        rows = []
        for k, ln in lines[1:]:
            row = ln.split(",")
            if len(row) != len(_TRACE_COLUMNS):
                raise ValueError(f"line {k} has {len(row)} fields, the header {len(_TRACE_COLUMNS)}")
            try:
                rows.append([float(tok) for tok in row])
            except ValueError as exc:
                raise ValueError(f"line {k}: {exc}") from None
        cols = list(zip(*rows)) if rows else [[] for _ in _TRACE_COLUMNS]
        return cls(**{name: np.asarray(col) for name, col in zip(_TRACE_COLUMNS, cols)})


def _open_or_borrow(target, mode: str):
    """A file opened on a path, closed on exit; an open handle is used and left open."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        # newline="" writes bare "\n"; on reading, strip() drops any ending.
        return open(target, mode, encoding="ascii", newline="")
    return contextlib.nullcontext(target)


# ----------------------------------------------------------------------
# Exponential-fitted face flux
# ----------------------------------------------------------------------

def _bernoulli_pair(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B(-a), B(a)) from one expm1 of |a|; past |a| ~ 709, B(|a|) = |a| / inf = 0."""
    t = np.abs(a)
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.where(t == 0.0, 1.0, t / np.expm1(t))
    return b + np.maximum(a, 0.0), b + np.maximum(-a, 0.0)


def _bernoulli_slopes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B'(-a), B'(a)) from a and b = B(|a|), the smaller value of :func:`_bernoulli_pair`.

    1 - B(t) - t ~ -t/2 cancels, so the closed form is off by about eps/t;
    below t = 5e-3 the Taylor series (off by t^5/5040) takes over.
    """
    t = np.abs(a)
    with np.errstate(invalid="ignore"):  # 0 / 0 at t = 0, overwritten below
        d = b * (1.0 - b - t) / t
    small = t < 5e-3
    ts = t[small]
    d[small] = -0.5 + ts / 6.0 - ts**3 / 180.0
    e = -1.0 - d
    pos = a >= 0.0
    return np.where(pos, e, d), np.where(pos, d, e)


def _face_coefficient(disc: Discretization, t: float) -> np.ndarray:
    """Dbar / (pibar h) on the face list: the flux's factor that does not depend on f."""
    return disc.Dbar / (disc.face_mean(disc.pi(t)) * disc.grid.h)


def _face_quantities(disc: Discretization, f: np.ndarray, coef: np.ndarray) -> dict:
    """Flux J on the Discretization's face list, with the face terms its derivatives reuse.

    ``coef`` is :func:`_face_coefficient` at the flux's time.  Beside J the
    result holds f_L, f_R, a, coef, B(-a) and B(a), from which
    :func:`_face_derivatives` forms dJ/df when a Newton update needs it.
    """
    flat = f.ravel()
    logf = np.log(flat)
    f_l, f_r = flat[disc.l_idx], flat[disc.r_idx]
    a = -(disc.dphi + 0.5 * (logf[disc.l_idx] + logf[disc.r_idx]) * disc.dD) / disc.Dbar
    b_m, b_p = _bernoulli_pair(a)
    return {
        "J": coef * (b_m * f_l - b_p * f_r),
        "f_l": f_l, "f_r": f_r, "a": a, "coef": coef, "b_m": b_m, "b_p": b_p,
    }


def _face_derivatives(disc: Discretization, q: dict) -> tuple[np.ndarray, np.ndarray]:
    """(dJ/df_L, dJ/df_R) on the face list, from the terms of :func:`_face_quantities`."""
    f_l, f_r = q["f_l"], q["f_r"]
    d_m, d_p = _bernoulli_slopes(q["a"], np.minimum(q["b_m"], q["b_p"]))
    s = f_l * d_m + f_r * d_p  # two terms <= 0: nothing cancels
    # da/df_L = -dD / (2 Dbar f_L) and likewise for R, so -(da/df_L) s = g / f_L.
    g = disc.dD * s / (2.0 * disc.Dbar)
    return q["coef"] * (q["b_m"] + g / f_l), q["coef"] * (g / f_r - q["b_p"])


def assemble_flux(f: ScalarField, params: ParameterSet, t: float) -> FaceField:
    """Exponential-fitted face flux of the density f at time t."""
    if np.any(f.values <= 0.0):
        raise ValueError("assemble_flux requires a strictly positive density")
    disc = params.discretize(f.grid)
    return disc.face_field(_face_quantities(disc, f.values, _face_coefficient(disc, t))["J"])


# ----------------------------------------------------------------------
# Damped Newton for the backward-Euler step
# ----------------------------------------------------------------------

class _NewtonSystem:
    """Solves the Newton systems of one run or step, keeping the last factorization.

    In 1D and 2D it keeps its last SuperLU factorization with the values it
    factored; a new Jacobian whose values are bitwise equal to those is that
    matrix, so the factors are reused.  In 3D it keeps the measured
    nonlinearity C that sets the forcing term.  It lives in the local state
    of one :func:`run` or :func:`backward_euler_step` call, never on the
    shared :class:`~fpflow.params.Discretization`.
    """

    def __init__(self, disc: Discretization):
        self._disc = disc
        self._lu = None
        self._factored: Optional[np.ndarray] = None  # the values _lu factors
        # 3D only: |rhs - A x| of the last update, and the measured C of
        # |R_new| ~ rho + C |R_old|^2 (None until an undamped update shows it).
        self.rho: Optional[float] = None
        self.curvature: Optional[float] = None
        # Whether the flux is nonlinear in f: only lbar * dD makes it so.
        self._nonlinear = bool(np.any(disc.dD != 0.0))
        if disc.grid.dim == 3:
            # T = Q diag(lam) Q^T, the graph Laplacian of one axis's faces.
            n = disc.grid.n_cells
            left, right = adjacent_cell_values(np.arange(n), 0, disc.grid.boundary)
            eye = np.eye(n)
            grad = eye[left] - eye[right]
            lam, self._q = np.linalg.eigh(grad.T @ grad)
            self._lam = lam[:, None, None] + lam[:, None] + lam

    def _separable_inverse(self, s: float) -> Callable[[np.ndarray], np.ndarray]:
        """x -> (I + s K)^-1 x, with 1 / (1 + s lam_1) in place of 1 on the constant mode.

        K = T(x)I(x)I + I(x)T(x)I + I(x)I(x)T is the graph Laplacian of the
        3D face list; it is diagonal in the basis Q(x)Q(x)Q.  lam_1 is the
        smallest nonzero eigenvalue of T: the constant mode is scaled like
        the slowest of the other modes.
        """
        q, n = self._q, self._disc.grid.n_cells
        scale = 1.0 / (1.0 + s * self._lam)
        # eigh sorts lam ascending: entry 0 is the constant mode, entry 1 lam_1's.
        scale[0, 0, 0] = scale[1, 0, 0]

        def apply(x: np.ndarray) -> np.ndarray:
            y = (q.T @ x.reshape(n, n * n)).reshape(n, n, n)
            y = (q.T @ y) @ q * scale
            y = (q @ y) @ q.T
            return (q @ y.reshape(n, n * n)).ravel()

        return apply

    def _preconditioner(self, jac: sp.spmatrix, d: np.ndarray, f: np.ndarray) -> LinearOperator:
        """M^-1 r: a Jacobi sweep, a separable correction, a Jacobi sweep.

        ``d`` is the diagonal of ``jac``.  The correction is weighted by
        w = min(1, f / (0.1 mean f)): whole in every cell above a tenth of
        the mean density, scaled down with the density below it.
        """
        n_total, n_faces = self._disc.grid.n_total, len(self._disc.l_idx)
        # Every column of A sums to 1, so (sum d - N) / (2 faces) is the mean
        # off-diagonal magnitude; damped iterates can make it negative.
        fd = self._separable_inverse(max(0.0, (float(d.sum()) - n_total) / (2 * n_faces)))
        w = np.minimum(1.0, f / (0.1 * f.mean()))

        def apply(r: np.ndarray) -> np.ndarray:
            # z += w F(r - A z); z += (r - A z) / d, with the temporaries
            # reused in place.  z is new on each call: BiCGSTAB keeps one
            # result while it computes the next.
            z = r / d
            t = jac @ z
            u = fd(np.subtract(r, t, out=t))
            u *= w
            z += u
            t = jac @ z
            np.subtract(r, t, out=t)
            t /= d
            z += t
            return z

        return LinearOperator(jac.shape, matvec=apply, dtype=float)

    def solve(self, jac: sp.spmatrix, rhs: np.ndarray, f: np.ndarray, rtol: float) -> np.ndarray:
        """Solve jac x = rhs for the Newton matrix ``jac`` on the Jacobian pattern.

        BiCGSTAB to ``rtol`` within N iterations in 3D, SuperLU in 1D and
        2D.  The returned update carries the exact mass of ``rhs``; in 3D
        its residual max|rhs - A x| is kept as ``rho``.  A failed Krylov
        solve or a singular system raises :class:`NonConvergence`.
        """
        disc = self._disc
        krylov = disc.grid.dim == 3
        if krylov:
            norm = float(np.max(np.abs(rhs)))
            # An iterate that overflows is a failed solve, not a warning.
            with np.errstate(over="ignore", invalid="ignore"):
                m = self._preconditioner(jac, jac.data[disc.jac_diagonal], f)
                x, info = bicgstab(
                    jac, rhs / norm, rtol=rtol, atol=0.0, maxiter=disc.grid.n_total, M=m
                )
                x *= norm
            if not np.all(np.isfinite(x)):
                raise NonConvergence("BiCGSTAB returned a non-finite update")
            if info != 0:
                raise NonConvergence(
                    f"BiCGSTAB did not converge within {info} iterations (rtol {rtol:.1e})"
                    if info > 0 else f"BiCGSTAB breakdown (info {info})"
                )
        else:
            if self._lu is None or not np.array_equal(jac.data, self._factored):
                self._lu = None  # never hold two factorizations
                try:
                    self._lu = splu(jac)
                except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                    raise NonConvergence(f"singular Newton system ({exc})") from None
                self._factored = jac.data
            x = self._lu.solve(rhs)
        x += f * ((rhs.sum() - x.sum()) / f.sum())
        if krylov:
            self.rho = float(np.max(np.abs(rhs - jac @ x)))
        return x

    def forcing(self, rnorm: float, tol: float) -> float:
        """BiCGSTAB's rtol for the update of a residual of max-norm ``rnorm``.

        The floor leaves 1% of the Newton tolerance.  It loosens to C |R|
        where C |R|^2 is over ten times the tolerance, and before any update
        is measured a nonlinear flux starts at the ceiling 0.1 where 0.1 |R|
        is; the module note gives the reasons.
        """
        if self.rho is None and self._nonlinear and 0.1 * rnorm > 10.0 * tol:
            return 0.1
        rtol = min(0.1, max(1e-13, 0.01 * tol / rnorm))
        c = self.curvature
        if c is not None and c * rnorm**2 > 10.0 * tol:
            rtol = min(0.1, max(rtol, c * rnorm))
        return rtol

    def measure(self, r_old: float, r_new: float, undamped: bool) -> None:
        """Update C from the residual the last update left; a damped one forgets it."""
        if self.rho is not None:
            self.curvature = abs(r_new - self.rho) / r_old**2 if undamped else None


def _residual_rounding(disc: Discretization, q: dict, c: float, roundoff: float) -> float:
    """Bound on the rounding of the residual: 64 ulps of its largest gross term.

    The divergence is a difference of face terms coef * B(-a) f_L and
    coef * B(a) f_R; their sum over a cell's faces, times c = dt / h, is the
    size the rounding scales with when it exceeds |f_old|.
    """
    n = disc.grid.n_total
    gross = q["coef"] * (q["b_m"] * q["f_l"] + q["b_p"] * q["f_r"])
    cells = np.bincount(disc.l_idx, gross, n) + np.bincount(disc.r_idx, gross, n)
    return roundoff + 64.0 * np.finfo(float).eps * c * float(np.max(cells))


def _newton_solve(
    disc: Discretization,
    f_old: np.ndarray,
    t_new: float,
    dt: float,
    config: SolverConfig,
    system: _NewtonSystem,
) -> np.ndarray:
    grid = disc.grid
    scale = max(1.0, float(np.max(np.abs(f_old))))
    tol_abs = config.newton_tol * scale
    roundoff = 64.0 * np.finfo(float).eps * scale
    c = dt / grid.h
    coef = _face_coefficient(disc, t_new)

    f = f_old.copy()
    rnorm = np.inf
    for it in range(config.newton_max_iters + 1):
        quantities = _face_quantities(disc, f, coef)
        prev = rnorm
        with np.errstate(over="ignore", invalid="ignore"):
            residual = f - f_old + dt * disc.divergence(quantities["J"])
            rnorm = float(np.max(np.abs(residual)))
        if not np.isfinite(rnorm):
            # An overflowing step (dt ~ 1e300) would only feed inf/NaN to the solver.
            raise NonConvergence(f"non-finite Newton residual ({rnorm}) at iteration {it}")
        if it > 0:
            system.measure(prev, rnorm, lam == 1.0)
        if rnorm <= max(tol_abs, roundoff):
            return f
        # Stalled: is what is left the residual's own rounding?
        if rnorm > 0.5 * prev and rnorm <= _residual_rounding(disc, quantities, c, roundoff):
            return f
        if it == config.newton_max_iters:
            raise NonConvergence(
                f"Newton residual {rnorm:.3e} after {it} iterations "
                f"(tolerance {tol_abs:.3e})"
            )

        jac = disc.jacobian(*_face_derivatives(disc, quantities), c)
        rtol = system.forcing(rnorm, tol_abs)
        try:
            delta = system.solve(jac, -residual.ravel(), f.ravel(), rtol).reshape(grid.shape)
            lam = 1.0
            while np.any(f + lam * delta <= 0.0):
                lam *= 0.5
                if lam < 2.0**-20:
                    raise PositivityLoss("Newton damping reached 2^-20 without a positive iterate")
        except (NonConvergence, PositivityLoss) as exc:
            raise type(exc)(f"{exc} at Newton iteration {it}") from None
        f = f + lam * delta
    raise NonConvergence(f"Newton residual {rnorm:.3e}")  # pragma: no cover


def backward_euler_step(
    f_old: ScalarField,
    params: ParameterSet,
    t_new: float,
    dt: float,
    config: SolverConfig,
) -> ScalarField:
    """One implicit step of size dt landing at time t_new."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"step size must be positive and finite, got {dt}")
    if not np.isfinite(t_new):
        raise ValueError(f"t_new must be finite, got {t_new}")
    if np.any(f_old.values <= 0.0):
        raise ValueError("backward_euler_step requires a strictly positive start")
    disc = params.discretize(f_old.grid)
    f = _newton_solve(disc, f_old.values, t_new, dt, config, _NewtonSystem(disc))
    return ScalarField(f_old.grid, f)


def run(
    f0: ScalarField,
    params: ParameterSet,
    config: SolverConfig,
    on_step: Optional[Callable[[int, float, ScalarField], None]] = None,
) -> tuple[ScalarField, EnergyTrace]:
    """Evolve f0 to t_final, recording the energy trace along the way.

    The initial datum is lifted to the positivity floor, 1e-280, once;
    afterwards the damped Newton iteration keeps every iterate positive.  The trace
    records the initial state and every ``record_every``-th step (plus
    the final one).  ``on_step(k, t, f)`` is invoked after each
    successful step, which is how tests capture interior snapshots.
    """
    grid = f0.grid
    if not np.any(f0.values > 0.0):
        raise ValueError("initial datum is nonpositive everywhere")
    vals = np.maximum(f0.values, _POSITIVITY_FLOOR)
    mass0 = grid.cell_volume * float(np.sum(vals))
    if abs(mass0 - 1.0) > 1e-6:
        raise ValueError(f"initial datum must carry unit mass, got {mass0!r}")

    eq = equilibrium_state(params, grid)
    disc = params.discretize(grid)
    dt = config.t_final / config.n_steps

    rows = {name: [] for name in _TRACE_COLUMNS}

    def record(t: float, values: np.ndarray) -> None:
        fld = ScalarField(grid, values)
        F = free_energy(fld, params)
        rows["t"].append(t)
        rows["mass"].append(integrate(fld))
        rows["F"].append(F)
        rows["F_rel"].append(F - eq.free_energy)
        rows["D_dis"].append(dissipation(fld, params, t))
        rows["f_min"].append(float(np.min(values)))
        rows["f_max"].append(float(np.max(values)))

    record(0.0, vals)
    f = vals
    system = _NewtonSystem(disc)
    for k in range(1, config.n_steps + 1):
        t_new = k * dt
        try:
            f = _newton_solve(disc, f, t_new, dt, config, system)
        except (NonConvergence, PositivityLoss) as exc:
            raise type(exc)(f"step {k} (t = {t_new:.6g}): {exc}") from None
        if on_step is not None:
            on_step(k, t_new, ScalarField(grid, f))
        if k % config.record_every == 0 or k == config.n_steps:
            record(t_new, f)

    trace = EnergyTrace(**{name: np.asarray(col) for name, col in rows.items()})
    return ScalarField(grid, f), trace
