"""Structural self-checks: the registry behind ``fpflow verify``.

Each check is a zero-argument callable that returns on success, with a
one-line detail or None, and raises (an ``AssertionError`` with a
one-line message, normally) on failure.  Checks fail through
:func:`_require`, not ``assert``, so they hold under ``python -O`` too.
``FAST`` holds the 16 checks ``fpflow verify`` runs by default;
``verify full`` adds the 16 slower ones in ``FULL``: five
multi-dimensional, refinement and convergence checks and the acceptance
criteria 01-11.  The test suite runs the same callables, one pytest item
per check.

The state-evolution checks read shared runs: one 1D reference run per
(boundary, diffusion), and the 18 pinned figure runs with their 18
equilibrium starts.  Run checks inside :func:`fresh_runs` so that a
batch shares those runs and none outlives it: a check must never read
runs made under different code (for example a patched flux kernel).
Outside every scope nothing is shared.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import namedtuple
from dataclasses import replace
from typing import Callable, Iterator, Optional

import numpy as np

from . import cli, diagnostics, oracle, params as params_mod, solver
from .diagnostics import IdentityReport, Regime, fit_decay_rate
from .equilibrium import equilibrium_state
from .grid import Boundary, ScalarField, build_grid, face_divergence, face_gradient, integrate
from .params import ParameterSet, build_parameter_set
from .solver import EnergyTrace, SolverConfig, run


def _require(condition, detail: str) -> None:
    """Fail the check with ``detail`` unless ``condition`` holds; ``python -O`` keeps it."""
    if not condition:
        raise AssertionError(detail)


# The shared runs of each open fresh_runs() scope, innermost last.
_scopes: list[dict] = []


@contextlib.contextmanager
def fresh_runs() -> Iterator[None]:
    """Checks run inside share runs made inside, and only those.

    A nested scope starts empty; the enclosing scope's runs return when it ends.
    """
    _scopes.append({})
    try:
        yield
    finally:
        _scopes.pop()


def _shared(make: Callable) -> Callable:
    """``make``, its result for each set of arguments shared within the innermost scope."""
    signature = inspect.signature(make)

    @functools.wraps(make)
    def shared(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (make.__name__, *bound.arguments.values())
        runs = _scopes[-1] if _scopes else {}
        if key not in runs:
            runs[key] = make(*args, **kwargs)
        return runs[key]

    return shared


@_shared
def _workhorse(boundary: Boundary, diffusion: str):
    """Shared 1D reference run for the state-evolution checks."""
    grid = build_grid(1, 100, boundary)
    pset = build_parameter_set(1, diffusion, 100)
    f0 = params_mod.preset_gaussian_ic(1).build(grid)
    snapshots: list[ScalarField] = []
    config = SolverConfig(t_final=2.0, n_steps=25)
    final, trace = run(
        f0, pset, config, on_step=lambda k, t, f: snapshots.append(f)
    )
    return grid, pset, f0, config, final, trace, tuple(snapshots)


def materialize(preset: str, boundary: Boundary, **overrides):
    """(grid, params, f0, config) of a registered CLI experiment, fields overridden."""
    spec = cli.ExperimentSpec(name=preset, **cli._EXPERIMENTS[preset])
    return cli._materialize(replace(spec, **overrides), boundary.value)


def _pinned_presets() -> dict[tuple[int, str], str]:
    """fig-fe-{1,2,3}d-{hom,D1,DM}, the pinned figure presets, by (dim, diffusion ref)."""
    rows = cli._EXPERIMENTS
    names = [f"fig-fe-{dim}d-{s}" for dim in (1, 2, 3) for s in ("hom", "D1", "DM")]
    return {(rows[name]["dim"], rows[name]["diffusion_ref"]): name for name in names}


def pinned_keys() -> list[tuple[int, str, Boundary]]:
    """(dim, diffusion ref, boundary) of each of the 18 pinned runs."""
    return [(dim, diff, bc) for dim, diff in _pinned_presets() for bc in Boundary]


# One pinned figure run and everything the criteria ask about it.
PinnedRun = namedtuple(
    "PinnedRun", "grid params f0 config trace snapshots equilibrium wall_seconds"
)


@_shared
def pinned_run(
    dim: int, diffusion_ref: str, boundary: Boundary, from_equilibrium: bool = False
) -> PinnedRun:
    """A pinned figure run, or its 50-step start from the discrete equilibrium."""
    overrides = dict(ic_ref="ic:eq", n_steps=50) if from_equilibrium else {}
    grid, pset, f0, config = materialize(
        _pinned_presets()[dim, diffusion_ref], boundary, **overrides
    )
    eq = equilibrium_state(pset, grid)
    snapshots: list[ScalarField] = []
    t0 = time.perf_counter()
    _final, trace = run(f0, pset, config, on_step=lambda k, t, f: snapshots.append(f))
    wall = time.perf_counter() - t0
    return PinnedRun(grid, pset, f0, config, trace, tuple(snapshots), eq, wall)


def _fit_1d(trace: EnergyTrace):
    """The F_rel decay fit over the 1D figure presets' window."""
    row = cli._EXPERIMENTS["fig-fe-1d-hom"]
    return fit_decay_rate(
        trace, "F_rel", transient_frac=row["fit_transient_frac"], floor_rel=row["fit_floor"]
    )


# The identity's three regimes, increasingly general, with their coefficients.
IDENTITY_REGIMES: tuple[tuple[Regime, str, str], ...] = (
    (Regime.HOMOGENEOUS, "D:homogeneous", "pi:unit"),
    (Regime.INHOMOGENEOUS_D, "D:single", "pi:unit"),
    (Regime.VARIABLE_MOBILITY, "D:single", "pi:standard"),
)


def identity_residual(
    regime: Regime, diffusion_ref: str, mobility_ref: str, n_cells: int
) -> tuple[IdentityReport, float]:
    """The d^2F/dt^2 identity at mid-trajectory and its normalized defect.

    A 1D periodic run from the default Gaussian with dt = 0.5 / (N^2 // 25),
    so space and time errors refine together, stopped one step past the
    snapshot at t ~ 0.25 (the last trace row the second difference of F
    reads).  The defect is the residual over the largest of |lhs|, |rhs|
    and the dissipation.
    """
    n_steps = n_cells**2 // 25
    grid = build_grid(1, n_cells, Boundary.PERIODIC)
    pset = build_parameter_set(1, diffusion_ref, n_cells, mobility_ref=mobility_ref)
    f0 = params_mod.get_initial_condition("ic:gauss", 1).build(grid)
    mid = n_steps // 2
    captured = {}

    def grab(k, t, f):
        if k == mid:
            captured[k] = (t, f)

    config = SolverConfig(t_final=(mid + 1) * (0.5 / n_steps), n_steps=mid + 1)
    _, trace = run(f0, pset, config, on_step=grab)
    t_mid, f_mid = captured[mid]
    fd_context = [(trace.t[k], trace.F[k]) for k in (mid - 1, mid, mid + 1)]
    report = diagnostics.second_derivative_identity(f_mid, pset, t_mid, regime, fd_context)
    scale = max(abs(report.lhs), abs(report.rhs), float(trace.D_dis[mid]))
    return report, report.residual / scale


def _chk_grid_telescoping() -> None:
    rng = np.random.default_rng(7)
    for bc in (Boundary.PERIODIC, Boundary.NOFLUX):
        grid = build_grid(1, 64, bc)
        f = ScalarField(grid, 1.0 + rng.random(grid.shape))
        total = grid.cell_volume * float(np.sum(face_divergence(face_gradient(f))))
        _require(abs(total) <= 1e-12, f"divergence sum {total:.3e} under {bc.value}")


def _chk_integrate_linearity() -> None:
    rng = np.random.default_rng(11)
    grid = build_grid(1, 50, Boundary.PERIODIC)
    a = rng.random(grid.shape)
    b = rng.random(grid.shape)
    lhs = integrate(ScalarField(grid, 2.5 * a - 0.75 * b))
    rhs = 2.5 * integrate(ScalarField(grid, a)) - 0.75 * integrate(ScalarField(grid, b))
    _require(abs(lhs - rhs) <= 1e-12, f"linearity defect {abs(lhs - rhs):.3e}")


def _chk_gradient_convergence() -> None:
    errs = []
    for n in (32, 64):
        grid = build_grid(1, n, Boundary.PERIODIC)
        f = ScalarField(grid, np.sin(np.pi * grid.centers_1d()))
        g = face_gradient(f).components[0]
        xf = -1.0 + np.arange(n) * grid.h
        errs.append(float(np.max(np.abs(g - np.pi * np.cos(np.pi * xf)))))
    ratio = errs[0] / errs[1]
    _require(ratio >= 1.8, f"gradient error ratio {ratio:.2f} under refinement")


def _chk_preset_gradients() -> None:
    pset = build_parameter_set(1, "D:multi", 20)
    xs = np.linspace(-0.9, 0.9, 17)
    step = 1e-6
    for label, f, g in (
        ("potential", pset.potential.evaluate, pset.potential.gradient[0]),
        ("diffusion", pset.diffusion.evaluate, pset.diffusion.gradient[0]),
    ):
        fd = (f(xs + step) - f(xs - step)) / (2 * step)
        err = float(np.max(np.abs(fd - g(xs))))
        _require(err <= 1e-5, f"{label} gradient mismatch {err:.3e}")
    t = 0.4
    fd = (pset.mobility.evaluate(xs + step, t) - pset.mobility.evaluate(xs - step, t)) / (2 * step)
    err = float(np.max(np.abs(fd - pset.mobility.gradient[0](xs, t))))
    _require(err <= 1e-5, f"mobility gradient mismatch {err:.3e}")
    fd_t = (pset.mobility.evaluate(xs, t + step) - pset.mobility.evaluate(xs, t - step)) / (2 * step)
    err = float(np.max(np.abs(fd_t - pset.mobility.time_derivative(xs, t))))
    _require(err <= 1e-4, f"mobility time-derivative mismatch {err:.3e}")


def _chk_equilibrium_residual() -> None:
    grid = build_grid(1, 128, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", 128)
    eq = equilibrium_state(pset, grid)
    mass = integrate(eq.density)
    _require(abs(mass - 1.0) <= 1e-12, f"equilibrium mass defect {abs(mass - 1):.3e}")
    disc = pset.discretize(grid)
    resid = float(np.max(np.abs(disc.D * np.log(eq.density.values) + disc.phi - eq.c1)))
    _require(resid <= 1e-12, f"equilibrium cell residual {resid:.3e}")


def _chk_equilibrium_stationarity() -> None:
    grid = build_grid(1, 64, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", 64)
    eq = equilibrium_state(pset, grid)
    _final, trace = run(eq.density, pset, SolverConfig(t_final=0.5, n_steps=10))
    worst_f = float(np.max(np.abs(trace.F_rel)))
    worst_d = float(np.max(trace.D_dis))
    _require(worst_f <= 1e-10, f"free-energy gap {worst_f:.3e} from equilibrium start")
    _require(worst_d <= 1e-10, f"dissipation {worst_d:.3e} from equilibrium start")


def _chk_mass_conservation() -> None:
    for bc in (Boundary.PERIODIC, Boundary.NOFLUX):
        trace = _workhorse(bc, "D:single")[5]
        drift = float(np.max(np.abs(trace.mass - trace.mass[0])))
        _require(drift <= 1e-11, f"mass drift {drift:.3e} under {bc.value}")


def _chk_positivity() -> None:
    for bc in (Boundary.PERIODIC, Boundary.NOFLUX):
        trace = _workhorse(bc, "D:single")[5]
        _require(np.all(trace.f_min > 0.0), f"nonpositive density under {bc.value}")


def _chk_energy_decay() -> None:
    for bc in (Boundary.PERIODIC, Boundary.NOFLUX):
        trace = _workhorse(bc, "D:single")[5]
        worst = float(np.max(np.diff(trace.F)))
        _require(worst <= 10 * 1e-10, f"energy increased by {worst:.3e} under {bc.value}")


def _chk_ckp() -> None:
    grid, pset, f0, _cfg, _final, _trace, snapshots = _workhorse(
        Boundary.PERIODIC, "D:single"
    )
    eq = equilibrium_state(pset, grid)
    for f in (f0,) + snapshots:
        report = diagnostics.ckp_check(f, eq)
        _require(report.holds, f"CKP violated: l1^2={report.l1 ** 2:.3e} > {report.bound:.3e}")


def _chk_max_principle() -> None:
    grid, pset, f0, _cfg, _final, _trace, snapshots = _workhorse(
        Boundary.PERIODIC, "D:single"
    )
    eq = equilibrium_state(pset, grid)
    lower, upper = diagnostics.max_principle_envelope(f0, eq, pset)
    slack = 5.0 * grid.h
    for f in snapshots:
        below = float(np.max(lower.values * (1 - slack) - f.values))
        above = float(np.max(f.values - upper.values * (1 + slack)))
        _require(below <= 0 and above <= 0, "variable-D envelope violated")
    # Constant diffusion: the conjugated scheme obeys the comparison
    # principle exactly, so the envelope holds to round-off.
    grid, pset, f0, _cfg, _final, _trace, snapshots = _workhorse(
        Boundary.PERIODIC, "D:homogeneous"
    )
    eq = equilibrium_state(pset, grid)
    lower, upper = diagnostics.max_principle_envelope(f0, eq, pset)
    for f in snapshots:
        below = float(np.max(lower.values - f.values))
        above = float(np.max(f.values - upper.values))
        _require(
            below <= 1e-10 and above <= 1e-10,
            f"constant-D envelope violated by {max(below, above):.3e}",
        )


def _chk_symmetry() -> None:
    final = _workhorse(Boundary.PERIODIC, "D:single")[4]
    asym = float(np.max(np.abs(final.values - np.flip(final.values))))
    _require(asym <= 1e-10, f"even-data symmetry broken by {asym:.3e}")


@_shared
def _oracle_case():
    """The linear 1D case both oracle checks read: its operator, f0 and 100-step implicit run."""
    grid = build_grid(1, 32, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:homogeneous", 32, mobility_ref="pi:unit")
    f0 = params_mod.get_initial_condition("ic:gauss", 1).build(grid)
    implicit, _ = run(f0, pset, SolverConfig(t_final=0.1, n_steps=100))
    return grid, pset, oracle.build_linear_operator(pset, grid), f0, implicit


def _chk_oracle_equivalence() -> None:
    grid, pset, op, f0, implicit = _oracle_case()
    eq = equilibrium_state(pset, grid)
    stat = float(np.max(np.abs(op.apply(eq.density.values))))
    _require(stat <= 1e-12, f"operator does not annihilate equilibrium: {stat:.3e}")
    dt = 1e-3
    stepped = solver.backward_euler_step(
        f0, pset, dt, dt, SolverConfig(t_final=dt, n_steps=1)
    )
    dense = np.linalg.solve(
        np.eye(grid.n_total) - dt * op.matrix.toarray(), f0.values.ravel()
    ).reshape(grid.shape)
    gap = float(np.max(np.abs(stepped.values - dense)))
    _require(gap <= 1e-12, f"implicit step deviates from dense solve by {gap:.3e}")
    reference = oracle.reference_evolve(op, f0, 0.1, dt=1e-5)
    l1 = grid.cell_volume * float(np.sum(np.abs(implicit.values - reference.values)))
    _require(l1 <= 5e-3, f"implicit vs reference L1 gap {l1:.3e}")


def _chk_oracle_heat_mode() -> None:
    grid = build_grid(1, 32, Boundary.PERIODIC)
    flat = ParameterSet(
        params_mod.PotentialField(
            evaluate=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            gradient=(lambda x: np.zeros_like(np.asarray(x, dtype=float)),),
            hessian=((lambda x: np.zeros_like(np.asarray(x, dtype=float)),),),
            name="phi:flat",
        ),
        params_mod.preset_diffusion_homogeneous(1),
        params_mod.preset_mobility_unit(1),
        name="heat",
    )
    op = oracle.build_linear_operator(flat, grid)
    x = grid.centers_1d()
    f0 = ScalarField(grid, 0.5 + 0.25 * np.cos(np.pi * x))
    out = oracle.reference_evolve(op, f0, 0.1, dt=2e-5)
    mu = 2.0 / grid.h**2 * (1.0 - np.cos(np.pi * grid.h))
    ratio = (out.values - 0.5) / (f0.values - 0.5)
    err = float(np.max(np.abs(ratio - np.exp(-mu * 0.1))))
    _require(err <= 1e-10, f"heat-mode decay factor off by {err:.3e}")
    mass_gap = abs(integrate(out) - integrate(f0))
    _require(mass_gap <= 1e-12, f"reference evolve mass drift {mass_gap:.3e}")


def _chk_decay_fit() -> None:
    t = np.linspace(0.0, 5.0, 100)
    y = 3.0 * np.exp(-2.0 * t)
    ones = np.ones_like(t)
    trace = EnergyTrace(t=t, mass=ones, F=y, F_rel=y, D_dis=y, f_min=ones, f_max=ones)
    fit = fit_decay_rate(trace, "F_rel")
    _require(abs(fit.rate - 2.0) <= 1e-9, f"synthetic rate {fit.rate!r}")
    _require(fit.r_squared >= 1.0 - 1e-12, f"synthetic r^2 {fit.r_squared!r}")
    scaled = EnergyTrace(
        t=t, mass=ones, F=y, F_rel=1e6 * y, D_dis=y, f_min=ones, f_max=ones
    )
    fit2 = fit_decay_rate(scaled, "F_rel")
    _require(abs(fit2.rate - fit.rate) <= 1e-9, "fit rate is not scale invariant")


def _chk_gronwall() -> None:
    value = diagnostics.gronwall_envelope(1.0, 1.0, 3.0, 0.5, 0.0)
    _require(abs(value - 3.0**-0.5) <= 1e-15, f"gronwall value {value!r}")
    later = diagnostics.gronwall_envelope(1.0, 1.0, 3.0, 0.5, 2.0)
    _require(later < value, "gronwall envelope is not decaying")
    try:
        diagnostics.gronwall_envelope(1.0, 1.0, 3.0, 1.0, 0.0)
    except ValueError:
        pass
    else:
        raise AssertionError("critical g0 was not rejected")


def _chk_mass_2d() -> None:
    # h = 0.125 cannot resolve the sharp default profile; widen and floor
    # the tail so the implicit solve stays inside Newton's basin.
    ic = params_mod.preset_gaussian_ic(2, variance=0.08, floor_rel=1e-10)
    for bc in (Boundary.PERIODIC, Boundary.NOFLUX):
        grid = build_grid(2, 16, bc)
        pset = build_parameter_set(2, "D:single", 16)
        f0 = ic.build(grid)
        _final, trace = run(f0, pset, SolverConfig(t_final=0.4, n_steps=8))
        drift = float(np.max(np.abs(trace.mass - trace.mass[0])))
        _require(drift <= 1e-11, f"2D mass drift {drift:.3e} under {bc.value}")
        _require(np.all(np.diff(trace.F) <= 1e-9), "2D energy increased")


def _chk_mass_3d() -> None:
    grid = build_grid(3, 8, Boundary.PERIODIC)
    pset = build_parameter_set(3, "D:single", 8)
    f0 = params_mod.preset_gaussian_ic(3, variance=0.04).build(grid)
    _final, trace = run(f0, pset, SolverConfig(t_final=0.2, n_steps=4))
    drift = float(np.max(np.abs(trace.mass - trace.mass[0])))
    _require(drift <= 1e-11, f"3D mass drift {drift:.3e}")
    _require(np.all(trace.f_min > 0.0), "3D positivity lost")


def _chk_step_refinement() -> None:
    grid = build_grid(1, 64, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:single", 64)
    f0 = params_mod.preset_gaussian_ic(1).build(grid)
    finals = {}
    for n in (8, 16, 256):
        finals[n], _ = run(f0, pset, SolverConfig(t_final=0.5, n_steps=n))
    e8 = grid.cell_volume * float(np.sum(np.abs(finals[8].values - finals[256].values)))
    e16 = grid.cell_volume * float(np.sum(np.abs(finals[16].values - finals[256].values)))
    ratio = e8 / e16
    _require(1.6 <= ratio <= 2.4, f"step-halving error ratio {ratio:.2f} (want ~2)")


def _chk_refined_functional() -> None:
    grid = build_grid(1, 40, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:homogeneous", 40)
    s2 = 0.01
    gauss = lambda x: np.exp(-(x**2) / (2 * s2)) / np.sqrt(2 * np.pi * s2)  # noqa: E731
    coarse = oracle.refined_functional(pset, "mass", gauss, 1, grid)
    fine = oracle.refined_functional(pset, "mass", gauss, 8, grid)
    _require(abs(coarse - fine) <= 1e-4, f"mass quadrature gap {abs(coarse - fine):.3e}")
    half = lambda x: 0.5 * np.ones_like(np.asarray(x, dtype=float))  # noqa: E731
    fe = oracle.refined_functional(pset, "free_energy", half, 1, grid)
    # For f = 1/2: integral of D f (log f - 1) is (-log2 - 1), plus the
    # well's exact mean 9/8 halved; the midpoint rule is exact for both.
    want = (-np.log(2.0) - 1.0) + 0.5 * 2.25
    _require(abs(fe - want) <= 1e-13, f"constant-field free energy off by {abs(fe - want):.3e}")


def _chk_self_convergence() -> str:
    """Second-order accuracy of the variable-D scheme against its own n = 1,600 run.

    1D periodic D:single from the untruncated variance-0.02 Gaussian, 400
    steps to t = 0.1; the reference's cells are averaged down to each grid.
    D:multi would not do: its modes depend on the cell count.
    """
    # 1.35 times the n = 200 error measured when the check was added (L1
    # errors 1.79e-3, 4.49e-4, 1.11e-4 at n = 50, 100, 200): room for a
    # flux change that costs a fifth in accuracy, not for a lost order.
    bound = 1.5e-4
    ic = params_mod.get_initial_condition("ic:gauss-v0.02", 1)
    config = SolverConfig(t_final=0.1, n_steps=400)
    finals = {}
    for n in (50, 100, 200, 1600):
        grid = build_grid(1, n, Boundary.PERIODIC)
        finals[n] = run(ic.build(grid), build_parameter_set(1, "D:single", n), config)[0]
    reference = finals.pop(1600).values
    errors = [
        f.grid.cell_volume * float(np.sum(np.abs(f.values - reference.reshape(n, -1).mean(1))))
        for n, f in finals.items()
    ]
    orders = [float(np.log2(e / e_next)) for e, e_next in zip(errors, errors[1:])]
    detail = (
        "L1 errors " + ", ".join(f"{e:.3e}" for e in errors) + " at n = 50, 100, 200; "
        "orders " + ", ".join(f"{q:.2f}" for q in orders)
        + f" (want >= 1.8); bound {bound:.1e} at n = 200"
    )
    _require(min(orders) >= 1.8 and errors[-1] <= bound, detail)
    return detail


# Acceptance criteria 01-11.  Each returns its one-line detail.

RUNTIME_BUDGET_SECONDS = {1: 5.0, 2: 60.0, 3: 600.0}


def _crit_mass_and_runtime() -> str:
    worst_drift, worst_key = 0.0, None
    slowest = {1: 0.0, 2: 0.0, 3: 0.0}
    for dim, diff, bc in pinned_keys():
        r = pinned_run(dim, diff, bc)
        drift = float(np.max(np.abs(r.trace.mass - 1.0)))
        if drift >= worst_drift:
            worst_drift, worst_key = drift, (dim, diff, bc.value)
        slowest[dim] = max(slowest[dim], r.wall_seconds)
    detail = (
        f"max |mass-1| = {worst_drift:.2e} at {worst_key}; slowest runs "
        f"1D {slowest[1]:.2f}s, 2D {slowest[2]:.2f}s, 3D {slowest[3]:.1f}s"
    )
    _require(worst_drift <= 1e-11, detail)
    _require(all(slowest[d] < RUNTIME_BUDGET_SECONDS[d] for d in slowest), detail)
    return detail


def _crit_energy_decay() -> str:
    worst_rise, worst_key, tol = -np.inf, None, None
    for dim, diff, bc in pinned_keys():
        r = pinned_run(dim, diff, bc)
        tol = 10.0 * r.config.newton_tol
        rise = float(np.max(np.diff(r.trace.F)))
        if rise > worst_rise:
            worst_rise, worst_key = rise, (dim, diff, bc.value)
    detail = f"max step increase of F = {worst_rise:.2e} at {worst_key} (tol {tol:.0e})"
    _require(worst_rise <= tol, detail)
    return detail


def _crit_exponential_decay() -> str:
    worst_r2, worst_key = 1.0, None
    for dim, diff, bc in pinned_keys():
        if dim == 1:
            r2 = _fit_1d(pinned_run(dim, diff, bc).trace).r_squared
            if r2 < worst_r2:
                worst_r2, worst_key = r2, (diff, bc.value)
    detail = f"min r^2 over six 1D panels = {worst_r2:.5f} at {worst_key}"
    _require(worst_r2 > 0.99, detail)
    return detail


def _crit_rate_ordering() -> str:
    rate = {diff: _fit_1d(pinned_run(1, diff, Boundary.PERIODIC).trace).rate
            for dim, diff in _pinned_presets() if dim == 1}
    hom, single, multi = rate["D:homogeneous"], rate["D:single"], rate["D:multi"]
    detail = f"rates: multi {multi:.3f} > hom {hom:.3f} > single {single:.3f}"
    _require(multi >= 1.05 * hom and hom >= 1.05 * single, detail)
    return detail


def _crit_boundary_discrepancy() -> str:
    rates = {}
    for n in (40, 80):
        for bc in Boundary:
            _grid, pset, f0, config = materialize("fig-fe-2d-fine-D1", bc, n_cells=n)
            rates[n, bc] = _fit_1d(run(f0, pset, config)[1]).rate
    delta = {n: abs(rates[n, Boundary.PERIODIC] - rates[n, Boundary.NOFLUX]) for n in (40, 80)}
    scale = max(rates.values())
    detail = (
        f"|rate_p - rate_nf|: N=40 {delta[40]:.2e}, N=80 {delta[80]:.2e} (rates ~ {scale:.3f})"
    )
    # The even-symmetric presets make both boundary stencils coincide, so
    # the discrepancy can already sit at round-off on the coarse grid; the
    # second branch accepts that fully-converged regime.
    _require(delta[80] <= 0.6 * delta[40] or max(delta.values()) <= 1e-4 * scale, detail)
    return detail


def _crit_equilibrium_stationarity() -> str:
    worst_frel, worst_ddis, worst_key = 0.0, 0.0, None
    for dim, diff, bc in pinned_keys():
        trace = pinned_run(dim, diff, bc, from_equilibrium=True).trace
        frel, ddis = float(np.max(np.abs(trace.F_rel))), float(np.max(trace.D_dis))
        if max(frel, ddis) >= max(worst_frel, worst_ddis):
            worst_key = (dim, diff, bc.value)
        worst_frel, worst_ddis = max(worst_frel, frel), max(worst_ddis, ddis)
    detail = (
        f"50-step equilibrium starts: max |F_rel| = {worst_frel:.2e}, "
        f"max D_dis = {worst_ddis:.2e} (worst {worst_key})"
    )
    _require(worst_frel <= 1e-10 and worst_ddis <= 1e-10, detail)
    return detail


def _crit_oracle_equivalence() -> str:
    grid, pset, op, f0, implicit = _oracle_case()
    reference = oracle.reference_evolve(op, f0, t_end=0.1, dt=1e-6).values
    final, _ = run(f0, pset, SolverConfig(t_final=0.1, n_steps=200))
    errors = {
        n_steps: grid.cell_volume * float(np.sum(np.abs(f.values - reference)))
        for n_steps, f in ((100, implicit), (200, final))
    }
    ratio = errors[200] / errors[100]
    detail = f"L1 vs reference at t=0.1: {errors[100]:.2e} (dt 1e-3), halving ratio {ratio:.3f}"
    _require(errors[100] <= 5e-3 and 0.4 <= ratio <= 0.6, detail)
    return detail


def _crit_max_principle() -> str:
    worst_margin = -np.inf  # violation minus allowed slack, variable-D runs
    worst_const = 0.0       # absolute violation, constant-D runs
    for dim, diff, bc in pinned_keys():
        r = pinned_run(dim, diff, bc)
        lower, upper = diagnostics.max_principle_envelope(r.f0, r.equilibrium, r.params)
        for f in (r.f0, *r.snapshots):
            violation = max(
                float(np.max(lower.values - f.values)), float(np.max(f.values - upper.values))
            )
            worst_margin = max(worst_margin, violation - 5.0 * r.grid.h)
            if diff == "D:homogeneous":
                worst_const = max(worst_const, violation)
    detail = (
        f"worst violation-minus-5h = {worst_margin:.2e}; "
        f"constant-D worst violation = {worst_const:.2e}"
    )
    _require(worst_margin <= 0.0 and worst_const <= 1e-10, detail)
    return detail


def _crit_ckp() -> str:
    reports = [
        diagnostics.ckp_check(f, r.equilibrium)
        for r in (pinned_run(*key) for key in pinned_keys())
        for f in (r.f0, *r.snapshots)
    ]
    worst = max(report.l1**2 - report.bound for report in reports)
    detail = f"max l1^2 - bound over all snapshots = {worst:.2e}"
    _require(all(report.holds for report in reports), detail)
    return detail


def _crit_identity_ladder() -> str:
    ok, parts = True, []
    for regime, diff, mob in IDENTITY_REGIMES:
        residuals = [identity_residual(regime, diff, mob, n)[1] for n in (50, 100, 200, 400)]
        ok &= all(a > b for a, b in zip(residuals, residuals[1:]))
        parts.append(f"{regime.value}: " + " > ".join(f"{r:.2e}" for r in residuals))
    detail = "; ".join(parts)
    _require(ok, detail)
    return detail


def _crit_dissipation_decay() -> str:
    _grid, pset, f0, config = materialize("quad-dd-1d", Boundary.NOFLUX)
    fit = fit_decay_rate(run(f0, pset, config)[1], quantity="D_dis")
    detail = (
        f"D_dis fit: rate {fit.rate:.3f} (floor 1.4), r^2 {fit.r_squared:.5f}, "
        f"window [{fit.window[0]:.2f}, {fit.window[1]:.2f}], n {fit.n_points}"
    )
    # Convexity constant 1 => theoretical floor 2, tested with 30% slack.
    _require(fit.rate >= 1.4 and fit.r_squared > 0.99, detail)
    return detail


FAST: list[tuple[str, Callable[[], Optional[str]]]] = [
    ("grid-telescoping", _chk_grid_telescoping),
    ("integrate-linearity", _chk_integrate_linearity),
    ("gradient-convergence", _chk_gradient_convergence),
    ("preset-gradients", _chk_preset_gradients),
    ("equilibrium-residual", _chk_equilibrium_residual),
    ("equilibrium-stationarity", _chk_equilibrium_stationarity),
    ("mass-conservation", _chk_mass_conservation),
    ("positivity", _chk_positivity),
    ("discrete-energy-decay", _chk_energy_decay),
    ("ckp-bound", _chk_ckp),
    ("max-principle-envelope", _chk_max_principle),
    ("even-symmetry", _chk_symmetry),
    ("oracle-equivalence", _chk_oracle_equivalence),
    ("oracle-heat-mode", _chk_oracle_heat_mode),
    ("decay-fit", _chk_decay_fit),
    ("gronwall-envelope", _chk_gronwall),
]

FULL: list[tuple[str, Callable[[], Optional[str]]]] = [
    ("mass-conservation-2d", _chk_mass_2d),
    ("mass-conservation-3d", _chk_mass_3d),
    ("step-refinement", _chk_step_refinement),
    ("refined-functional", _chk_refined_functional),
    ("self-convergence-variable-d", _chk_self_convergence),
    ("criterion-01-mass-conservation-and-runtime", _crit_mass_and_runtime),
    ("criterion-02-discrete-energy-decay", _crit_energy_decay),
    ("criterion-03-exponential-decay-six-panels", _crit_exponential_decay),
    ("criterion-04-rate-ordering", _crit_rate_ordering),
    ("criterion-05-boundary-discrepancy-under-refinement", _crit_boundary_discrepancy),
    ("criterion-06-equilibrium-stationarity", _crit_equilibrium_stationarity),
    ("criterion-07-oracle-equivalence", _crit_oracle_equivalence),
    ("criterion-08-maximum-principle-envelope", _crit_max_principle),
    ("criterion-09-ckp-inequality", _crit_ckp),
    ("criterion-10-identity-residual-ladder", _crit_identity_ladder),
    ("criterion-11-dissipation-decay-quadratic-potential", _crit_dissipation_decay),
]
