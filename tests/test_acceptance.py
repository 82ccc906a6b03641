"""Acceptance battery: eleven criteria evaluated on the pinned preset runs.

Each test covers one criterion, records a single PASS/FAIL line (replayed
in the terminal summary by conftest), and then asserts.  The expensive
figure-preset runs are computed once per session and shared.
"""

import numpy as np

from fpflow import Boundary, SolverConfig, build_grid, run
from fpflow.checks import IDENTITY_REGIMES, identity_residual
from fpflow.diagnostics import (
    ckp_check,
    fit_decay_rate,
    max_principle_envelope,
)
from fpflow.oracle import build_linear_operator, reference_evolve
from fpflow.params import get_initial_condition
from tests.conftest import (
    BOUNDARIES,
    DIFFUSION_REFS,
    FIT_KWARGS,
    all_preset_keys,
    build_parameter_set,
    materialize,
    record_acceptance,
)

RUNTIME_BUDGET_SECONDS = {1: 5.0, 2: 60.0, 3: 600.0}


def check(number: int, label: str, ok: bool, detail: str) -> None:
    line = record_acceptance(number, label, ok, detail)
    assert ok, line


def test_criterion_01_mass_conservation_and_runtime(preset_run):
    worst_drift, worst_key = 0.0, None
    slowest = {1: 0.0, 2: 0.0, 3: 0.0}
    for dim, diff, bc in all_preset_keys():
        r = preset_run(dim, diff, bc)
        drift = float(np.max(np.abs(r.trace.mass - 1.0)))
        if drift >= worst_drift:
            worst_drift, worst_key = drift, (dim, diff, bc.value)
        slowest[dim] = max(slowest[dim], r.wall_seconds)
    within_budget = all(slowest[d] < RUNTIME_BUDGET_SECONDS[d] for d in slowest)
    ok = worst_drift <= 1e-11 and within_budget
    detail = (
        f"max |mass-1| = {worst_drift:.2e} at {worst_key}; slowest runs "
        f"1D {slowest[1]:.2f}s, 2D {slowest[2]:.2f}s, 3D {slowest[3]:.1f}s"
    )
    check(1, "mass conservation + runtime", ok, detail)


def test_criterion_02_discrete_energy_decay(preset_run):
    worst_rise, worst_key, tol = -np.inf, None, None
    for dim, diff, bc in all_preset_keys():
        r = preset_run(dim, diff, bc)
        tol = 10.0 * r.config.newton_tol
        rise = float(np.max(np.diff(r.trace.F)))
        if rise > worst_rise:
            worst_rise, worst_key = rise, (dim, diff, bc.value)
    ok = worst_rise <= tol
    detail = f"max step increase of F = {worst_rise:.2e} at {worst_key} (tol {tol:.0e})"
    check(2, "discrete energy decay", ok, detail)


def test_criterion_03_exponential_decay_six_panels(preset_run):
    worst_r2, worst_key = 1.0, None
    for diff in DIFFUSION_REFS:
        for bc in BOUNDARIES:
            r = preset_run(1, diff, bc)
            fit = fit_decay_rate(r.trace, "F_rel", **FIT_KWARGS)
            if fit.r_squared < worst_r2:
                worst_r2, worst_key = fit.r_squared, (diff, bc.value)
    ok = worst_r2 > 0.99
    detail = f"min r^2 over six 1D panels = {worst_r2:.5f} at {worst_key}"
    check(3, "exponential free-energy decay", ok, detail)


def test_criterion_04_rate_ordering(preset_run):
    rates = {
        diff: fit_decay_rate(
            preset_run(1, diff, Boundary.PERIODIC).trace, "F_rel", **FIT_KWARGS
        ).rate
        for diff in DIFFUSION_REFS
    }
    r_hom, r_single, r_multi = (
        rates["D:homogeneous"], rates["D:single"], rates["D:multi"]
    )
    ok = r_multi >= 1.05 * r_hom and r_hom >= 1.05 * r_single
    detail = f"rates: multi {r_multi:.3f} > hom {r_hom:.3f} > single {r_single:.3f}"
    check(4, "decay-rate ordering", ok, detail)


def _bc_rate_2d(n_cells: int, boundary: Boundary) -> float:
    _grid, pset, f0, config = materialize("fig-fe-2d-fine-D1", boundary, n_cells=n_cells)
    _, trace = run(f0, pset, config)
    return fit_decay_rate(trace, "F_rel", **FIT_KWARGS).rate


def test_criterion_05_bc_discrepancy_shrinks_under_refinement():
    rates = {
        (n, bc): _bc_rate_2d(n, bc) for n in (40, 80) for bc in BOUNDARIES
    }
    delta40 = abs(rates[40, Boundary.PERIODIC] - rates[40, Boundary.NOFLUX])
    delta80 = abs(rates[80, Boundary.PERIODIC] - rates[80, Boundary.NOFLUX])
    scale = max(rates.values())
    # The even-symmetric presets make both boundary stencils coincide, so
    # the discrepancy can already sit at round-off on the coarse grid; the
    # second branch accepts that fully-converged regime.
    ok = (delta80 <= 0.6 * delta40) or max(delta40, delta80) <= 1e-4 * scale
    detail = (
        f"|rate_p - rate_nf|: N=40 {delta40:.2e}, N=80 {delta80:.2e} "
        f"(rates ~ {scale:.3f})"
    )
    check(5, "boundary discrepancy under refinement", ok, detail)


def test_criterion_06_equilibrium_stationarity(equilibrium_run):
    worst_frel, worst_ddis, worst_key = 0.0, 0.0, None
    for dim, diff, bc in all_preset_keys():
        r = equilibrium_run(dim, diff, bc)
        frel = float(np.max(np.abs(r.trace.F_rel)))
        ddis = float(np.max(r.trace.D_dis))
        if max(frel, ddis) >= max(worst_frel, worst_ddis):
            worst_key = (dim, diff, bc.value)
        worst_frel = max(worst_frel, frel)
        worst_ddis = max(worst_ddis, ddis)
    ok = worst_frel <= 1e-10 and worst_ddis <= 1e-10
    detail = (
        f"50-step equilibrium starts: max |F_rel| = {worst_frel:.2e}, "
        f"max D_dis = {worst_ddis:.2e} (worst {worst_key})"
    )
    check(6, "equilibrium stationarity", ok, detail)


def test_criterion_07_oracle_equivalence_linear_case():
    grid = build_grid(1, 32, Boundary.PERIODIC)
    pset = build_parameter_set(1, "D:homogeneous", 32, mobility_ref="pi:unit")
    f0 = get_initial_condition("ic:gauss", 1).build(grid)
    reference = reference_evolve(build_linear_operator(pset, grid), f0,
                                 t_end=0.1, dt=1e-6)
    errors = {}
    for n_steps in (100, 200):
        final, _ = run(f0, pset, SolverConfig(t_final=0.1, n_steps=n_steps))
        errors[n_steps] = grid.cell_volume * float(
            np.sum(np.abs(final.values - reference.values))
        )
    ratio = errors[200] / errors[100]
    ok = errors[100] <= 5e-3 and 0.4 <= ratio <= 0.6
    detail = (
        f"L1 vs reference at t=0.1: {errors[100]:.2e} (dt 1e-3), "
        f"halving ratio {ratio:.3f}"
    )
    check(7, "implicit solver matches linear reference", ok, detail)


def test_criterion_08_maximum_principle_envelope(preset_run):
    worst_margin = -np.inf  # violation minus allowed slack, variable-D runs
    worst_const = 0.0       # absolute violation, constant-D runs
    for dim, diff, bc in all_preset_keys():
        r = preset_run(dim, diff, bc)
        lower, upper = max_principle_envelope(r.f0, r.equilibrium, r.params)
        slack = 5.0 * r.grid.h
        for f in (r.f0, *r.snapshots):
            violation = max(
                float(np.max(lower.values - f.values)),
                float(np.max(f.values - upper.values)),
            )
            worst_margin = max(worst_margin, violation - slack)
            if diff == "D:homogeneous":
                worst_const = max(worst_const, violation)
    ok = worst_margin <= 0.0 and worst_const <= 1e-10
    detail = (
        f"worst violation-minus-5h = {worst_margin:.2e}; "
        f"constant-D worst violation = {worst_const:.2e}"
    )
    check(8, "maximum-principle envelope", ok, detail)


def test_criterion_09_ckp_inequality_on_snapshots(preset_run):
    all_hold, worst_excess = True, -np.inf
    for dim, diff, bc in all_preset_keys():
        r = preset_run(dim, diff, bc)
        for f in (r.f0, *r.snapshots):
            report = ckp_check(f, r.equilibrium)
            all_hold &= report.holds
            worst_excess = max(worst_excess, report.l1**2 - report.bound)
    detail = f"max l1^2 - bound over all snapshots = {worst_excess:.2e}"
    check(9, "CKP inequality", all_hold, detail)


def test_criterion_10_identity_residual_ladder():
    ladder = (100, 200, 400)
    ok, parts = True, []
    for regime, diff, mob in IDENTITY_REGIMES:
        residuals = [identity_residual(regime, diff, mob, n)[1] for n in ladder]
        decreasing = all(a > b for a, b in zip(residuals, residuals[1:]))
        ok &= decreasing
        parts.append(
            f"{regime.value}: " + " > ".join(f"{r:.2e}" for r in residuals)
        )
    check(10, "second-derivative identity refinement", ok, "; ".join(parts))


def test_criterion_11_dissipation_decay_quadratic_potential():
    grid = build_grid(1, 200, Boundary.NOFLUX)
    pset = build_parameter_set(1, "D:homogeneous", 200,
                               mobility_ref="pi:unit",
                               potential_ref="phi:quad")
    f0 = get_initial_condition("ic:gauss", 1).build(grid)
    _, trace = run(f0, pset, SolverConfig(t_final=9.0, n_steps=180))
    fit = fit_decay_rate(trace, quantity="D_dis")
    # Convexity constant 1 => theoretical floor 2, tested with 30% slack.
    ok = fit.rate >= 1.4 and fit.r_squared > 0.99
    detail = (
        f"D_dis fit: rate {fit.rate:.3f} (floor 1.4), r^2 {fit.r_squared:.5f}, "
        f"window [{fit.window[0]:.2f}, {fit.window[1]:.2f}], n {fit.n_points}"
    )
    check(11, "dissipation decay with quadratic potential", ok, detail)
