# Relaxation of a sharp Gaussian, start to finish
# ================================================
#
# The core loop of the library: take an initial density, step it with the
# implicit solver, and watch the free energy
#
#     F[f] = integral of D f (log f - 1) + f phi
#
# fall monotonically toward its equilibrium value while mass stays pinned
# at one.  The run below uses the variable-diffusion preset on a 200-cell
# interval, fits the exponential tail of F - F_eq, and renders the decay
# curves to a small self-contained SVG next to this script's working
# directory.

import numpy as np

from fpflow import Boundary, SolverConfig, build_grid, run
from fpflow.cli import _EXPERIMENTS
from fpflow.diagnostics import fit_decay_rate
from fpflow.params import build_parameter_set, get_initial_condition
from fpflow.svgplot import semilogy_svg

# The settings of the `fpflow run fig-fe-1d-D1` experiment.
exp = _EXPERIMENTS["fig-fe-1d-D1"]
grid = build_grid(1, exp["n_cells"], Boundary.PERIODIC)
params = build_parameter_set(1, exp["diffusion_ref"], grid.n_cells)
f0 = get_initial_condition(exp["ic_ref"], 1).build(grid)
config = SolverConfig(t_final=exp["t_final"], n_steps=exp["n_steps"])

final, trace = run(f0, params, config)

print(f"steps: {config.n_steps}, dt = {config.t_final / config.n_steps}")
print(f"max |mass - 1| over the run : {np.max(np.abs(trace.mass - 1.0)):.2e}")
print(f"largest single-step F change: {np.max(np.diff(trace.F)):+.2e}")
print(f"F start -> end              : {trace.F[0]:+.6f} -> {trace.F[-1]:+.6f}")
print(f"density min/max at the end  : {final.values.min():.4e} / {final.values.max():.4f}")

# Fit log(F - F_eq) = intercept - rate * t on the clean part of the curve.
fit = fit_decay_rate(
    trace, "F_rel", transient_frac=exp["fit_transient_frac"], floor_rel=exp["fit_floor"]
)
print(
    f"decay fit: rate = {fit.rate:.4f}, r^2 = {fit.r_squared:.6f}, "
    f"window = [{fit.window[0]:.2f}, {fit.window[1]:.2f}], {fit.n_points} points"
)

svg = semilogy_svg(
    [("F - F_eq", trace.t, trace.F_rel), ("dissipation", trace.t, trace.D_dis)],
    title="free-energy gap and dissipation",
    ylabel="log scale",
)
with open("relaxation_demo.svg", "w", encoding="utf-8") as fh:
    fh.write(svg)
print("wrote relaxation_demo.svg")
