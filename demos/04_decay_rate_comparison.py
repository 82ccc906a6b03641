# How the diffusion landscape shapes the decay rate
# ==================================================
#
# Same potential, same mobility, same initial hump -- three different
# diffusion fields:
#
#   D:homogeneous   D(x) = 1 everywhere
#   D:single        one long-wavelength dip (slow pocket)
#   D:multi         many small ripples around 1
#
# The free-energy gap decays exponentially in each case, but the rates
# order themselves: the rippled field relaxes fastest, the constant field
# sits in the middle, and the single slow pocket drags the rate down.
# Boundary treatment barely matters at this resolution, so the run uses
# the periodic wrap.

import numpy as np

from fpflow import Boundary, SolverConfig, build_grid, run
from fpflow.diagnostics import fit_decay_rate
from fpflow.params import build_parameter_set, get_initial_condition
from fpflow.svgplot import semilogy_svg

grid = build_grid(1, 200, Boundary.PERIODIC)
f0 = get_initial_condition("ic:gauss", 1).build(grid)
config = SolverConfig(t_final=2.5, n_steps=50)

series = []
rates = {}
for ref in ("D:homogeneous", "D:single", "D:multi"):
    params = build_parameter_set(1, ref, grid.n_cells)
    _, trace = run(f0, params, config)
    fit = fit_decay_rate(trace, "F_rel", transient_frac=0.02, floor_rel=3e-15)
    rates[ref] = fit.rate
    series.append((ref, trace.t, trace.F_rel))
    print(f"{ref:15s} rate = {fit.rate:7.3f}   r^2 = {fit.r_squared:.5f}")

assert rates["D:multi"] > rates["D:homogeneous"] > rates["D:single"]
print("\nordering confirmed: multi > homogeneous > single")

with open("decay_rate_comparison.svg", "w", encoding="utf-8") as fh:
    fh.write(semilogy_svg(series, title="free-energy gap, three diffusion fields"))
print("wrote decay_rate_comparison.svg")
