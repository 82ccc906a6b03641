# Computing the stationary density
# =================================
#
# For coefficients D(x) and phi(x) the dynamics relax toward
#
#     f_eq(x) = exp((C1 - phi(x)) / D(x)),
#
# where the constant C1 is fixed by requiring unit mass on the grid
# quadrature.  With constant D this is just a normalized Gibbs measure;
# with variable D the normalization must be solved numerically, which is
# what `equilibrium_state` does.  The payoff: the discrete flux vanishes
# *identically* on f_eq, so it is a fixed point of the solver, not merely
# an attractor.

import numpy as np

from fpflow import Boundary, build_grid, equilibrium_state
from fpflow.params import build_parameter_set
from fpflow.solver import assemble_flux

grid = build_grid(1, 200, Boundary.NOFLUX)
params = build_parameter_set(1, "D:single", grid.n_cells)

eq = equilibrium_state(params, grid)
x = grid.centers_1d()
feq = eq.density.values

print(f"normalization constant C1 = {eq.c1:.12f}")
print(f"equilibrium free energy   = {eq.free_energy:.12f}")
print(f"discrete mass             = {grid.cell_volume * feq.sum():.15f}")
print(f"density range             = [{feq.min():.6f}, {feq.max():.6f}]")

# The multiplier D log f_eq + phi is constant across the box -- that is
# exactly the statement that the transport velocity vanishes.
mu = params.diffusion.on_grid(grid) * np.log(feq) + params.potential.on_grid(grid)
print(f"multiplier spread         = {mu.max() - mu.min():.3e}")

# And the assembled face flux is zero to round-off at any time.
for t in (0.0, 0.7):
    j = assemble_flux(eq.density, params, t)
    print(f"max |flux| on f_eq at t={t}: {j.max_abs():.3e}")

# A few profile values along the interval.
print("\n    x        f_eq(x)")
for k in range(0, grid.n_cells, 25):
    print(f"  {x[k]:+.3f}   {feq[k]:.6f}")
