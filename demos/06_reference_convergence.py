# Checking the implicit solver against a brute-force reference
# =============================================================
#
# When D is constant and the mobility is one, the semi-discrete system is
# linear: df/dt = L f for an explicit sparse matrix L.  The oracle module
# probes that matrix out of the production flux assembly, one bump per
# colour of non-overlapping columns, and integrates it with classic RK4
# at a tiny step (each step one sparse matrix), giving an independent
# reference solution.  Comparing the implicit solver against it at a
# sequence of halved steps exposes the expected clean first-order error.

import numpy as np

from fpflow import Boundary, SolverConfig, build_grid, run
from fpflow.oracle import build_linear_operator, reference_evolve
from fpflow.params import build_parameter_set, get_initial_condition

grid = build_grid(1, 64, Boundary.PERIODIC)
params = build_parameter_set(1, "D:homogeneous", grid.n_cells, mobility_ref="pi:unit")
f0 = get_initial_condition("ic:gauss", 1).build(grid)

op = build_linear_operator(params, grid)
print(f"sparse generator: {op.matrix.shape}, "
      f"max column-sum defect = {np.max(np.abs(op.matrix.sum(axis=0))):.2e}")

t_end = 0.1
reference = reference_evolve(op, f0, t_end=t_end, dt=1e-5)

print("\n  n_steps      dt        L1 error     ratio")
previous = None
for n_steps in (25, 50, 100, 200):
    final, _ = run(f0, params, SolverConfig(t_final=t_end, n_steps=n_steps))
    err = grid.cell_volume * float(np.sum(np.abs(final.values - reference.values)))
    ratio = "" if previous is None else f"{err / previous:.3f}"
    print(f"  {n_steps:7d}   {t_end / n_steps:.1e}   {err:.3e}    {ratio}")
    previous = err

print("\nratios near 0.5 = first order in time, as the implicit stepper promises")
