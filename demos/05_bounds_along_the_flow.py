# Pointwise and integral bounds along a trajectory
# =================================================
#
# Two a-priori controls come with the continuous equation and survive
# discretization, and both are cheap to monitor:
#
#   * a maximum principle: f(x, t) stays inside an envelope built from
#     the initial ratio f0/f_eq (exactly preserved when D is constant;
#     up to O(h) slack when D varies),
#   * the CKP inequality: ||f - f_eq||_1^2 <= 2 * relative entropy, so
#     the L1 distance to equilibrium is controlled by an integral that
#     the energy trace already tracks.

import numpy as np

from fpflow import Boundary, SolverConfig, build_grid, equilibrium_state, run
from fpflow.diagnostics import ckp_check, max_principle_envelope, relative_entropy
from fpflow.params import build_parameter_set, get_initial_condition

grid = build_grid(1, 200, Boundary.NOFLUX)
params = build_parameter_set(1, "D:homogeneous", grid.n_cells, mobility_ref="pi:unit")
eq = equilibrium_state(params, grid)
f0 = get_initial_condition("ic:gauss-reg", 1).build(grid)

lower, upper = max_principle_envelope(f0, eq, params)
print("envelope from the initial ratio f0/f_eq:")
print(f"  lower barrier range [{lower.values.min():.3e}, {lower.values.max():.3e}]")
print(f"  upper barrier range [{upper.values.min():.3f}, {upper.values.max():.3f}]")

snapshots = []
_, trace = run(
    f0, params, SolverConfig(t_final=2.0, n_steps=40),
    on_step=lambda k, t, f: snapshots.append((t, f)),
)

print("\n   t      envelope defect   l1 distance   sqrt(CKP bound)")
for t, f in snapshots[::8]:
    defect = max(
        float(np.max(lower.values - f.values)),
        float(np.max(f.values - upper.values)),
    )
    report = ckp_check(f, eq)
    print(f"  {t:4.2f}     {defect:+.3e}      {report.l1:.3e}     {np.sqrt(report.bound):.3e}")
    assert report.holds

# With constant D the envelope is exact: the defect never rises above
# round-off, and the CKP bound caps the L1 distance at every time.
ent = relative_entropy(snapshots[-1][1], eq, params)
print(f"\nfinal relative entropy = {ent:.3e}")
