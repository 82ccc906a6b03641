# Verifying the second-derivative structure of the energy decay
# ==============================================================
#
# Differentiating the free energy twice along the flow produces an exact
# expansion of d^2F/dt^2 in terms of the transport velocity, its
# derivatives, and the analytic derivatives of the coefficients.  The
# diagnostics module evaluates that expansion on a single snapshot; the
# trace supplies an independent left-hand side as a second difference of
# F.  The two must agree up to discretization error -- so the normalized
# residual has to fall as the grid and the time step refine together.
#
# Three regimes, increasingly general:
#   homogeneous        D constant, mobility one     (shortest expansion)
#   inhomogeneous-d    D(x) varies, mobility one    (+ diffusion couplings)
#   variable-mobility  D(x) and pi(x, t) both vary  (+ mobility couplings)

from fpflow.checks import IDENTITY_REGIMES, identity_residual

# Each rung is a 1D periodic run with dt ~ 1/N^2, which keeps both error
# sources in step; the snapshot sits at mid-trajectory.
for regime, diff, mob in IDENTITY_REGIMES:
    print(f"--- {regime.value}  ({diff}, {mob})")
    print("    N     lhs          rhs          normalized residual")
    for n_cells in (50, 100, 200):
        report, normalized = identity_residual(regime, diff, mob, n_cells)
        print(f"  {n_cells:4d}   {report.lhs:+.4e}  {report.rhs:+.4e}   {normalized:.3e}")
    print()
