"""Robustness sweep: fixed grids of small unregularized Gaussian runs in 1D, 2D and 3D.

    PYTHONPATH=src python tools/sweep.py [--dim 1 2 3] [--out sweep.json]

Each case runs ``solver.run`` from ``preset_gaussian_ic(dim, variance)``
(no tail floor) with ``D:single`` or ``D:multi`` on a periodic or no-flux
grid, for every cell count, variance and horizon of its dimension below.
The output is a JSON list with one record per case: the case, its outcome
(``ok``, or ``NonConvergence`` or ``PositivityLoss`` with the error's
message), its wall seconds, its number of SuperLU (``splu``)
factorizations (1D and 2D; always 0 in 3D, which solves by BiCGSTAB
alone), and its number of BiCGSTAB iterations (3D only); for ``ok``
runs also the mass drift, max |mass - mass_0|, and the largest rise of F
between consecutive steps (negative when F fell at every step).  A
summary line per dimension goes to stdout, with the totals of ``splu``
calls and BiCGSTAB iterations and the number of finishing runs that made
any ``splu`` call.

The sweep measures; it is not a gate, and its cases are fixed: change
them only with a CHANGES.md entry, never to make a change look better.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import time

import numpy as np

import fpflow.solver
from fpflow import (
    Boundary, NonConvergence, PositivityLoss, SolverConfig, build_grid, preset_gaussian_ic, run,
)
from fpflow.params import build_parameter_set

# dim -> (cell counts, variances, horizons as (t_final, n_steps))
CASES = {
    1: ((8, 16, 24, 32), (0.005, 0.01, 0.02), ((0.5, 10), (2.5, 50))),
    2: ((10, 20, 30, 40), (0.005, 0.01, 0.02), ((0.4, 8), (1.0, 10))),
    3: ((6, 8, 10), (0.03, 0.04, 0.05, 0.06, 0.08), ((0.2, 4), (0.5, 5))),
}
DIFFUSIONS = ("D:single", "D:multi")
BOUNDARIES = (Boundary.PERIODIC, Boundary.NOFLUX)


@contextlib.contextmanager
def counting_solves():
    """Count the solver's ``splu`` calls and BiCGSTAB iterations inside the block.

    Yields a dict with the keys ``splu_calls`` and ``bicgstab_iterations``
    that fills as the block runs.
    """
    counts = {"splu_calls": 0, "bicgstab_iterations": 0}
    splu, bicgstab = fpflow.solver.splu, fpflow.solver.bicgstab

    def counted_splu(*args, **kwargs):
        counts["splu_calls"] += 1
        return splu(*args, **kwargs)

    def counted_bicgstab(*args, **kwargs):
        def callback(_xk):
            counts["bicgstab_iterations"] += 1

        return bicgstab(*args, callback=callback, **kwargs)

    fpflow.solver.splu, fpflow.solver.bicgstab = counted_splu, counted_bicgstab
    try:
        yield counts
    finally:
        fpflow.solver.splu, fpflow.solver.bicgstab = splu, bicgstab


def run_case(dim: int, n_cells: int, variance: float, t_final: float, n_steps: int,
             diffusion: str, boundary: Boundary) -> dict:
    """One sweep case as a JSON-ready record."""
    record = dict(dim=dim, n_cells=n_cells, variance=variance, t_final=t_final,
                  n_steps=n_steps, diffusion=diffusion, boundary=boundary.value)
    grid = build_grid(dim, n_cells, boundary)
    f0 = preset_gaussian_ic(dim, variance=variance).build(grid)
    params = build_parameter_set(dim, diffusion, n_cells)
    config = SolverConfig(t_final=t_final, n_steps=n_steps)
    t0 = time.perf_counter()
    with counting_solves() as counts:
        try:
            _final, trace = run(f0, params, config)
        except (NonConvergence, PositivityLoss) as exc:
            record.update(outcome=type(exc).__name__, seconds=time.perf_counter() - t0,
                          **counts, message=str(exc))
            return record
    record.update(
        outcome="ok",
        seconds=time.perf_counter() - t0,
        **counts,
        mass_drift=float(np.max(np.abs(trace.mass - trace.mass[0]))),
        max_F_rise=float(np.max(np.diff(trace.F))),
    )
    return record


def sweep(dims) -> list[dict]:
    records = []
    for dim in dims:
        cells, variances, horizons = CASES[dim]
        done = [
            run_case(dim, n, v, t_final, n_steps, diffusion, boundary)
            for n, v, (t_final, n_steps), diffusion, boundary in itertools.product(
                cells, variances, horizons, DIFFUSIONS, BOUNDARIES
            )
        ]
        records += done
        failed = [r for r in done if r["outcome"] != "ok"]
        finished = [r for r in done if r["outcome"] == "ok"]
        print(
            f"{dim}D: {len(failed)}/{len(done)} fail, "
            f"{sum(r['seconds'] for r in failed):.1f} s in failing runs, "
            f"{sum(r['seconds'] for r in finished):.1f} s in the others; "
            f"{sum(r['splu_calls'] for r in done)} splu calls, "
            f"{sum(r['splu_calls'] > 0 for r in finished)} finishing runs made any; "
            f"{sum(r['bicgstab_iterations'] for r in done)} BiCGSTAB iterations",
            flush=True,
        )
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, nargs="+", choices=sorted(CASES),
                        default=sorted(CASES), help="dimensions to sweep (default: all)")
    parser.add_argument("--out", default="sweep.json", help="JSON output file")
    args = parser.parse_args(argv)
    records = sweep(args.dim)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
