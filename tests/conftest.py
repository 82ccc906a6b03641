"""Shared fixtures: the figure-preset runs are expensive, so they are run
once per session and shared by every test module that inspects them."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from fpflow import (
    Boundary,
    EnergyTrace,
    EquilibriumState,
    ParameterSet,
    ScalarField,
    SolverConfig,
    TensorGrid,
    build_grid,
    equilibrium_state,
    run,
)
from fpflow.params import build_parameter_set, get_initial_condition

# The per-dimension experiment settings the acceptance criteria pin
# (cells, steps, both boundaries; horizons follow the CLI presets).
FAMILY_SETTINGS = {
    1: dict(n_cells=200, n_steps=50, t_final=2.5, ic_ref="ic:gauss"),
    2: dict(n_cells=40, n_steps=10, t_final=1.0, ic_ref="ic:gauss-reg"),
    3: dict(n_cells=20, n_steps=10, t_final=0.2, ic_ref="ic:gauss-reg-v0.08"),
}
DIFFUSION_REFS = ("D:homogeneous", "D:single", "D:multi")
BOUNDARIES = (Boundary.PERIODIC, Boundary.NOFLUX)

# Fit window wide enough for the oscillating-mobility wiggle (see the
# 1D preset registry); used whenever a test fits the 1D decay curves.
FIT_KWARGS = dict(transient_frac=0.02, floor_rel=3e-15)


@dataclass(frozen=True)
class PresetRun:
    """One completed preset simulation plus everything tests ask about."""

    grid: TensorGrid
    params: ParameterSet
    f0: ScalarField
    config: SolverConfig
    final: ScalarField
    trace: EnergyTrace
    snapshots: tuple[ScalarField, ...]
    equilibrium: EquilibriumState
    wall_seconds: float


def _execute(dim: int, diffusion_ref: str, boundary: Boundary,
             from_equilibrium: bool, n_steps: int | None) -> PresetRun:
    settings = FAMILY_SETTINGS[dim]
    grid = build_grid(dim, settings["n_cells"], boundary)
    pset = build_parameter_set(dim, diffusion_ref, settings["n_cells"])
    eq = equilibrium_state(pset, grid)
    if from_equilibrium:
        f0 = eq.density
    else:
        f0 = get_initial_condition(settings["ic_ref"], dim).build(grid)
    config = SolverConfig(
        t_final=settings["t_final"],
        n_steps=settings["n_steps"] if n_steps is None else n_steps,
    )
    snapshots: list[ScalarField] = []
    t0 = time.perf_counter()
    final, trace = run(
        f0, pset, config, on_step=lambda k, t, f: snapshots.append(f)
    )
    wall = time.perf_counter() - t0
    return PresetRun(
        grid=grid, params=pset, f0=f0, config=config, final=final,
        trace=trace, snapshots=tuple(snapshots), equilibrium=eq,
        wall_seconds=wall,
    )


@pytest.fixture(scope="session")
def preset_run():
    """Factory returning the cached (dim, diffusion, boundary) figure run."""
    cache: dict = {}

    def get(dim: int, diffusion_ref: str, boundary: Boundary) -> PresetRun:
        key = (dim, diffusion_ref, boundary)
        if key not in cache:
            cache[key] = _execute(dim, diffusion_ref, boundary,
                                  from_equilibrium=False, n_steps=None)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def equilibrium_run():
    """Factory for the 50-step equilibrium-start runs (stationarity check)."""
    cache: dict = {}

    def get(dim: int, diffusion_ref: str, boundary: Boundary) -> PresetRun:
        key = (dim, diffusion_ref, boundary)
        if key not in cache:
            cache[key] = _execute(dim, diffusion_ref, boundary,
                                  from_equilibrium=True, n_steps=50)
        return cache[key]

    return get


def all_preset_keys():
    """(dim, diffusion, boundary) triples of every pinned figure run."""
    return [
        (dim, diff, bc)
        for dim in (1, 2, 3)
        for diff in DIFFUSION_REFS
        for bc in BOUNDARIES
    ]


# ----------------------------------------------------------------------
# Acceptance reporting: every acceptance test registers one line here and
# the terminal summary replays them as a compact pass/fail table.
# ----------------------------------------------------------------------

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, label: str, ok: bool, detail: str) -> str:
    line = f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
