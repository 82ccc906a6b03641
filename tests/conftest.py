"""Shared fixtures: the figure-preset runs are expensive, so they are run
once per session and shared by every test module that inspects them."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import pytest

from fpflow import (
    Boundary,
    EnergyTrace,
    EquilibriumState,
    ParameterSet,
    ScalarField,
    SolverConfig,
    TensorGrid,
    equilibrium_state,
    run,
)
from fpflow.cli import _EXPERIMENTS, ExperimentSpec, _materialize
from fpflow.params import build_parameter_set  # noqa: F401 - re-exported to test modules


def materialize(preset: str, boundary: Boundary, **overrides):
    """(grid, params, f0, config) of a registered CLI experiment, fields overridden."""
    spec = ExperimentSpec(name=preset, **_EXPERIMENTS[preset])
    return _materialize(replace(spec, **overrides), boundary.value)


# The pinned figure runs are the fig-fe-{1d,2d,3d}-{hom,D1,DM} experiments,
# here keyed by (dim, diffusion ref); tests run them on both boundaries.
PINNED = {
    (_EXPERIMENTS[name]["dim"], _EXPERIMENTS[name]["diffusion_ref"]): name
    for name in (f"fig-fe-{dim}d-{s}" for dim in (1, 2, 3) for s in ("hom", "D1", "DM"))
}
DIFFUSION_REFS = tuple(diff for dim, diff in PINNED if dim == 1)
BOUNDARIES = (Boundary.PERIODIC, Boundary.NOFLUX)

# The 1D experiments' fit window, wide enough for the oscillating-mobility
# wiggle; used whenever a test fits a decay curve.
FIT_KWARGS = dict(
    transient_frac=_EXPERIMENTS["fig-fe-1d-hom"]["fit_transient_frac"],
    floor_rel=_EXPERIMENTS["fig-fe-1d-hom"]["fit_floor"],
)


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
             from_equilibrium: bool) -> PresetRun:
    overrides = dict(ic_ref="ic:eq", n_steps=50) if from_equilibrium else {}
    grid, pset, f0, config = materialize(PINNED[dim, diffusion_ref], boundary, **overrides)
    eq = equilibrium_state(pset, grid)
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
            cache[key] = _execute(dim, diffusion_ref, boundary, from_equilibrium=False)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def equilibrium_run():
    """Factory for the 50-step equilibrium-start runs (stationarity check)."""
    cache: dict = {}

    def get(dim: int, diffusion_ref: str, boundary: Boundary) -> PresetRun:
        key = (dim, diffusion_ref, boundary)
        if key not in cache:
            cache[key] = _execute(dim, diffusion_ref, boundary, from_equilibrium=True)
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
