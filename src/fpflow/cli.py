"""Command-line interface: run, compare, equilibrium, verify.

``fpflow run`` evolves one experiment (a named preset or a fully flagged
custom setup) and writes the energy trace CSV plus a semilog SVG of the
free-energy gap.  ``fpflow compare`` runs several presets on the same
grid concurrently and writes a rate-comparison table with an overlay
plot.  ``fpflow equilibrium`` writes the discrete equilibrium profile.
``fpflow verify`` runs the structural self-checks registered in
:mod:`fpflow.checks` and exits nonzero if any of them fails.

Experiments are described by a flat key/value vocabulary, the fields of
:class:`ExperimentSpec`, that appears identically as CLI flags and as
``--config`` file entries; explicit flags override the config file,
which overrides the preset, which overrides the field defaults.

Each value is checked once, by the object that uses it: the grid checks
dim and n-cells, :class:`~fpflow.solver.SolverConfig` checks n-steps
and t-final, and the :class:`~fpflow.params.Discretization` checks D
positive on the grid, and pi there at t-final.  A bad value exits with
status 2 and one line before its run starts; ``compare`` builds every
experiment before it runs any.  A run that fails exits with status 1 and
one line that names its output label: the experiment name, suffixed by
the boundary under ``both``.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import checks, params as params_mod, svgplot
from .diagnostics import DecayFit, fit_decay_rate
from .equilibrium import equilibrium_state
from .grid import Boundary, build_grid
from .params import PresetNotFound
from .solver import EnergyTrace, NonConvergence, PositivityLoss, SolverConfig, run


class UsageError(Exception):
    """Bad invocation or unresolvable reference: exits with status 2."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one run, in CLI vocabulary.

    The fields are the experiment keys; their defaults describe a custom run.
    It checks only the keys that no library object checks.
    """

    name: str = "custom"
    dim: int = 1
    n_cells: int = 100
    n_steps: int = 50
    t_final: float = 2.0
    boundary: str = "periodic"  # "periodic" | "noflux" | "both"
    potential_ref: str = "phi:standard"
    diffusion_ref: str = "D:homogeneous"
    mobility_ref: str = "pi:standard"
    ic_ref: str = "ic:gauss"
    output_dir: Path = Path(".")
    fit_transient_frac: float = 0.1
    fit_floor: float = 1e-12

    def __post_init__(self) -> None:
        name = self.name
        if not name or any(sep in name for sep in "/\\") or not name.isprintable():
            raise UsageError(
                f"experiment name {name!r} is empty, contains a path separator "
                "or is not printable"
            )
        # The longest file a spec writes is <name>_periodic_trace.csv, and
        # file systems cap a file name at 255 bytes.
        if len(f"{name}_periodic_trace.csv".encode("utf-8")) > 255:
            raise UsageError(
                "experiment name is too long: output file names allow it at most "
                "236 bytes in UTF-8"
            )
        if self.boundary not in ("periodic", "noflux", "both"):
            raise UsageError(f"boundary must be periodic, noflux or both, got {self.boundary!r}")
        if not 0.0 <= self.fit_transient_frac < 1.0:
            raise UsageError("fit-transient-frac must lie in [0, 1)")
        if not self.fit_floor >= 0.0:
            raise UsageError("fit-floor must be nonnegative")


# Named experiments.  The 1D trio reproduces the three diffusion panels
# (constant, single-mode, many-mode) on the standard oscillating-mobility
# well; 2D and 3D variants shrink the horizon to keep the implicit steps
# coarse but the Newton solves cheap.  The 1D fits crop only 2% of the
# trace and keep points down to 3e-15 of the initial gap: the oscillating
# mobility superimposes a bounded wiggle on the straight semilog decay, so
# the fit needs as many clean decades as the trace affords.  The 2D and
# 3D presets start from the tail-regularized Gaussian: the raw tensor
# profile reaches ~1e-60 in the corners, and near-empty cells next to
# steep neighbors put Newton outside its basin when the diffusion
# coefficient varies (the flux exponent carries log f x difference-of-D,
# whose density derivative grows like the neighbor ratio).  In 3D the
# grids are too coarse to resolve the sharp profile at all -- the cell
# size equals the standard deviation -- so those presets also widen the
# variance to 0.08 and shorten the horizon to keep runtimes in budget.
_EXPERIMENTS: dict[str, dict] = {}


def _register(name: str, **fields) -> None:
    _EXPERIMENTS[name] = fields


for _suffix, _diff in (("hom", "D:homogeneous"), ("D1", "D:single"), ("DM", "D:multi")):
    _register(
        f"fig-fe-1d-{_suffix}",
        dim=1, n_cells=200, n_steps=50, t_final=2.5,
        boundary="both", potential_ref="phi:standard", diffusion_ref=_diff,
        mobility_ref="pi:standard", ic_ref="ic:gauss",
        fit_transient_frac=0.02, fit_floor=3e-15,
    )
    _register(
        f"fig-fe-2d-{_suffix}",
        dim=2, n_cells=40, n_steps=10, t_final=1.0,
        boundary="both", potential_ref="phi:standard", diffusion_ref=_diff,
        mobility_ref="pi:standard", ic_ref="ic:gauss-reg",
    )
    _register(
        f"fig-fe-2d-fine-{_suffix}",
        dim=2, n_cells=80, n_steps=20, t_final=1.0,
        boundary="both", potential_ref="phi:standard", diffusion_ref=_diff,
        mobility_ref="pi:standard", ic_ref="ic:gauss-reg",
    )
    _register(
        f"fig-fe-3d-{_suffix}",
        dim=3, n_cells=20, n_steps=10, t_final=0.2,
        boundary="both", potential_ref="phi:standard", diffusion_ref=_diff,
        mobility_ref="pi:standard", ic_ref="ic:gauss-reg-v0.08",
    )
    _register(
        f"fig-fe-3d-coarse-{_suffix}",
        dim=3, n_cells=10, n_steps=5, t_final=0.5,
        boundary="both", potential_ref="phi:standard",
        diffusion_ref="D:multi3d-coarse" if _suffix == "DM" else _diff,
        mobility_ref="pi:standard", ic_ref="ic:gauss-reg-v0.08",
    )

# Unsuffixed aliases name the homogeneous panel of each figure family.
for _dim_tag in ("1d", "2d", "3d"):
    _EXPERIMENTS[f"fig-fe-{_dim_tag}"] = dict(_EXPERIMENTS[f"fig-fe-{_dim_tag}-hom"])

_register(
    "quad-dd-1d",
    dim=1, n_cells=200, n_steps=180, t_final=9.0,
    boundary="noflux", potential_ref="phi:quad", diffusion_ref="D:homogeneous",
    mobility_ref="pi:unit", ic_ref="ic:gauss",
)

_FIELD_TYPES = get_type_hints(ExperimentSpec)
# Config-file keys and the field each sets: every field under its own
# name, the refs also under their short names, and the output directory
# only as ``out``.
_CONFIG_KEYS = {name: name for name in _FIELD_TYPES if name != "output_dir"}
_CONFIG_KEYS.update(
    potential="potential_ref", diffusion="diffusion_ref", mobility="mobility_ref",
    ic="ic_ref", out="output_dir",
)


def _parse_config_file(path: Path) -> dict:
    if not path.is_file():
        raise UsageError(f"config file {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise UsageError(f"config file {path} is not UTF-8 text") from None
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        key = _CONFIG_KEYS[key]
        try:
            if not value.isprintable():  # NUL and other control characters
                raise ValueError(value)
            out[key] = _FIELD_TYPES[key](value)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: invalid value {value!r} for {key}") from None
    return out


def _build_spec(args: argparse.Namespace, preset: Optional[str]) -> ExperimentSpec:
    """The spec's defaults, overlaid by the preset, the config file, then the flags."""
    values: dict = {}
    if preset is not None:
        if preset not in _EXPERIMENTS:
            raise UsageError(
                f"unknown experiment preset {preset!r}; known: "
                + ", ".join(sorted(_EXPERIMENTS))
            )
        values.update(_EXPERIMENTS[preset], name=preset)
    if args.config:
        values.update(_parse_config_file(Path(args.config)))
    # Each flag is named after the config key it overrides.
    for key, field_name in _CONFIG_KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            values[field_name] = _FIELD_TYPES[field_name](value)
    return ExperimentSpec(**values)


def _expand_boundaries(spec: ExperimentSpec) -> list[tuple[str, str]]:
    """(filename suffix, boundary) pairs; suffix only when both are run."""
    if spec.boundary == "both":
        return [("_periodic", "periodic"), ("_noflux", "noflux")]
    return [("", spec.boundary)]


def _materialize(spec: ExperimentSpec, boundary: str):
    """(grid, params, f0, config) of one boundary of ``spec``; a bad value is a UsageError.

    The grid comes first: it checks dim, which the presets index by.
    """
    bc = Boundary.PERIODIC if boundary == "periodic" else Boundary.NOFLUX
    try:
        grid = build_grid(spec.dim, spec.n_cells, bc)
        config = SolverConfig(t_final=spec.t_final, n_steps=spec.n_steps)
        pset = params_mod.build_parameter_set(
            spec.dim, spec.diffusion_ref, spec.n_cells, mobility_ref=spec.mobility_ref,
            potential_ref=spec.potential_ref, name=spec.name,
        )
        f0 = params_mod.get_initial_condition(spec.ic_ref, spec.dim, pset).build(grid)
        # The mobility is the one coefficient that depends on t; a preset's
        # fails only by overflowing as t grows, so it is checked at t_final.
        pset.discretize(grid).pi(config.t_final)
    except PresetNotFound as exc:
        raise UsageError(str(exc.args[0])) from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return grid, pset, f0, config


def _decay_fit(spec: ExperimentSpec, trace: EnergyTrace) -> tuple[Optional[DecayFit], str]:
    """The spec's fit of the decay of F_rel, or None and why it was skipped."""
    try:
        return fit_decay_rate(
            trace, "F_rel",
            transient_frac=spec.fit_transient_frac, floor_rel=spec.fit_floor,
        ), ""
    except ValueError as exc:
        return None, str(exc)


def _fit_summary(spec: ExperimentSpec, label: str, trace: EnergyTrace) -> str:
    fit, problem = _decay_fit(spec, trace)
    if fit is None:
        return f"{label}: fit skipped ({problem})"
    return (
        f"{label}: rate={fit.rate:.6g} r2={fit.r_squared:.8f} "
        f"window=[{fit.window[0]:.4g}, {fit.window[1]:.4g}] n={fit.n_points}"
    )


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="ascii", newline="")


def _run_labelled(label: str, f0, pset, config) -> EnergyTrace:
    """The trace of :func:`~fpflow.solver.run`; a solver failure names ``label``."""
    try:
        return run(f0, pset, config)[1]
    except (NonConvergence, PositivityLoss) as exc:
        raise type(exc)(f"{label}: {exc}") from None


def cmd_run(spec: ExperimentSpec) -> int:
    for suffix, boundary in _expand_boundaries(spec):
        grid, pset, f0, config = _materialize(spec, boundary)
        label = spec.name + suffix
        trace = _run_labelled(label, f0, pset, config)
        base = spec.output_dir / label
        spec.output_dir.mkdir(parents=True, exist_ok=True)
        trace.to_csv(str(base) + "_trace.csv")
        svg = svgplot.semilogy_svg(
            [("F_rel", trace.t, trace.F_rel), ("D_dis", trace.t, trace.D_dis)],
            title=label,
            xlabel="t",
            ylabel="free-energy gap",
        )
        _write_text(Path(str(base) + "_fe.svg"), svg)
        print(_fit_summary(spec, label, trace))
    return 0


def cmd_equilibrium(spec: ExperimentSpec) -> int:
    for suffix, boundary in _expand_boundaries(spec):
        grid, pset, _f0, _config = _materialize(spec, boundary)
        eq = equilibrium_state(pset, grid)
        label = spec.name + suffix
        spec.output_dir.mkdir(parents=True, exist_ok=True)
        coord_names = ("x", "y", "z")[: grid.dim]
        mesh = np.meshgrid(*([grid.centers_1d()] * grid.dim), indexing="ij")
        lines = [",".join(coord_names + ("f_eq",))]
        flats = [m.ravel() for m in mesh] + [eq.density.values.ravel()]
        for row in zip(*flats):
            lines.append(",".join(repr(float(v)) for v in row))
        lines.append(f"# C1={eq.c1!r} F_eq={eq.free_energy!r}")
        _write_text(spec.output_dir / f"{label}_eq.csv", "\n".join(lines) + "\n")
        print(f"{label}: C1={eq.c1:.12g} F_eq={eq.free_energy:.12g}")
    return 0


def _max_workers(n_jobs: int) -> int:
    env = os.environ.get("FPFLOW_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise UsageError(f"FPFLOW_THREADS must be an integer, got {env!r}") from None
        if cap < 1:
            raise UsageError("FPFLOW_THREADS must be >= 1")
        return min(cap, n_jobs)
    return min(n_jobs, os.cpu_count() or 1)


def cmd_compare(specs: list[ExperimentSpec]) -> int:
    dims = {s.dim for s in specs}
    cells = {s.n_cells for s in specs}
    if len(dims) > 1 or len(cells) > 1:
        raise UsageError(
            "compare requires a shared grid: got dims "
            f"{sorted(dims)} and cell counts {sorted(cells)}"
        )
    boundaries = {s.boundary for s in specs}
    if "both" in boundaries:
        raise UsageError("compare runs a single boundary; pass --boundary periodic|noflux")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise UsageError("compare experiments must have distinct names")

    # Every member is checked before any of them runs.
    jobs = [(s.name, _materialize(s, s.boundary)) for s in specs]

    def worker(job) -> EnergyTrace:
        name, (_grid, pset, f0, config) = job
        return _run_labelled(name, f0, pset, config)

    with ThreadPoolExecutor(max_workers=_max_workers(len(specs))) as pool:
        traces = list(pool.map(worker, jobs))

    # All runs finished; only now touch the filesystem.
    out_dir = specs[0].output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["name,rate,r_squared"]
    series = []
    for s, trace in zip(specs, traces):
        fit, problem = _decay_fit(s, trace)
        rate, r2 = (fit.rate, fit.r_squared) if fit else (float("nan"), float("nan"))
        lines.append(f"{s.name},{rate!r},{r2!r}")
        series.append((s.name, trace.t, trace.F_rel))
        if fit is None:
            print(f"warning: {s.name}: fit skipped ({problem})", file=sys.stderr)
        print(f"{s.name}: rate={rate:.6g} r2={r2:.8f}")
    _write_text(out_dir / "compare.csv", "\n".join(lines) + "\n")
    svg = svgplot.semilogy_svg(
        series, title="free-energy gap", xlabel="t", ylabel="F - F_eq"
    )
    _write_text(out_dir / "compare_fe.svg", svg)
    return 0


def cmd_verify(level: str) -> int:
    if level not in ("fast", "full"):
        raise UsageError(f"verify level must be fast or full, got {level!r}")
    registry = checks.FAST + (checks.FULL if level == "full" else [])
    failures = []
    with checks.fresh_runs():
        for name, check in registry:
            try:
                detail = check()
            except Exception as exc:  # noqa: BLE001 - report every failure mode
                failures.append(name)
                print(f"FAIL {name}: {exc}")
            else:
                print(f"PASS {name}" + (f" ({detail})" if detail else ""))
    print(f"verify[{level}]: {len(registry) - len(failures)}/{len(registry)} checks passed")
    if failures:
        print("failing: " + ", ".join(failures))
        return 1
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    # An empty --name keeps the preset's or the config file's name.
    p.add_argument(
        "--name", type=lambda s: s or None, help="experiment name used in output filenames"
    )
    p.add_argument("--dim", type=int, help="spatial dimension (1, 2 or 3)")
    p.add_argument("--n-cells", type=int, dest="n_cells", help="cells per dimension")
    p.add_argument("--n-steps", type=int, dest="n_steps", help="implicit steps")
    p.add_argument("--t-final", type=float, dest="t_final", help="final time")
    p.add_argument(
        "--boundary", choices=("periodic", "noflux", "both"), help="face topology"
    )
    p.add_argument("--potential", help="potential preset reference")
    p.add_argument("--diffusion", help="diffusion preset reference")
    p.add_argument("--mobility", help="mobility preset reference")
    p.add_argument("--ic", help="initial-condition preset reference")
    p.add_argument("--out", help="output directory (default: current)")
    p.add_argument(
        "--fit-transient-frac", type=float, dest="fit_transient_frac",
        help="fraction of leading rows excluded from decay fits",
    )
    p.add_argument(
        "--fit-floor", type=float, dest="fit_floor",
        help="relative floor below which rows are excluded from decay fits",
    )
    p.add_argument("--config", help="flat key=value file with spec defaults")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line, exit status 2."""

    def error(self, message: str):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fpflow",
        description="Finite-volume drift-diffusion runs and diagnostics.",
        epilog="experiment presets: " + ", ".join(sorted(_EXPERIMENTS)),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve one experiment and write its trace")
    p_run.add_argument("preset", nargs="?", help="experiment preset name")
    _add_spec_flags(p_run)

    p_cmp = sub.add_parser("compare", help="run several presets and compare decay rates")
    p_cmp.add_argument("presets", nargs="*", help="two or more experiment presets")
    _add_spec_flags(p_cmp)

    p_eq = sub.add_parser("equilibrium", help="write the discrete equilibrium profile")
    p_eq.add_argument("preset", nargs="?", help="experiment preset name")
    _add_spec_flags(p_eq)

    p_ver = sub.add_parser("verify", help="run structural self-checks")
    p_ver.add_argument("level", nargs="?", default="fast", choices=("fast", "full"))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_build_spec(args, args.preset))
        if args.command == "equilibrium":
            return cmd_equilibrium(_build_spec(args, args.preset))
        if args.command == "compare":
            if len(args.presets) < 2:
                raise UsageError("compare needs at least two experiment presets")
            if args.boundary is None:
                args.boundary = "periodic"
            specs = [_build_spec(args, preset) for preset in args.presets]
            # --name would collapse every member onto one name; ignore it here.
            specs = [replace(s, name=preset) for s, preset in zip(specs, args.presets)]
            return cmd_compare(specs)
        if args.command == "verify":
            return cmd_verify(args.level)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, PositivityLoss) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"memory failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
