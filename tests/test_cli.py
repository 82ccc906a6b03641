"""Command-line interface: subcommands, config/flag precedence, artifacts,
exit codes, and the self-check battery (including its failure path).

Everything drives ``main(argv)`` in-process; exit codes follow the
documented contract (0 success, 1 solver/io failure, 2 usage error).
"""

import warnings
from dataclasses import fields

import numpy as np
import pytest

import fpflow.cli as cli
import fpflow.solver as solver_mod
from fpflow import Boundary, checks
from fpflow.cli import (
    _EXPERIMENTS,
    ExperimentSpec,
    UsageError,
    _build_parser,
    _build_spec,
    _max_workers,
    main,
)
from fpflow.solver import EnergyTrace


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def test_run_custom_experiment_writes_trace_and_svg(tmp_path, capsys):
    code, out, err = run_cli(capsys, [
        "run", "--dim", "1", "--n-cells", "32", "--n-steps", "30",
        "--t-final", "1.0", "--boundary", "periodic", "--out", str(tmp_path),
    ])
    assert code == 0 and err == ""
    trace = EnergyTrace.from_csv(tmp_path / "custom_trace.csv")
    trace.validate()
    assert len(trace) == 31
    svg = (tmp_path / "custom_fe.svg").read_text()
    assert svg.startswith("<svg ") and "F_rel" in svg and "D_dis" in svg
    assert "custom: rate=" in out and "r2=" in out


def test_run_boundary_both_writes_suffixed_pairs(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [
        "run", "--n-cells", "24", "--n-steps", "25", "--t-final", "0.8",
        "--boundary", "both", "--name", "pair", "--out", str(tmp_path),
    ])
    assert code == 0
    for suffix in ("_periodic", "_noflux"):
        assert (tmp_path / f"pair{suffix}_trace.csv").is_file()
        assert (tmp_path / f"pair{suffix}_fe.svg").is_file()
        assert f"pair{suffix}: " in out


def test_run_defaults_write_into_the_working_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, [
        "run", "--n-cells", "24", "--n-steps", "25", "--t-final", "0.8",
    ])
    assert code == 0
    assert (tmp_path / "custom_trace.csv").is_file()


def test_run_outputs_are_bit_identical_across_reruns(tmp_path, capsys):
    argv = [
        "run", "--dim", "1", "--n-cells", "24", "--n-steps", "25",
        "--t-final", "0.8", "--boundary", "noflux",
    ]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run_cli(capsys, argv + ["--out", str(d)])
        assert code == 0
    for fname in ("custom_trace.csv", "custom_fe.svg"):
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()


def test_run_preset_name_appears_in_filenames(tmp_path, capsys):
    code, _, _ = run_cli(capsys, [
        "run", "fig-fe-1d-hom", "--n-cells", "32", "--n-steps", "25",
        "--t-final", "1.0", "--boundary", "periodic", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "fig-fe-1d-hom_trace.csv").is_file()


def test_run_non_ascii_name_writes_an_ascii_svg(tmp_path, capsys):
    code, out, err = run_cli(capsys, [
        "run", "--name", "café", "--n-cells", "8", "--n-steps", "2", "--out", str(tmp_path),
    ])
    assert code == 0 and err == ""
    assert (tmp_path / "café_trace.csv").is_file()
    assert "caf&#233;" in (tmp_path / "café_fe.svg").read_bytes().decode("ascii")
    assert "café: " in out


def test_run_from_equilibrium_reports_skipped_fit(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [
        "run", "--n-cells", "24", "--n-steps", "25", "--t-final", "0.8",
        "--ic", "ic:eq", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "fit skipped" in out


# ----------------------------------------------------------------------
# usage errors
# ----------------------------------------------------------------------


def test_unknown_preset_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["run", "no-such-thing", "--out", str(tmp_path)])
    assert code == 2
    assert "no-such-thing" in err and "known:" in err


def test_unknown_coefficient_reference_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, [
        "run", "--diffusion", "D:nope", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "D:nope" in err


def test_dimension_limited_preset_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, [
        "run", "--dim", "2", "--diffusion", "D:multi3d-coarse", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "3D only" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--dim", "4"],
        ["--n-cells", "1"],
        ["--n-steps", "0"],
        ["--t-final", "0"],
        ["--t-final", "inf"],
        ["--name", "a/b"],
        ["--name", "a\tb"],
        ["--name", "caf\udce9"],  # an undecodable byte of argv
        ["--name", "a" * 300],  # <name>_periodic_trace.csv would exceed 255 bytes
        ["--name", "\u00e9" * 119],  # 238 bytes in UTF-8, two more than a name may take
        ["--fit-transient-frac", "1.0"],
        ["--fit-floor", "-1"],
        ["--fit-floor", "nan"],
        ["--ic", "ic:gauss-vnan"],
        ["--ic", "ic:gauss-vinf"],
        ["--ic", "ic:gauss-v1e-300"],
    ],
)
def test_invalid_spec_values_exit_2(tmp_path, capsys, flags):
    code, _, err = run_cli(capsys, ["run", *flags, "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith("error:")


# The values the grid or the solver configuration checks, as (flag, config
# key, bad value).
LIBRARY_CHECKED_SAMPLES = [
    ("--dim", "dim", "4"),
    ("--n-cells", "n-cells", "1"),
    ("--n-steps", "n-steps", "0"),
    ("--t-final", "t-final", "inf"),
]


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize(
    "flag, key, value", LIBRARY_CHECKED_SAMPLES, ids=[k for _, k, _ in LIBRARY_CHECKED_SAMPLES]
)
@pytest.mark.parametrize("command", ["run", "equilibrium", "compare"])
def test_library_checked_values_exit_2_before_any_run(
    tmp_path, capsys, monkeypatch, command, flag, key, value, given
):
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
    if given == "flag":
        spec_args = [flag, value]
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        spec_args = ["--config", str(cfg)]
    presets = ["fig-fe-1d-hom", "fig-fe-1d-D1"] if command == "compare" else []
    code, out, err = run_cli(capsys, [command, *presets, *spec_args, "--out", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert runs == []
    assert list(tmp_path.iterdir()) == ([tmp_path / "bad.cfg"] if given == "config" else [])


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("command", ["run", "equilibrium", "compare"])
def test_retired_record_every_exits_2_before_any_run(
    tmp_path, capsys, monkeypatch, command, given
):
    # Every step is recorded now; a script or config file that still thins
    # the trace must fail as a usage error, not run with another schedule.
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
    if given == "flag":
        spec_args = ["--record-every", "2"]
    else:
        cfg = tmp_path / "old.cfg"
        cfg.write_text("record-every = 2\n")
        spec_args = ["--config", str(cfg)]
    presets = ["fig-fe-1d-hom", "fig-fe-1d-D1"] if command == "compare" else []
    argv = [command, *presets, *spec_args, "--out", str(tmp_path)]
    if given == "flag":
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code, (out, err) = exc.value.code, capsys.readouterr()
    else:
        code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "record-every" in err or "record_every" in err
    assert runs == []


def test_compare_builds_every_member_before_running_any(tmp_path, capsys, monkeypatch):
    # The homogeneous member is valid on 4 cells, the multi-mode one is not.
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
    code, out, err = run_cli(capsys, [
        "compare", "fig-fe-2d-hom", "fig-fe-2d-DM", "--n-cells", "4", "--out", str(tmp_path),
    ])
    assert code == 2
    assert out == ""
    assert err == "error: 'D:multi' in 2D needs n_cells >= 8 for an active mode, got n_cells=4\n"
    assert runs == []


def test_2d_multimode_preset_on_too_coarse_a_grid_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, [
        "run", "fig-fe-2d-DM", "--n-cells", "4", "--out", str(tmp_path),
    ])
    assert code == 2
    assert out == ""
    assert err == "error: 'D:multi' in 2D needs n_cells >= 8 for an active mode, got n_cells=4\n"


def test_argparse_rejects_bad_choices():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--boundary", "diagonal"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["run", "--n-cells", "abc"], ["run", "--boundary", "diagonal"], ["run", "--no-such-flag"], []],
    ids=["bad-int", "bad-choice", "unknown-flag", "missing-subcommand"],
)
def test_argparse_errors_are_one_stderr_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error:")


def test_malformed_gaussian_variance_names_the_reference(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["run", "--ic", "ic:gauss-vabc", "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith("error:") and "'ic:gauss-vabc'" in err


def test_unwritable_output_directory_exits_1(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    code, _, err = run_cli(capsys, [
        "run", "--n-cells", "16", "--n-steps", "25", "--t-final", "0.5",
        "--out", str(blocked),
    ])
    assert code == 1
    assert "i/o failure" in err


def test_refused_allocation_exits_1_with_one_line(tmp_path, capsys):
    # 10^18 cells need exabytes, more than any address space, so numpy
    # refuses the first array at once.
    code, out, err = run_cli(capsys, [
        "run", "--n-cells", str(10**18), "--n-steps", "1", "--out", str(tmp_path),
    ])
    assert code == 1
    assert out == ""
    assert err.startswith("memory failure: ") and err.count("\n") == 1


def test_non_finite_newton_residual_exits_1_with_one_line(tmp_path, capsys):
    # dt = 1e300 overflows the residual after the first Newton update; the
    # solver says so in one line, without numpy warnings on stderr.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, [
            "run", "--t-final", "1e300", "--n-steps", "1", "--out", str(tmp_path),
        ])
    assert caught == []
    assert code == 1
    assert out == ""
    assert err.startswith("solver failure: custom: step 1 (t = 1e+300): non-finite Newton residual")
    assert err.count("\n") == 1


def test_longest_name_the_file_system_allows_runs(tmp_path, capsys):
    # 236 bytes in UTF-8 make <name>_periodic_trace.csv 255 bytes long.
    name = "\u00e9" * 118
    code, _, err = run_cli(capsys, [
        "run", "--name", name, "--n-cells", "8", "--n-steps", "2", "--boundary", "both",
        "--out", str(tmp_path),
    ])
    assert code == 0, err
    assert (tmp_path / f"{name}_periodic_trace.csv").is_file()


def test_mobility_that_overflows_at_t_final_exits_2_before_any_run(
    tmp_path, capsys, monkeypatch
):
    # sin(10 t) of the standard mobility overflows to sin(inf) = NaN; the
    # run is refused in one line, with no numpy warning.
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, [
            "run", "--t-final", "1e308", "--n-steps", "1", "--n-cells", "8",
            "--out", str(tmp_path),
        ])
    assert code == 2
    assert out == ""
    assert err == "error: mobility at t = 1e+308 must be positive and finite on the grid\n"
    assert runs == []


def test_failed_bicgstab_exits_1_with_one_line(tmp_path, capsys):
    # A Krylov solve in this run's first step does not converge within N
    # iterations.  It fails the step in one line, with no numpy warning
    # (BiCGSTAB iterates that overflow are failed solves too).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, [
            "run", "--dim", "3", "--n-cells", "10", "--n-steps", "5", "--t-final", "0.5",
            "--diffusion", "D:single", "--ic", "ic:gauss-v0.03", "--boundary", "noflux",
            "--out", str(tmp_path),
        ])
    assert code == 1
    assert out == ""
    assert err.startswith("solver failure: custom: step 1 (t = 0.1): ") and err.count("\n") == 1
    assert "BiCGSTAB" in err


def test_solver_failure_names_the_boundary_that_failed(tmp_path, capsys, monkeypatch):
    # Under --boundary both the periodic run finishes; the no-flux run is
    # starved of Newton iterations and its failure names it.
    real_run = cli.run

    def starve_noflux(f0, pset, config):
        if f0.grid.boundary is Boundary.NOFLUX:
            monkeypatch.setattr(solver_mod, "_NEWTON_MAX_ITERS", 1)
        return real_run(f0, pset, config)

    monkeypatch.setattr(cli, "run", starve_noflux)
    code, out, err = run_cli(capsys, [
        "run", "fig-fe-1d-D1", "--n-cells", "40", "--n-steps", "2", "--t-final", "0.1",
        "--boundary", "both", "--out", str(tmp_path),
    ])
    assert code == 1
    assert out.startswith("fig-fe-1d-D1_periodic: ")
    assert (tmp_path / "fig-fe-1d-D1_periodic_trace.csv").is_file()
    assert err.startswith(
        "solver failure: fig-fe-1d-D1_noflux: step 1 (t = 0.05): Newton residual"
    )
    assert err.count("\n") == 1


# ----------------------------------------------------------------------
# config files
# ----------------------------------------------------------------------


def test_config_file_sets_spec_fields(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# a comment\n"
        "name = cfgrun\n"
        "dim = 1\n"
        "n-cells = 48\n"
        "n-steps = 25\n"
        "t-final = 0.8\n"
        "diffusion = D:single\n"
        "ic = ic:gauss-reg\n"
        f"out = {tmp_path}\n"
    )
    code, out, _ = run_cli(capsys, ["run", "--config", str(cfg)])
    assert code == 0
    assert (tmp_path / "cfgrun_trace.csv").is_file()
    assert "cfgrun:" in out


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "n-cells = 24\nn-steps = 25\nt-final = 0.8\nname = cfgrun\n"
        f"out = {tmp_path}\n"
    )
    code, _, _ = run_cli(capsys, [
        "run", "--config", str(cfg), "--n-steps", "12", "--name", "flagged",
    ])
    assert code == 0
    trace = EnergyTrace.from_csv(tmp_path / "flagged_trace.csv")
    assert len(trace) == 13  # flag n-steps beat the config value
    assert not (tmp_path / "cfgrun_trace.csv").exists()


# One non-default value per ExperimentSpec field, as (flag, config key, value).
SPEC_KEY_SAMPLES = {
    "name": ("--name", "name", "sample"),
    "dim": ("--dim", "dim", "2"),
    "n_cells": ("--n-cells", "n-cells", "12"),
    "n_steps": ("--n-steps", "n_steps", "7"),
    "t_final": ("--t-final", "t-final", "0.75"),
    "boundary": ("--boundary", "boundary", "noflux"),
    "potential_ref": ("--potential", "potential", "phi:quad"),
    "diffusion_ref": ("--diffusion", "diffusion_ref", "D:single"),
    "mobility_ref": ("--mobility", "mobility", "pi:unit"),
    "ic_ref": ("--ic", "ic", "ic:eq"),
    "output_dir": ("--out", "out", "results"),
    "fit_transient_frac": ("--fit-transient-frac", "fit_transient_frac", "0.25"),
    "fit_floor": ("--fit-floor", "fit-floor", "1e-9"),
}


def test_every_spec_field_means_the_same_as_flag_and_as_config_key(tmp_path):
    assert set(SPEC_KEY_SAMPLES) == {f.name for f in fields(ExperimentSpec)}
    parser = _build_parser()
    default = _build_spec(parser.parse_args(["run"]), None)
    assert default == ExperimentSpec()
    for field_name, (flag, key, value) in SPEC_KEY_SAMPLES.items():
        cfg = tmp_path / f"{field_name}.cfg"
        cfg.write_text(f"{key} = {value}\n")
        by_config = _build_spec(parser.parse_args(["run", "--config", str(cfg)]), None)
        by_flag = _build_spec(parser.parse_args(["run", flag, value]), None)
        assert by_config == by_flag, field_name
        assert getattr(by_flag, field_name) != getattr(default, field_name), field_name


def test_empty_name_flag_keeps_the_name_and_empty_name_key_exits_2(tmp_path, capsys):
    args = _build_parser().parse_args(["run", "quad-dd-1d", "--name", ""])
    assert _build_spec(args, args.preset).name == "quad-dd-1d"
    cfg = tmp_path / "named.cfg"
    cfg.write_text("name = \n")
    code, _, err = run_cli(capsys, ["run", "--config", str(cfg)])
    assert code == 2
    assert "experiment name '' is empty" in err


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("wibble = 3\n", "unknown config key"),
        ("just some words\n", "key=value"),
        ("n-steps = 4\ndim = 1.5\n", "bad.cfg:2: invalid value '1.5' for dim"),
        ("t-final = inf\n", "t_final must be positive and finite"),
        ("ic = ic:gauss-v1e-300\n", "variance 1e-300 is not resolvable"),
        ("name = a\0b\n", "bad.cfg:1: invalid value 'a\\x00b' for name"),
        ("out = d\0x\n", "bad.cfg:1: invalid value 'd\\x00x' for output_dir"),
        (b"name = caf\xe9\n", "bad.cfg is not UTF-8 text"),
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, content, fragment):
    cfg = tmp_path / "bad.cfg"
    if isinstance(content, bytes):
        cfg.write_bytes(content)
    else:
        cfg.write_text(content)
    code, _, err = run_cli(capsys, ["run", "--config", str(cfg)])
    assert code == 2
    assert fragment in err


def test_missing_config_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "does not exist" in err


# ----------------------------------------------------------------------
# equilibrium
# ----------------------------------------------------------------------


def test_equilibrium_writes_profile_with_normalization(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [
        "equilibrium", "--dim", "2", "--n-cells", "8", "--diffusion", "D:single",
        "--name", "eqtest", "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "eqtest_eq.csv").read_text().splitlines()
    assert lines[0] == "x,y,f_eq"
    assert len(lines) == 1 + 64 + 1
    assert lines[-1].startswith("# C1=") and "F_eq=" in lines[-1]
    feq = np.array([float(ln.split(",")[2]) for ln in lines[1:-1]])
    cell_volume = (2.0 / 8) ** 2
    assert cell_volume * feq.sum() == pytest.approx(1.0, abs=1e-12)
    assert "eqtest: C1=" in out
    # The trailing comment round-trips the exact multiplier.
    c1 = float(lines[-1].split("C1=")[1].split()[0])
    from fpflow import Boundary, build_grid, solve_normalization
    from fpflow.params import build_parameter_set

    pset = build_parameter_set(2, "D:single", 8)
    assert c1 == solve_normalization(pset, build_grid(2, 8, Boundary.PERIODIC))


def test_equilibrium_both_boundaries(tmp_path, capsys):
    code, _, _ = run_cli(capsys, [
        "equilibrium", "--n-cells", "16", "--boundary", "both",
        "--name", "eqb", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "eqb_periodic_eq.csv").is_file()
    assert (tmp_path / "eqb_noflux_eq.csv").is_file()


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def test_compare_writes_rate_table_and_overlay(tmp_path, capsys):
    code, out, _ = run_cli(capsys, [
        "compare", "fig-fe-1d-hom", "fig-fe-1d-D1",
        "--n-cells", "40", "--n-steps", "30", "--t-final", "1.5",
        "--boundary", "periodic", "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[0] == "name,rate,r_squared"
    rows = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
    assert set(rows) == {"fig-fe-1d-hom", "fig-fe-1d-D1"}
    for rate, r2 in rows.values():
        assert float(rate) > 0.0
        assert 0.0 <= float(r2) <= 1.0
    assert (tmp_path / "compare_fe.svg").read_text().count("<polyline") >= 2
    assert out.count("rate=") == 2


def test_compare_solver_failure_names_the_member_that_failed(tmp_path, capsys, monkeypatch):
    # One Newton update solves the linear homogeneous member's step; the
    # single-mode member needs more and fails.
    monkeypatch.setattr(solver_mod, "_NEWTON_MAX_ITERS", 1)
    code, out, err = run_cli(capsys, [
        "compare", "fig-fe-1d-hom", "fig-fe-1d-D1",
        "--n-cells", "40", "--n-steps", "2", "--t-final", "0.1", "--out", str(tmp_path),
    ])
    assert code == 1
    assert out == ""
    assert err.startswith("solver failure: fig-fe-1d-D1: step 1 (t = 0.05): Newton residual")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_compare_arity_and_grid_checks(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["compare", "fig-fe-1d-hom", "--out", str(tmp_path)])
    assert code == 2 and "at least two" in err
    code, _, err = run_cli(capsys, [
        "compare", "fig-fe-1d-hom", "fig-fe-2d-hom", "--out", str(tmp_path),
    ])
    assert code == 2 and "shared grid" in err
    code, _, err = run_cli(capsys, [
        "compare", "fig-fe-1d-hom", "fig-fe-1d-hom", "--out", str(tmp_path),
    ])
    assert code == 2 and "distinct names" in err
    code, _, err = run_cli(capsys, [
        "compare", "fig-fe-1d-hom", "fig-fe-1d-D1", "--boundary", "both",
        "--out", str(tmp_path),
    ])
    assert code == 2 and "single boundary" in err


def test_worker_cap_env_contract(monkeypatch):
    monkeypatch.delenv("FPFLOW_THREADS", raising=False)
    assert 1 <= _max_workers(4) <= 4
    monkeypatch.setenv("FPFLOW_THREADS", "2")
    assert _max_workers(4) == 2
    assert _max_workers(1) == 1
    monkeypatch.setenv("FPFLOW_THREADS", "0")
    with pytest.raises(UsageError):
        _max_workers(4)
    monkeypatch.setenv("FPFLOW_THREADS", "three")
    with pytest.raises(UsageError):
        _max_workers(4)


def test_compare_respects_thread_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FPFLOW_THREADS", "1")
    code, _, _ = run_cli(capsys, [
        "compare", "fig-fe-1d-hom", "fig-fe-1d-DM",
        "--n-cells", "40", "--n-steps", "30", "--t-final", "1.5",
        "--out", str(tmp_path),
    ])
    assert code == 0


# ----------------------------------------------------------------------
# presets registry
# ----------------------------------------------------------------------


def test_experiment_preset_inventory():
    expected = {"quad-dd-1d"}
    for tag in ("1d", "2d", "3d"):
        expected.add(f"fig-fe-{tag}")
        for suffix in ("hom", "D1", "DM"):
            expected.add(f"fig-fe-{tag}-{suffix}")
            if tag == "2d":
                expected.add(f"fig-fe-2d-fine-{suffix}")
            if tag == "3d":
                expected.add(f"fig-fe-3d-coarse-{suffix}")
    assert set(_EXPERIMENTS) == expected
    for name, fields in _EXPERIMENTS.items():
        assert fields["dim"] in (1, 2, 3), name
        assert fields["n_cells"] >= 2, name


def test_every_spec_field_is_set_by_some_experiment():
    # A field that every registered experiment leaves at its default is a
    # setting no used path needs.  The name and output directory are not
    # experiment settings.
    default = ExperimentSpec()
    unset = [
        f.name for f in fields(ExperimentSpec)
        if f.name not in ("name", "output_dir")
        and all(row.get(f.name, getattr(default, f.name)) == getattr(default, f.name)
                for row in _EXPERIMENTS.values())
    ]
    assert unset == []


def test_unsuffixed_aliases_match_their_homogeneous_panel():
    for tag in ("1d", "2d", "3d"):
        assert _EXPERIMENTS[f"fig-fe-{tag}"] == _EXPERIMENTS[f"fig-fe-{tag}-hom"]


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_fast_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify"])
    assert code == 0
    assert "verify[fast]: 16/16 checks passed" in out
    assert out.count("PASS ") == 16
    assert "FAIL" not in out


def test_verify_catches_a_broken_flux_kernel(capsys, monkeypatch):
    # Replacing the exponential-fitting kernel with B = 1 silently turns
    # the scheme into plain central diffusion: still stable, still mass
    # conserving, but the equilibrium is no longer stationary.  The
    # battery must notice and exit nonzero.
    monkeypatch.setattr(
        "fpflow.solver._bernoulli_pair",
        lambda a: (np.ones_like(a), np.ones_like(a)),
    )
    code, out, _ = run_cli(capsys, ["verify", "fast"])
    assert code == 1
    assert "FAIL equilibrium-stationarity" in out
    assert "failing: " in out
    assert "equilibrium-stationarity" in out.split("failing: ")[1]


def test_verify_reports_a_check_that_raises(capsys, monkeypatch):
    def boom():
        raise ValueError("boom")

    monkeypatch.setattr(checks, "FAST", [("a", lambda: None), ("b", boom)])
    code, out, _ = run_cli(capsys, ["verify", "fast"])
    assert code == 1
    assert out.splitlines() == [
        "PASS a", "FAIL b: boom", "verify[fast]: 1/2 checks passed", "failing: b",
    ]


def test_verify_leaves_no_shared_runs_behind(capsys, monkeypatch):
    # Reference runs made under a broken kernel must not reach checks
    # called after verify returns.
    monkeypatch.setattr(
        "fpflow.solver._bernoulli_pair",
        lambda a: (np.ones_like(a), np.ones_like(a)),
    )
    scopes = list(checks._scopes)
    code, _, _ = run_cli(capsys, ["verify", "fast"])
    assert code == 1
    monkeypatch.undo()
    assert checks._scopes == scopes
    registry = dict(checks.FAST)
    registry["mass-conservation"]()
    registry["equilibrium-stationarity"]()
