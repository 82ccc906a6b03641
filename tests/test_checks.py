"""Every self-check that ``fpflow verify full`` runs, as its own pytest item."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fpflow import Boundary, checks

pytestmark = pytest.mark.usefixtures("shared_runs")

# The directory that holds the fpflow package, for subprocesses.
PACKAGE_ROOT = str(Path(checks.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "check", [pytest.param(check, id=name) for name, check in checks.FAST + checks.FULL]
)
def test_check(check):
    check()


def test_a_nested_scope_shares_no_runs_with_the_enclosing_one():
    def reference():
        return checks._workhorse(Boundary.NOFLUX, "D:homogeneous")

    with checks.fresh_runs():
        outer = reference()
        with checks.fresh_runs():
            inner = reference()
            assert inner is not outer and reference() is inner
        assert reference() is outer
    assert reference() is not outer


def test_verify_full_runs_the_oracle_case_once(monkeypatch):
    # oracle-equivalence and criterion 07 share the 100-step implicit run.
    runs = []
    inner = checks.run

    def counted(f0, params, config, **kwargs):
        runs.append((f0.grid, params.name, config.t_final, config.n_steps))
        return inner(f0, params, config, **kwargs)

    monkeypatch.setattr(checks, "run", counted)
    with checks.fresh_runs():
        checks._chk_oracle_equivalence()
        checks._crit_oracle_equivalence()
    assert len(set(runs)) == len(runs) == 2
    assert [n_steps for *_, n_steps in runs] == [100, 200]


def test_verify_fails_broken_code_under_python_O():
    # With B = 1 the flux loses its fitting, and two fast checks fail
    # even though -O strips every assert statement.
    script = "\n".join([
        "import sys, numpy as np",
        "from fpflow import cli, solver",
        "if not sys.flags.optimize: sys.exit(3)",
        "solver._bernoulli_pair = lambda a: (np.ones_like(a), np.ones_like(a))",
        "sys.exit(cli.main(['verify']))",
    ])
    done = subprocess.run(
        [sys.executable, "-O", "-W", "error", "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "verify[fast]: 14/16 checks passed" in done.stdout


def test_checks_and_cli_each_import_first_under_warnings_as_errors():
    # The two modules import each other.  One interpreter imports each
    # first in turn, dropping every fpflow module in between.
    script = "\n".join([
        "import sys, fpflow.checks",
        "for m in [m for m in sys.modules if m.split('.')[0] == 'fpflow']: del sys.modules[m]",
        "import fpflow.cli",
        "assert fpflow.cli.checks.FULL",
    ])
    subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        check=True, env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
    )
