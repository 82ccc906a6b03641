"""Every self-check that ``fpflow verify full`` runs, as its own pytest item."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fpflow import Boundary, checks

pytestmark = pytest.mark.usefixtures("shared_runs")


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


def test_checks_and_cli_each_import_first_under_warnings_as_errors():
    # The two modules import each other.  One interpreter imports each
    # first in turn, dropping every fpflow module in between.
    script = "\n".join([
        "import sys, fpflow.checks",
        "for m in [m for m in sys.modules if m.split('.')[0] == 'fpflow']: del sys.modules[m]",
        "import fpflow.cli",
        "assert fpflow.cli.checks.FULL",
    ])
    package_root = str(Path(checks.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        check=True, env=dict(os.environ, PYTHONPATH=package_root),
    )
