"""Every self-check that ``fpflow verify full`` runs, as its own pytest item."""

import pytest

from fpflow import checks


@pytest.mark.parametrize(
    "check", [pytest.param(check, id=name) for name, check in checks.FAST + checks.FULL]
)
def test_check(check):
    with checks.fresh_runs():
        check()
