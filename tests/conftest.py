"""Shared fixtures."""

import pytest

from fpflow import checks


@pytest.fixture(scope="session")
def shared_runs():
    """One ``fresh_runs`` scope for the session: each shared run is made once."""
    with checks.fresh_runs():
        yield
