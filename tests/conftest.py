"""Fixtures for every test module: no test may leave a forked child unreaped, and
`children` records the forked children a test makes."""

import os

import pytest

from ftsmfc import sim_harness


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails the test if a child of this process is left unreaped, running or ended."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left unreaped: os.waitpid(-1, os.WNOHANG) gave {left}")


@pytest.fixture
def children(monkeypatch):
    """Every sim_harness.Child made during the test, in the order they were forked."""
    made = []

    class Recorded(sim_harness.Child):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(sim_harness, "Child", Recorded)
    return made
