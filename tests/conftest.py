"""Fixtures for every test module: no test may leave a forked child unreaped,
`children` records the forked children a test makes, and `two_cpus` lets the
package fork whatever the host's CPU count."""

import os

import pytest

from ftsmfc import sim_harness


def assert_no_child_left() -> None:
    """Fails the test if a child of this process is left unreaped, running or ended."""
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left unreaped: os.waitpid(-1, os.WNOHANG) gave {left}")


@pytest.fixture(autouse=True)
def no_child_left():
    """assert_no_child_left once the test has run."""
    yield
    assert_no_child_left()


@pytest.fixture
def two_cpus(monkeypatch):
    """sim_harness.fork_helps() holds whatever the host's CPU count, so the verify
    suites and the CSV writer fork where os.fork exists; returns this process's pid."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return os.getpid()


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
