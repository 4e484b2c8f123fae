"""Checks shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped (the
    specialized suites evaluate their second point in a forked child)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else 'unreaped'}")
