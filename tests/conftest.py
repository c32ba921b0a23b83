"""Checks that hold after every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped.

    The CLI tests start the program as a subprocess; ``subprocess.run`` reaps
    its own children, and no test may leave one behind.
    """
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"pid {pid} exited unreaped, status {status}"
    pytest.fail(f"the test left a child process: {state}")
