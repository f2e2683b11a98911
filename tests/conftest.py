"""Shared pytest hooks and fixtures.

The acceptance tests register their pass/fail lines here so they survive
output capture and show up once, together, at the end of the run.
"""

import os

import pytest

import rcmsim

criterion_lines = []


@pytest.fixture
def child_env():
    """os.environ with the directory that holds the imported rcmsim first on
    PYTHONPATH, which a child does not get from pytest's pythonpath."""
    path = (os.path.dirname(os.path.abspath(rcmsim.__path__[0])), os.environ.get("PYTHONPATH"))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for text in criterion_lines:
            terminalreporter.line(text)
