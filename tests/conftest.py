"""Shared fixtures and the acceptance-criteria summary hook."""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from gonorm import Graph, load_graph, load_schema

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# One line per acceptance criterion, echoed after the run so the verdict is
# visible even when pytest captures test output.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@contextmanager
def runs_of(*fns):
    """Per function, the first argument of each run of its own code, in order.

    A memoizing wrapper is looked through (``inspect.unwrap``), so only real
    computations are listed, not cache hits.  The lists hold the arguments
    themselves, so ``id`` tells them apart.
    """
    codes = {inspect.unwrap(fn).__code__: [] for fn in fns}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            code = frame.f_code
            codes[code].append(frame.f_locals[code.co_varnames[0]])

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield list(codes.values())
    finally:
        sys.setprofile(previous)


def fixture_graph(name: str) -> Graph:
    return load_graph(str(FIXTURES / name))


def fixture_schema(name: str):
    return load_schema(str(FIXTURES / name))


@pytest.fixture
def university_graph() -> Graph:
    return fixture_graph("university.graph.json")


@pytest.fixture
def students_graph() -> Graph:
    return fixture_graph("students.graph.json")


@pytest.fixture
def metrics_graph() -> Graph:
    return fixture_graph("metrics_example.graph.json")
