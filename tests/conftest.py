"""Shared fixtures and the acceptance-criteria summary hook."""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import strategies as st

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


# -- values that only their JSON texts tell apart -------------------------

class SameRepr(str):
    """A string whose repr hides its text; its JSON text is its text."""

    def __repr__(self) -> str:
        return "SameRepr(...)"


class Level(IntEnum):
    """Its members are the ints their JSON texts say."""

    ONE = 1
    TWO = 2


class Real(float):
    pass


# Families of values whose JSON texts are equal or prefixes of one another
# (1, 1.0, 12 and 1.5; "a" and "ab"; -0.0 and 0.0), with non-ASCII text,
# quotes, escapes and non-finite floats, and subclass values beside the
# plain values with their JSON texts.
TRICKY_FAMILIES = (
    (1, 1.0, 12, 1.5, True, Level.ONE, Real(1.0), 10**20),
    ("a", "ab", 'a"', SameRepr("a"), SameRepr("ab"), "é", "\u2028", "\ud800", "\\"),
    (-0.0, 0.0, Real(-0.0), float("inf"), float("nan"), False, 2, Level.TWO),
)
TRICKY_VALUES = tuple(value for family in TRICKY_FAMILIES for value in family)
# values that a repr-keyed grouping gets wrong: equal reprs with distinct JSON
# texts, and distinct reprs with one JSON text
REPR_TRAPS = (SameRepr("a"), SameRepr("ab"), Level.ONE, 1)
# pools to draw a graph's values from: a few values of one family, or a few
# values of any family and texts
VALUE_POOLS = st.one_of(
    st.sampled_from(TRICKY_FAMILIES).flatmap(
        lambda family: st.lists(st.sampled_from(family), min_size=1, max_size=4)),
    st.lists(st.one_of(st.sampled_from(TRICKY_VALUES), st.text(max_size=2)),
             min_size=1, max_size=6)).map(tuple)


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
