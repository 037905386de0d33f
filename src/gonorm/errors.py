"""Exception types shared across the package."""
from __future__ import annotations


class GonormError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(GonormError):
    """A property value is not an atomic string, number, or boolean."""


class EndpointError(GonormError):
    """An edge refers to a node id that is not present in the graph."""


class NotFoundError(GonormError):
    """An operation referenced an object id that does not exist."""


class InvariantError(GonormError):
    """A structural rule of the graph model was violated.

    The message names the violated rule (duplicate id, dangling endpoint,
    non-atomic value, conflicting property value, ...).
    """


class ParseError(GonormError):
    """Malformed input text; carries the position of the failure."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        hint = ""
        if self.expected:
            hint = " (expected " + " | ".join(self.expected) + ")"
        super().__init__(message + where + hint)
        self.message = message


class UnboundVariable(GonormError):
    """A descriptor variable does not occur in the attributes of its scope."""


class ScopeMismatch(GonormError):
    """An operation expected dependencies that share a single scope."""


class NonStrict(GonormError):
    """A dependency side mixes the node family with the edge family."""


class SizeLimit(GonormError):
    """An enumeration bound (attribute subset search) was exceeded."""


class UnsatisfiedDependency(GonormError):
    """A transformation was applied on a graph that violates its dependency."""

    def __init__(self, dependency: str, witnesses: tuple = (), variables: tuple = ()):
        self.dependency = dependency
        self.witnesses = tuple(witnesses)
        self.variables = tuple(variables)  # the variables each witness row binds
        super().__init__(f"graph does not satisfy {dependency}")
