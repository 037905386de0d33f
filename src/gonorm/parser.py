"""Text format for dependencies: parsing and formatting.

One declaration per line, ``#`` starts a comment::

    (c:{Course}:{title,year})::c.title,c.year=>c
    (x:{Course}:{lang})-[y:{teaches}:{using}]->()::x.lang=>y.using
    ()-[t:{TRANSFER}:{price}]->()::t.price=>t

A node pattern binds one variable; an edge pattern may name its edge
variable or leave it anonymous.  At most one endpoint of an edge may bind a
variable, written on either side of the arrow: ``(c)<-[t:...]-()`` and
``()-[t:...]->(c)`` mean the same thing.  ``∅`` is accepted for ``{}`` and
``⇒`` for ``=>``.  Formatting always emits the compact canonical spelling,
so parse-format round-trips are stable.

Within one call, each distinct scope text (all of a line before its first
``::``) is parsed once per schema text; a line that repeats it is parsed
from ``::`` on.
"""
from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from typing import IO, Iterable

from .errors import ParseError
from .gofd import GnSchema, GoFd, gofd
from .graph import read_text, write_text
from .pattern import (
    ANON_EDGE_VAR,
    Direction,
    ObjectVar,
    Pattern,
    PropVar,
    Variable,
    attrs,
    edge_pattern,
    node_edge_pattern,
    node_pattern,
    render_var,
)

# Splits a line into whitespace runs, multi-character tokens, identifiers and
# single characters; ``.`` takes any other character, so the pieces cover the
# line end to end and each column is the sum of the lengths before it.
_PIECE = re.compile(r"\s+|::|\]->|<-\[|-\[|\]-|=>|[A-Za-z_][A-Za-z0-9_]*|.", re.DOTALL)
_KIND = {text: text for text in ("::", "]->", "<-[", "-[", "]-", "=>", *"(){}:,.")}
_KIND.update({"⇒": "=>", "∅": "empty"})  # fancy arrow, empty-set sign
_IDENT_START = frozenset(string.ascii_letters + "_")


def _tokenize(text: str, line: int, column: int = 1) -> list[tuple[str, str, int]]:
    """The ``(kind, text, column)`` tokens of ``text``, whose first character is at ``column``."""
    out: list[tuple[str, str, int]] = []
    for piece in _PIECE.findall(text):
        kind = _KIND.get(piece)
        if kind is None:
            if piece[0] in _IDENT_START:
                kind = "ident"
            elif piece[0].isspace():
                column += len(piece)
                continue
            else:
                raise ParseError(f"unexpected character {piece!r}", line, column)
        out.append((kind, piece, column))
        column += len(piece)
    out.append(("end", "", column))
    return out


@dataclass
class _Endpoint:
    name: str | None = None
    labels: tuple[str, ...] = ()
    keys: tuple[str, ...] = ()
    column: int = 0  # where the name is written


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], line: int):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        if token[0] != kind:
            shown = token[1] or "end of line"
            raise ParseError(f"unexpected {shown!r}", self.line, token[2],
                             expected=(kind,))
        self.pos += 1
        return token

    def accept(self, kind: str) -> tuple[str, str, int] | None:
        if self.tokens[self.pos][0] == kind:
            return self.take(kind)
        return None

    # -- pieces -----------------------------------------------------------

    def id_set(self) -> tuple[str, ...]:
        if self.accept("empty"):
            return ()
        self.take("{")
        names: list[str] = []
        if self.peek()[0] == "ident":
            names.append(self.take("ident")[1])
            while self.accept(","):
                names.append(self.take("ident")[1])
        self.take("}")
        return tuple(names)

    def both_sets(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        labels = self.id_set()
        self.take(":")
        keys = self.id_set()
        return labels, keys

    def endpoint(self) -> _Endpoint:
        self.take("(")
        if self.accept(")"):
            return _Endpoint()
        token = self.take("ident")
        labels: tuple[str, ...] = ()
        keys: tuple[str, ...] = ()
        if self.accept(":"):
            labels, keys = self.both_sets()
        self.take(")")
        return _Endpoint(token[1], labels, keys, token[2])

    def edge_body(self) -> _Endpoint:
        token = self.accept("ident")
        labels: tuple[str, ...] = ()
        keys: tuple[str, ...] = ()
        if self.accept(":"):
            labels, keys = self.both_sets()
        if token is None:
            return _Endpoint(None, labels, keys)
        return _Endpoint(token[1], labels, keys, token[2])

    def pattern(self) -> Pattern:
        first = self.endpoint()
        arrow = self.peek()[0]
        if arrow not in ("-[", "<-["):
            if first.name is None:
                raise ParseError("a node pattern must bind a variable",
                                 self.line, self.peek()[2])
            return node_pattern(first.name, first.labels, first.keys)
        self.take(arrow)
        edge = self.edge_body()
        self.take("]->" if arrow == "-[" else "]-")
        second = self.endpoint()
        source, target = (first, second) if arrow == "-[" else (second, first)
        if source.name is not None and target.name is not None:
            raise ParseError("at most one endpoint may bind a variable",
                             self.line, self.peek()[2])
        if source.name is None and target.name is None:
            return edge_pattern(edge.name or "", edge.labels, edge.keys)
        node = source if source.name is not None else target
        direction = Direction.OUT if node is source else Direction.IN
        if node.name == (edge.name or ANON_EDGE_VAR):
            raise ParseError(f"node and edge both bind variable {node.name!r}",
                             self.line, max(node.column, edge.column))
        return node_edge_pattern(node.name, node.labels, node.keys,
                                 edge.name or "", edge.labels, edge.keys, direction)

    def var_list(self) -> list[tuple[Variable, int]]:
        out: list[tuple[Variable, int]] = []
        while True:
            token = self.take("ident")
            if self.accept("."):
                key = self.take("ident")[1]
                out.append((PropVar(token[1], key), token[2]))
            else:
                out.append((ObjectVar(token[1]), token[2]))
            if not self.accept(","):
                return out

    def dependency(self, scope: Pattern) -> GoFd:
        """A declaration's text from ``::`` on, over the parsed ``scope``."""
        self.take("::")
        lhs = self.var_list()
        self.take("=>")
        rhs = self.var_list()
        self.take("end")
        universe = attrs(scope)
        for var, column in lhs + rhs:
            if var not in universe:
                raise ParseError(
                    f"variable {render_var(var)} is not bound by the pattern",
                    self.line, column)
        return gofd(scope, [v for v, _ in lhs], [v for v, _ in rhs])


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def parse_pattern_text(text: str) -> Pattern:
    """Parse a pattern on its own, as used for scope selection; errors say line 1."""
    parser = _Parser(_tokenize(_strip_comment(text), 1), 1)
    pattern = parser.pattern()
    parser.take("end")
    return pattern


def parse_gofd(text: str) -> GoFd:
    """Parse exactly one dependency declaration."""
    deps = [dep for dep, _ in _declarations(text)]
    if len(deps) != 1:
        raise ParseError(f"expected exactly one dependency, found {len(deps)}")
    return deps[0]


def _declarations(text: str) -> list[tuple[GoFd, int]]:
    out: list[tuple[GoFd, int]] = []
    scopes: dict[Pattern, Pattern] = {}
    parsed: dict[str, Pattern] = {}  # scope text of a parsed line -> its scope
    for number, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        head, arrow, _ = line.partition("::")
        scope = parsed.get(head) if arrow else None
        if scope is None:
            parser = _Parser(_tokenize(line, number), number)
            scope = parser.pattern()
            # equal scopes share the first one's object, whose derived values
            # (attributes, key, text) are then computed once
            scope = scopes.setdefault(scope, scope)
        else:  # only the text from "::" on is new
            parser = _Parser(_tokenize(line[len(head):], number, len(head) + 1), number)
        out.append((parser.dependency(scope), number))
        parsed[head] = scope  # the whole line parsed, so its head did
    return out


@dataclass
class SchemaDocument:
    schema: GnSchema
    warnings: list[str] = field(default_factory=list)


def parse_schema(text: str) -> SchemaDocument:
    """Parse a schema file; duplicates are dropped with a warning."""
    doc = SchemaDocument(GnSchema())
    for dep, number in _declarations(text):
        if not doc.schema.add(dep):
            doc.warnings.append(
                f"line {number}: duplicate dependency ignored: {dep.render()}")
    return doc


def format_schema(deps: Iterable[GoFd]) -> str:
    return "".join(f"{dep.render()}\n" for dep in deps)


def save_schema(deps: Iterable[GoFd], target: str | IO[str]) -> None:
    write_text(format_schema(deps), target)


def load_schema(source: str | IO[str]) -> SchemaDocument:
    return parse_schema(read_text(source))
