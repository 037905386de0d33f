"""Functional dependencies over graph patterns.

A dependency couples a scope pattern with a descriptor ``X => Y`` over the
pattern's attributes: whenever two matches agree on the variables in X they
must agree on the variables in Y.  Dependencies written against a more
general scope carry over to more specific scopes by positional variable
renaming ("restriction"), which is what makes schema-wide reasoning and
minimal covers work.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import eq
from typing import Callable, Iterable, Iterator

from .errors import ScopeMismatch, UnboundVariable
from .graph import Atomic, Graph, column_keys, value_keys
from .pattern import (
    NodeEdgePattern,
    ObjectVar,
    Pattern,
    PropVar,
    Relation,
    Variable,
    attrs,
    canonicalize,
    evaluate,
    more_general_than,
    once_per_object,
    render_pattern,
    render_var,
    render_vars,
    rename_map,
    rename_variable,
    scope_key,
    var_sort_key,
    variable_roles,
)


@dataclass(frozen=True)
class GoFd:
    scope: Pattern
    lhs: frozenset[Variable]
    rhs: frozenset[Variable]

    def is_trivial(self) -> bool:
        return self.rhs <= self.lhs

    @once_per_object
    def render(self) -> str:
        return (f"{render_pattern(self.scope)}::"
                f"{render_vars(self.lhs)}=>{render_vars(self.rhs)}")

    @once_per_object
    def canonical(self) -> str:
        """Render with canonical variable names; identity for dedup and ordering."""
        return restrict(self, canonicalize(self.scope)).render()


def gofd(scope: Pattern, lhs: Iterable[Variable], rhs: Iterable[Variable]) -> GoFd:
    return GoFd(scope, frozenset(lhs), frozenset(rhs))


def restrict(dep: GoFd, scope: Pattern) -> GoFd:
    """Carry the descriptor over to another scope by positional renaming.

    Onto a scope equal to its own, the dependency itself is returned.
    """
    if dep.scope == scope:
        return dep
    mapping = rename_map(dep.scope, scope)
    return gofd(scope,
                (rename_variable(v, mapping) for v in dep.lhs),
                (rename_variable(v, mapping) for v in dep.rhs))


class GnSchema:
    """An ordered collection of dependencies, deduplicated by canonical form."""

    def __init__(self, deps: Iterable[GoFd] = ()):
        self.deps: list[GoFd] = []
        self._seen: set[str] = set()
        for dep in deps:
            self.add(dep)

    def add(self, dep: GoFd) -> bool:
        """Add a dependency; returns False when it is already present."""
        key = dep.canonical()
        if key in self._seen:
            return False
        self._seen.add(key)
        self.deps.append(dep)
        return True

    def __iter__(self) -> Iterator[GoFd]:
        return iter(self.deps)

    def __len__(self) -> int:
        return len(self.deps)

    def __contains__(self, dep: GoFd) -> bool:
        return dep.canonical() in self._seen

    def scopes(self) -> list[Pattern]:
        """The distinct scopes, one representative each, in first-seen order."""
        seen: set[str] = set()
        out: list[Pattern] = []
        for dep in self.deps:
            key = scope_key(dep.scope)
            if key not in seen:
                seen.add(key)
                out.append(dep.scope)
        return out


class DepClass(Enum):
    WITHIN_NODE = "within-node"
    WITHIN_EDGE = "within-edge"
    BETWEEN = "between"


def check_bound(dep: GoFd) -> None:
    universe = attrs(dep.scope)
    for var in sorted(dep.lhs | dep.rhs, key=var_sort_key):
        if var not in universe:
            raise UnboundVariable(
                f"variable {render_var(var)} does not occur in scope {render_pattern(dep.scope)}")


def classify(dep: GoFd) -> DepClass:
    """Within-node / within-edge / between, by the object families used."""
    check_bound(dep)
    roles = variable_roles(dep.scope)
    families = {var.name for var in dep.lhs | dep.rhs}
    if len(families) > 1:
        return DepClass.BETWEEN
    family = next(iter(families))
    return DepClass.WITHIN_NODE if roles[family] == "node" else DepClass.WITHIN_EDGE


@dataclass(frozen=True)
class Satisfaction:
    holds: bool
    witnesses: tuple[tuple[tuple[Atomic, ...], tuple[Atomic, ...]], ...]
    variables: tuple[Variable, ...]


def scope_matches(graph: Graph, dep: GoFd, matches: Relation | None) -> Relation:
    """The dependency's scope evaluated on the graph, or ``matches`` if given.

    Given matches must come from that very scope: shared within it, never across.
    """
    if matches is None:
        return evaluate(dep.scope, graph)
    if matches.scope != dep.scope:
        raise ScopeMismatch(f"matches were not evaluated for the scope of {dep.render()}")
    return matches


def map_per_scope(graph: Graph, deps: list[GoFd], fn: Callable[[GoFd, Relation], object]) -> list:
    """``fn(dep, matches)`` for each dependency in order, each distinct scope
    pattern evaluated once (alpha-renamed ones apart, as ``scope_matches``
    demands) and its matches let go before the next is evaluated."""
    groups: dict[Pattern, list[int]] = {}
    for pos, dep in enumerate(deps):
        groups.setdefault(dep.scope, []).append(pos)
    out: list = [None] * len(deps)
    for scope, members in groups.items():
        matches = evaluate(scope, graph)
        for pos in members:
            out[pos] = fn(deps[pos], matches)
        del matches
    return out


def satisfies(graph: Graph, dep: GoFd, max_witnesses: int = 5, *,
              matches: Relation | None = None) -> Satisfaction:
    """Check the dependency on the graph; collects up to ``max_witnesses`` violating pairs.

    Rows agree on a variable when its values' ``value_key``s are equal.  A
    witness is the first row of a left-side group and a later row of that
    group with other right-side values, in row order.  ``matches`` may pass
    the scope's already evaluated matches on ``graph``.
    """
    check_bound(dep)
    relation = scope_matches(graph, dep, matches)
    rows = relation.rows
    if not rows:
        return Satisfaction(True, (), relation.variables)
    index = {v: i for i, v in enumerate(relation.variables)}
    lhs_cols = [index[v] for v in sorted(dep.lhs, key=var_sort_key)]
    rhs_cols = [index[v] for v in sorted(dep.rhs, key=var_sort_key)]
    lefts = list(value_keys(rows, lhs_cols))
    rights = [column_keys(rows, column) for column in rhs_cols]  # each encoded once
    holds = True
    for keys in rights:  # one right-side column at a time, each checked in C
        last = dict(zip(lefts, keys))
        if not all(map(eq, map(last.__getitem__, lefts), keys)):
            holds = False
            break
    witnesses: list[tuple[tuple, tuple]] = []
    if not holds and max_witnesses > 0:
        first: dict[tuple, tuple] = {}  # left keys -> (right keys, first row)
        for left, right, row in zip(lefts, zip(*rights), rows):
            prev_right, prev_row = first.setdefault(left, (right, row))
            if prev_right != right:
                witnesses.append((prev_row, row))
                if len(witnesses) == max_witnesses:
                    break
    return Satisfaction(holds, tuple(witnesses), relation.variables)


def structurally_implied(scope: Pattern) -> tuple[GoFd, ...]:
    """Dependencies every graph satisfies on this scope.

    Each object identity determines the object's own required properties, and
    an edge identity determines the endpoint exposed by the pattern.
    """
    out: list[GoFd] = []
    for var in sorted(attrs(scope), key=var_sort_key):
        if isinstance(var, PropVar):
            out.append(gofd(scope, [ObjectVar(var.name)], [var]))
    if isinstance(scope, NodeEdgePattern):
        out.append(gofd(scope, [ObjectVar(scope.edge_var)], [ObjectVar(scope.node_var)]))
    return tuple(out)


class ClosureKernel:
    """Attribute closures over a fixed set of variables, on integer bit masks.

    Bit ``i`` stands for the ``i``-th variable in ``var_sort_key`` order, so
    ascending bits list a variable set in the library's variable order.  The
    dependencies are compiled once into ``(lhs, rhs)`` mask pairs, one per
    distinct left side; ``close`` is then a fixpoint of integer operations.
    """

    def __init__(self, variables: Iterable[Variable], deps: Iterable[GoFd] = ()):
        self.variables = tuple(sorted(set(variables), key=var_sort_key))
        self.bits = {var: 1 << i for i, var in enumerate(self.variables)}
        self.full = (1 << len(self.variables)) - 1
        self.rules = self.compile(deps)

    @classmethod
    def for_scope(cls, scope: Pattern, deps: Iterable[GoFd]) -> "ClosureKernel":
        """The scope's attributes under ``deps`` plus its structural axioms."""
        return cls(attrs(scope), list(deps) + list(structurally_implied(scope)))

    def mask(self, variables: Iterable[Variable]) -> int:
        out = 0
        for var in variables:
            bit = self.bits.get(var)
            if bit is None:
                raise UnboundVariable(f"variable {render_var(var)} is not among "
                                      f"{render_vars(self.variables)}")
            out |= bit
        return out

    def unmask(self, mask: int) -> list[Variable]:
        """The variables of ``mask``, in ascending bit order."""
        return [var for i, var in enumerate(self.variables) if mask >> i & 1]

    def compile(self, deps: Iterable[GoFd]) -> list[tuple[int, int]]:
        """One ``(lhs, rhs)`` pair per distinct left side, trivial parts dropped."""
        rules: dict[int, int] = {}
        for dep in deps:
            lhs = self.mask(dep.lhs)
            rhs = self.mask(dep.rhs) & ~lhs
            if rhs:
                rules[lhs] = rules.get(lhs, 0) | rhs
        return list(rules.items())

    def close(self, mask: int) -> int:
        return _fixpoint(mask, self.rules)


def _fixpoint(mask: int, rules: list[tuple[int, int]]) -> int:
    """Smallest superset of ``mask`` closed under the ``(lhs, rhs)`` mask rules."""
    pending = rules
    while True:
        waiting = []
        for lhs, rhs in pending:
            if lhs & mask == lhs:
                mask |= rhs
            else:
                waiting.append((lhs, rhs))
        if len(waiting) == len(pending):
            return mask
        pending = waiting


def closure(seed: Iterable[Variable], deps: Iterable[GoFd]) -> frozenset[Variable]:
    """Fixpoint of the seed set under the descriptors of ``deps``; kept because
    the benchmark's tracer wraps it and the oracle tests compare against it."""
    seed, deps = list(seed), list(deps)
    kernel = ClosureKernel(seed + [v for dep in deps for v in dep.lhs | dep.rhs], deps)
    return frozenset(kernel.unmask(kernel.close(kernel.mask(seed))))


def scope_closure(seed: Iterable[Variable], deps: Iterable[GoFd], scope: Pattern) -> frozenset[Variable]:
    """``closure`` with the scope's structural axioms; kept, as ``closure`` is."""
    return closure(seed, list(deps) + list(structurally_implied(scope)))


def applicable_deps(schema: Iterable[GoFd], scope: Pattern) -> tuple[GoFd, ...]:
    """All schema dependencies whose scope generalizes ``scope``, restricted to it.

    Includes the scope's own dependencies (a pattern generalizes itself).
    The result is deduplicated and ordered by canonical text.
    """
    collected: dict[str, GoFd] = {}
    for dep in schema:
        if more_general_than(dep.scope, scope):
            restricted = restrict(dep, scope)
            collected.setdefault(restricted.canonical(), restricted)
    return tuple(collected[k] for k in sorted(collected))


def _same_scope(deps: list[GoFd]) -> Pattern:
    scopes = {scope_key(dep.scope) for dep in deps}
    if len(scopes) > 1:
        raise ScopeMismatch(f"dependencies span {len(scopes)} scopes, expected one")
    return deps[0].scope


def minimal_cover(deps: Iterable[GoFd]) -> tuple[GoFd, ...]:
    """Equivalent cover with minimal left sides and no redundant member.

    All dependencies must share one scope (restrict them first).  Right sides
    are split to single variables while minimizing and recombined per left
    side at the end; candidate removals are tried in lexicographic order so
    the result is deterministic.
    """
    pool = [d for d in deps]
    if not pool:
        return ()
    scope = _same_scope(pool)
    # align variable names across alpha-equivalent scopes
    pool = [restrict(dep, scope) for dep in pool]
    for dep in pool:
        check_bound(dep)
    kernel = ClosureKernel(attrs(scope))
    structural = kernel.compile(structurally_implied(scope))

    def render(rule: tuple[int, int]) -> str:
        return gofd(scope, kernel.unmask(rule[0]), kernel.unmask(rule[1])).render()

    # split right sides to single variables, drop trivial parts
    split: dict[tuple[int, int], None] = {}
    for dep in sorted(pool, key=lambda d: d.render()):
        lhs = kernel.mask(dep.lhs)
        rest = kernel.mask(dep.rhs) & ~lhs
        while rest:
            bit = rest & -rest
            split[lhs, bit] = None
            rest ^= bit

    # minimize left sides against the full current set
    current = list(split)
    for i, (lhs, rhs) in enumerate(current):
        rest = lhs
        while rest and lhs & (lhs - 1):  # try each variable while two are left
            bit = rest & -rest
            rest ^= bit
            if _fixpoint(lhs & ~bit, current + structural) & rhs == rhs:
                lhs &= ~bit
        current[i] = (lhs, rhs)

    # drop members implied by the rest
    kept = list(dict.fromkeys(current))
    for rule in sorted(kept, key=render):
        rest = [r for r in kept if r != rule]
        if _fixpoint(rule[0], rest + structural) & rule[1] == rule[1]:
            kept = rest

    # recombine right sides per left side
    grouped: dict[int, int] = {}
    for lhs, rhs in kept:
        grouped[lhs] = grouped.get(lhs, 0) | rhs
    return tuple(sorted((gofd(scope, kernel.unmask(lhs), kernel.unmask(rhs))
                         for lhs, rhs in grouped.items()), key=lambda d: d.render()))
