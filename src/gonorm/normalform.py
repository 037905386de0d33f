"""Normal-form checks for a graph schema.

Keys and normal forms are judged per scope, over the scope's attribute set
and the dependencies that restrict to it (plus the structural axioms that
hold in every graph).  The first normal form concerns the data itself and is
guaranteed by the atomic-value rule of the graph store; the second is vacuous
because patterns only expose whole objects, never partial keys; the third and
Boyce-Codd forms are the interesting checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable

from .errors import SizeLimit
from .gofd import ClosureKernel, GnSchema, GoFd, applicable_deps, gofd
from .graph import Graph, check_atomic
from .pattern import Pattern, Variable, attrs, render_pattern


class NormalForm(Enum):
    GN1NF = "1nf"
    GN2NF = "2nf"
    GN3NF = "3nf"
    GNBCNF = "bcnf"


class ViolationReason(Enum):
    NOT_SUPERKEY = "lhs-not-superkey"
    NOT_PRIME = "rhs-not-prime"


@dataclass(frozen=True)
class Violation:
    scope: str
    dependency: str
    reason: ViolationReason


@dataclass(frozen=True)
class NormalFormReport:
    form: NormalForm
    holds: bool
    violations: tuple[Violation, ...] = ()


DEFAULT_MAX_ATTRS = 12


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _check_size(scope: Pattern, max_attrs: int) -> None:
    size = len(attrs(scope))
    if size > max_attrs:
        raise SizeLimit(f"scope has {size} attributes, limit is {max_attrs}")


def candidate_keys(scope: Pattern, deps: Iterable[GoFd],
                   max_attrs: int = DEFAULT_MAX_ATTRS) -> tuple[frozenset[Variable], ...]:
    """All subset-minimal non-empty superkeys of the scope's attribute set.

    Scopes with more than ``max_attrs`` attributes are refused.
    """
    _check_size(scope, max_attrs)
    kernel = ClosureKernel.for_scope(scope, deps)
    return tuple(frozenset(kernel.unmask(key)) for key in _keys(kernel))


def _keys(kernel: ClosureKernel) -> list[int]:
    """The minimal non-empty superkeys, ordered by their variables.

    Lucchesi & Osborn (1978): shrink the full set to one key; then for each
    key ``K`` and rule ``X => Y``, the superkey ``X | (K - Y)`` shrinks to a
    new key unless it contains a known one.  Each shrink finds a new key and
    closes at most one set per variable, so the cost grows with the keys, not
    with the subsets.  When the empty set is a superkey, the non-empty
    minimal ones are the single variables.
    """
    full = kernel.full
    if kernel.close(0) == full:
        return [1 << i for i in range(len(kernel.variables))]

    def shrink(mask: int) -> int:
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            if kernel.close(mask & ~bit) == full:
                mask &= ~bit
        return mask

    keys = [shrink(full)]
    for key in keys:  # grows while it is walked
        for lhs, rhs in kernel.rules:
            candidate = lhs | key & ~rhs
            if not any(known & candidate == known for known in keys):
                keys.append(shrink(candidate))
    return sorted(keys, key=_bits)


def check_gn1nf(graph: Graph) -> NormalFormReport:
    """Atomic property values; holds by construction, verified defensively."""
    for record in chain(graph.nodes.values(), graph.edges.values()):
        for value in record.props.values():
            check_atomic(value)
    return NormalFormReport(NormalForm.GN1NF, True)


def _lhs_candidates(kernel: ClosureKernel, deps: list[GoFd]) -> list[tuple[int, int]]:
    """Left sides that are not superkeys, each with its closure, by size and then
    variables: unions of schema left sides, and single variables.

    A union is extended only while it is not a superkey; every sub-union of a
    non-superkey is one too, so all non-superkey unions are still reached.
    """
    full = kernel.full
    closures: dict[int, int] = {}  # union -> its closure

    def visit(mask: int, implied: int) -> None:
        if mask not in closures:
            closures[mask] = kernel.close(implied)

    for dep in deps:
        lhs = kernel.mask(dep.lhs)
        visit(lhs, lhs)
        implied = closures[lhs]
        if implied == full:
            continue  # a superkey, and so is every union with it
        for union, union_implied in list(closures.items()):
            if union_implied != full:
                visit(union | lhs, union_implied | implied)
    for i in range(len(kernel.variables)):
        visit(1 << i, 1 << i)
    return sorted(((mask, implied) for mask, implied in closures.items() if implied != full),
                  key=lambda pair: (pair[0].bit_count(), _bits(pair[0])))


def check_scoped(form: NormalForm, scope: Pattern, schema: Iterable[GoFd],
                 max_attrs: int = DEFAULT_MAX_ATTRS) -> NormalFormReport:
    """Third or Boyce-Codd normal form of one scope.

    Every non-trivial dependency entailed for the scope must have a superkey
    left side; the third normal form also accepts a right side that is part
    of some candidate key.  The entailed dependencies listed are ``X => v``
    for every left side ``X`` that is a union of one or more left sides of
    the applicable dependencies, or a single variable, and is not a
    superkey; ``v`` ranges over the closure of ``X`` outside ``X``, minus
    the prime variables for the third form.  Left sides come by size and
    then variables, right sides by variable.  Scopes with more than
    ``max_attrs`` attributes are refused for both forms.
    """
    if form is NormalForm.GN2NF:
        return NormalFormReport(NormalForm.GN2NF, True)
    if form not in (NormalForm.GN3NF, NormalForm.GNBCNF):
        raise ValueError(f"per-scope check expects 3nf or bcnf, got {form.value}")
    _check_size(scope, max_attrs)
    deps = list(applicable_deps(schema, scope))
    kernel = ClosureKernel.for_scope(scope, deps)
    prime = 0
    if form is NormalForm.GN3NF:
        for key in _keys(kernel):
            prime |= key
    reason = (ViolationReason.NOT_SUPERKEY if form is NormalForm.GNBCNF
              else ViolationReason.NOT_PRIME)
    scope_text = render_pattern(scope)
    violations: list[Violation] = []
    for lhs, implied in _lhs_candidates(kernel, deps):
        left = kernel.unmask(lhs)
        for rhs in kernel.unmask(implied & ~lhs & ~prime):
            violations.append(Violation(scope_text, gofd(scope, left, [rhs]).render(), reason))
    return NormalFormReport(form, not violations, tuple(violations))


def check_gn_nf(form: NormalForm, schema: Iterable[GoFd], graph: Graph | None = None,
                max_attrs: int = DEFAULT_MAX_ATTRS) -> NormalFormReport:
    """Whole-schema check: the conjunction of the per-scope checks, each distinct
    scope once, in first-seen order; a violation names its scope, so none repeats."""
    if form is NormalForm.GN1NF:
        if graph is None:
            raise ValueError("the first normal form is a property of the graph; pass one")
        return check_gn1nf(graph)
    deps = list(schema)
    violations = [violation for scope in GnSchema(deps).scopes()
                  for violation in check_scoped(form, scope, deps, max_attrs).violations]
    return NormalFormReport(form, not violations, tuple(violations))
