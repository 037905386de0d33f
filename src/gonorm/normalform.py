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
from itertools import combinations
from typing import Iterable

from .errors import SizeLimit
from .gofd import ClosureKernel, GoFd, applicable_deps, gofd
from .graph import Graph, check_atomic
from .pattern import Pattern, Variable, attrs, render_pattern, scope_key


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


def is_superkey(candidate: Iterable[Variable], scope: Pattern, deps: Iterable[GoFd]) -> bool:
    kernel = ClosureKernel.for_scope(scope, deps)
    return kernel.close(kernel.mask(candidate)) == kernel.full


def candidate_keys(scope: Pattern, deps: Iterable[GoFd],
                   max_attrs: int = DEFAULT_MAX_ATTRS) -> tuple[frozenset[Variable], ...]:
    """All subset-minimal superkeys of the scope's attribute set.

    Enumerates subsets by size, skipping supersets of keys already found;
    scopes with more than ``max_attrs`` attributes are refused.
    """
    _check_size(scope, max_attrs)
    kernel = ClosureKernel.for_scope(scope, deps)
    bits = [1 << i for i in range(len(kernel.variables))]
    keys: list[int] = []
    for size in range(1, len(bits) + 1):
        for combo in combinations(bits, size):
            candidate = sum(combo)
            if any(key & candidate == key for key in keys):
                continue
            if kernel.close(candidate) == kernel.full:
                keys.append(candidate)
    return tuple(frozenset(kernel.unmask(key)) for key in sorted(keys, key=_bits))


def check_gn1nf(graph: Graph) -> NormalFormReport:
    """Atomic property values; holds by construction, verified defensively."""
    for obj_id in graph.iter_objects():
        for value in graph.props(obj_id).values():
            check_atomic(value)
    return NormalFormReport(NormalForm.GN1NF, True)


def _lhs_candidates(kernel: ClosureKernel, deps: list[GoFd]) -> list[int]:
    """Left sides worth testing: unions of schema left sides plus single variables."""
    unions: set[int] = set()
    for dep in deps:
        lhs = kernel.mask(dep.lhs)
        unions |= {lhs} | {u | lhs for u in unions}
    unions.update(1 << i for i in range(len(kernel.variables)))
    return sorted(unions, key=lambda m: (m.bit_count(), _bits(m)))


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
        for key in candidate_keys(scope, deps, max_attrs=max_attrs):
            prime |= kernel.mask(key)
    reason = (ViolationReason.NOT_SUPERKEY if form is NormalForm.GNBCNF
              else ViolationReason.NOT_PRIME)
    scope_text = render_pattern(scope)
    violations: list[Violation] = []
    for lhs in _lhs_candidates(kernel, deps):
        implied = kernel.close(lhs)
        if implied == kernel.full:
            continue  # superkey left side cannot violate
        left = kernel.unmask(lhs)
        for rhs in kernel.unmask(implied & ~lhs & ~prime):
            violations.append(Violation(scope_text, gofd(scope, left, [rhs]).render(), reason))
    return NormalFormReport(form, not violations, tuple(violations))


def check_gn_nf(form: NormalForm, schema: Iterable[GoFd], graph: Graph | None = None,
                max_attrs: int = DEFAULT_MAX_ATTRS) -> NormalFormReport:
    """Whole-schema check: the conjunction of the per-scope checks."""
    if form is NormalForm.GN1NF:
        if graph is None:
            raise ValueError("the first normal form is a property of the graph; pass one")
        return check_gn1nf(graph)
    if form is NormalForm.GN2NF:
        return NormalFormReport(NormalForm.GN2NF, True)
    deps = list(schema)
    seen: set[str] = set()
    violations: list[Violation] = []
    for dep in deps:
        key = scope_key(dep.scope)
        if key in seen:
            continue
        seen.add(key)
        report = check_scoped(form, dep.scope, deps, max_attrs=max_attrs)
        violations.extend(report.violations)
    unique = tuple(dict.fromkeys(violations))
    return NormalFormReport(form, not unique, unique)
