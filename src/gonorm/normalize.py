"""Dependency-guided normalization of a graph.

One scope is normalized in four phases: gather every schema dependency that
applies to the scope, validate that the graph satisfies them, reduce them to
a minimal cover, then plan and execute the redundancy-removing
transformations.  The resulting schema keeps the untouched dependencies,
keeps the cover members that had nothing to transform, and gains one key
dependency per value-node family the transformations created.

Normalizing a whole schema runs the scopes from most specific to most
general, threading graph and schema through, so a general dependency is
first applied on the specialized scopes it restricts to and only then on
its own.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable

from .errors import InvariantError, NonStrict, UnsatisfiedDependency
from .gofd import GnSchema, GoFd, applicable_deps, gofd, minimal_cover, satisfies
from .graph import Graph
from .pattern import (Pattern, Variable, evaluate, more_general_than, render_pattern, scope_key,
                      var_sort_key)
from .transform import (
    Transformation,
    TransformationKind,
    _VIEWS,
    _execute,
    _walk,
    build_plans,
    check_transformable,
)

logger = logging.getLogger("gonorm")


@dataclass
class PhaseLog:
    """What one scope's normalization pass did, for reporting."""

    scope: str
    collected: list[str] = field(default_factory=list)
    cover: list[str] = field(default_factory=list)
    transformations: list[Transformation] = field(default_factory=list)
    kept: list[str] = field(default_factory=list)
    key_dependencies: list[str] = field(default_factory=list)
    zero_match: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self, explain: bool = False) -> dict:
        return {
            "scope": self.scope,
            "collected": list(self.collected),
            "cover": list(self.cover),
            "transformations": [
                plan.to_dict() if explain else
                {"dependency": plan.dependency.render(), "kind": plan.kind.value,
                 "matches": plan.match_count}
                for plan in self.transformations
            ],
            "kept": list(self.kept),
            "keyDependencies": list(self.key_dependencies),
            "zeroMatch": list(self.zero_match),
            "warnings": list(self.warnings),
        }


@dataclass
class NormalizationResult:
    graph: Graph
    schema: GnSchema
    logs: list[PhaseLog]


def scoped_normalize(graph: Graph, schema: Iterable[GoFd], scope: Pattern) -> NormalizationResult:
    """Remove the redundancy one scope's dependencies describe.

    Raises ``UnsatisfiedDependency`` if the graph violates any dependency
    applicable to the scope.  The input graph is never changed: the result
    holds a normalized copy.  Cover members are split to one determined
    variable each before planning, so a combined right side never blocks its
    transformable parts.  A part that cannot be transformed is kept with a
    warning: its left side mixes the node and edge family, or the output
    could not tell which edges held a property it moves off them (see
    ``check_transformable``).
    """
    return _normalize_scope(graph.copy(), schema, scope)


def _normalize_scope(graph: Graph, schema: Iterable[GoFd], scope: Pattern) -> NormalizationResult:
    """``scoped_normalize`` on ``graph`` itself, which the result holds.

    If it raises, ``graph`` may be left half transformed.
    """
    schema = list(schema)
    log = PhaseLog(render_pattern(scope))

    # phase 1: every dependency that restricts to this scope
    sigma = applicable_deps(schema, scope)
    log.collected = [dep.render() for dep in sigma]

    # phase 2: the graph must satisfy them all before restructuring; the
    # scope is matched once, and every phase below reads these matches
    matches = evaluate(scope, graph)
    for dep in sigma:
        outcome = satisfies(graph, dep, matches=matches)
        if not outcome.holds:
            raise UnsatisfiedDependency(dep.render(), outcome.witnesses, outcome.variables)
    cover = minimal_cover(sigma)
    log.cover = [dep.render() for dep in cover]

    # phase 3: plan one transformation per determined variable and execute;
    # the cover has one member per left side, so a left side names its member
    parts: list[GoFd] = []
    kept: dict[frozenset[Variable], list[Variable]] = {}  # left side -> right sides kept
    for dep in cover:
        for var in sorted(dep.rhs - dep.lhs, key=var_sort_key):
            part = gofd(dep.scope, dep.lhs, [var])
            try:
                check_transformable(graph, part, matches=matches)
            except (NonStrict, InvariantError) as reason:
                log.warnings.append(
                    f"not transformable, kept as is: {part.render()} ({reason})")
                kept.setdefault(dep.lhs, []).append(var)
                continue
            parts.append(part)
    plans, leftovers = build_plans(graph, parts, matches=matches)
    log.transformations = plans
    for dep, kind in leftovers:
        kept.setdefault(dep.lhs, []).extend(dep.rhs)
        if kind is not TransformationKind.NO_REDUNDANCY:
            log.zero_match.append(dep.render())
    untouched = [gofd(dep.scope, dep.lhs, kept[dep.lhs]) for dep in cover if dep.lhs in kept]
    _execute(graph, plans)
    if logger.isEnabledFor(logging.DEBUG):
        _log_pass(log.scope, len(matches), plans)

    # phase 4: assemble the surviving schema
    result = GnSchema()
    key = scope_key(scope)
    for dep in schema:
        if scope_key(dep.scope) != key:
            result.add(dep)
    for dep in untouched:
        result.add(dep)
    log.kept = [dep.render() for dep in untouched]
    for plan in plans:
        if plan.key_dependency is not None and result.add(plan.key_dependency):
            log.key_dependencies.append(plan.key_dependency.render())
    return NormalizationResult(graph, result, [log])


def _log_pass(scope: str, matches: int, plans: list[Transformation]) -> None:
    ops: dict[str, set[tuple]] = {}  # each op of the walk once, by tag
    for tag, *columns in _walk(plans):
        ops.setdefault(tag, set()).update(zip(*columns))
    counts = sorted((_VIEWS[tag].__name__, len(fields)) for tag, fields in ops.items())
    value_nodes = {op[0] for op in ops.get("new-node", ()) if op[0].startswith("sk:val|")}
    logger.debug("normalized %s: %d matches, %d plans, ops %s, %d value nodes created",
                  scope, matches, len(plans),
                  " ".join(f"{kind}={count}" for kind, count in counts) or "none",
                  len(value_nodes))


def sort_scopes(scopes: Iterable[Pattern]) -> list[Pattern]:
    """Most specific scope first; ties broken by canonical scope text.

    When one scope generalizes another, the specialized one is normalized
    first, so shared dependencies act on the narrow matches before the wide
    ones.
    """
    unique: dict[str, Pattern] = {}
    for scope in scopes:
        unique.setdefault(scope_key(scope), scope)
    keys = sorted(unique)
    blockers: dict[str, set[str]] = {k: set() for k in keys}
    for a in keys:
        for b in keys:
            if a != b and more_general_than(unique[a], unique[b]):
                blockers[a].add(b)  # a is general: every specialization goes first
    ordered: list[Pattern] = []
    done: set[str] = set()
    while len(done) < len(keys):
        ready = next(k for k in keys if k not in done and blockers[k] <= done)
        done.add(ready)
        ordered.append(unique[ready])
    return ordered


def full_normalize(graph: Graph, schema: Iterable[GoFd]) -> NormalizationResult:
    """Normalize every scope of the schema, most specific first, on one copy
    of the graph, which the result holds; the input is never changed."""
    return _full_normalize(graph.copy(), schema)


def _full_normalize(graph: Graph, schema: Iterable[GoFd]) -> NormalizationResult:
    """``full_normalize`` on ``graph`` itself, which the result holds.

    The scope list is fixed up front; scopes of key dependencies created
    along the way describe already-normalized value nodes and are not
    processed again.  If it raises, ``graph`` may be left half transformed.
    """
    current = GnSchema(schema)
    order = sort_scopes(current.scopes())
    logs: list[PhaseLog] = []
    for index, scope in enumerate(order):
        step = _normalize_scope(graph, current, scope)
        for plan in step.logs[0].transformations:
            plan.pass_index = index
        current = step.schema
        logs.extend(step.logs)
    return NormalizationResult(graph, current, logs)
