"""Correctness checks on the outputs of one benchmark invocation.

Each check reads a verb's captured output and recomputes the answer another
way: dependency verdicts (on the workload's graph and on one that breaks
them) and group sizes with the brute-force oracles in ``tests/oracles.py``,
covers and normal-form violations with the plain fixpoint closure below, and
the normalization by running ``verify_lossless`` on every plan against the
verb's input and written output.  Nothing here runs inside a timed region.
"""
from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field
from itertools import combinations

from gonorm import (
    GnSchema,
    NodeEdgePattern,
    ObjectVar,
    PropVar,
    applicable_deps,
    attrs,
    dump_graph,
    full_normalize,
    load_graph,
    parse_gofd,
    parse_pattern_text,
    restrict,
    scope_key,
    verify_lossless,
)
from oracles import oracle_potentials, oracle_satisfies


@dataclass
class Output:
    """What one verb call left behind: exit code, streams and written files."""

    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes] = field(default_factory=dict)


@dataclass
class CheckReport:
    problems: dict[str, list[str]] = field(default_factory=dict)
    stored_bytes_ratio: float = 0.0
    verify_lossless_s: float = 0.0
    plans_verified: int = 0

    def fail(self, verb: str, text: str) -> None:
        self.problems.setdefault(verb, []).append(text)


# -- closures, written independently of gonorm.gofd ---------------------------

def _axioms(scope) -> list[tuple[frozenset, frozenset]]:
    """Dependencies every graph satisfies: an object fixes its own properties,
    and in a node-edge scope the edge fixes the node."""
    out = [(frozenset([ObjectVar(v.name)]), frozenset([v]))
           for v in attrs(scope) if isinstance(v, PropVar)]
    if isinstance(scope, NodeEdgePattern):
        out.append((frozenset([ObjectVar(scope.edge_var)]),
                    frozenset([ObjectVar(scope.node_var)])))
    return out


def _closure(seed, fds) -> frozenset:
    result = set(seed)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds:
            if lhs <= result and not rhs <= result:
                result |= rhs
                changed = True
    return frozenset(result)


def _fds(deps, scope) -> list[tuple[frozenset, frozenset]]:
    return [(dep.lhs, dep.rhs) for dep in deps] + _axioms(scope)


def _prime(universe: frozenset, fds) -> frozenset:
    """Union of all candidate keys, by trying every subset of the attributes."""
    members = sorted(universe, key=lambda v: (v.name, getattr(v, "key", "")))
    keys: list[frozenset] = []
    for size in range(1, len(members) + 1):
        for combo in combinations(members, size):
            candidate = frozenset(combo)
            if not any(key <= candidate for key in keys) and _closure(candidate, fds) == universe:
                keys.append(candidate)
    return frozenset().union(*keys)


class _ScopeFacts:
    """A scope's attributes, dependencies (given and structural) and prime
    attributes, the last found by brute force only when asked for."""

    def __init__(self, schema: GnSchema, scope) -> None:
        self.scope = scope
        self.universe = attrs(scope)
        given = applicable_deps(schema, scope)
        self.fds = _fds(given, scope)
        self.lhs_sides = {dep.lhs for dep in given}
        self._prime: frozenset | None = None

    @property
    def prime(self) -> frozenset:
        if self._prime is None:
            self._prime = _prime(self.universe, self.fds)
        return self._prime

    def violates(self, form: str, lhs: frozenset, var) -> bool:
        """Whether ``lhs => var`` is entailed, non-trivial and breaks the form."""
        implied = _closure(lhs, self.fds)
        return (var not in lhs and var in implied and implied != self.universe
                and (form == "bcnf" or var not in self.prime))

    def textbook_violations(self, form: str) -> set[tuple[frozenset, object]]:
        """Violations whose left side is a schema left side or one variable."""
        found = set()
        for lhs in self.lhs_sides | {frozenset([v]) for v in self.universe}:
            for var in _closure(lhs, self.fds) - lhs:
                if self.violates(form, lhs, var):
                    found.add((lhs, var))
        return found


# -- per-verb checks ----------------------------------------------------------

def _check(report: CheckReport, graph, schema: GnSchema, out: Output,
           must_fail: bool = False) -> None:
    """Verdicts against the oracle; with ``must_fail``, the oracle must also
    find some dependency broken, or the graph tests nothing."""
    doc = json.loads(out.stdout)
    results = doc["results"]
    if len(results) != len(schema):
        report.fail("check", f"{len(results)} results for {len(schema)} dependencies")
        return
    for dep, entry in zip(schema, results):
        expected = oracle_satisfies(graph, dep)
        if entry["gofd"] != dep.render() or entry["holds"] != expected:
            report.fail("check", f"{dep.render()}: holds={entry['holds']}, oracle {expected}")
    if out.code != (0 if doc["holds"] else 1):
        report.fail("check", f"exit code {out.code} for holds={doc['holds']}")
    if must_fail and all(oracle_satisfies(graph, dep) for dep in schema):
        report.fail("check", "every dependency holds on the violating graph")


def _metrics(report: CheckReport, graph, schema: GnSchema, out: Output) -> None:
    entries = json.loads(out.stdout)["perDependency"]
    if len(entries) != len(schema):
        report.fail("metrics", f"{len(entries)} profiles for {len(schema)} dependencies")
        return
    for dep, entry in zip(schema, entries):
        expected = oracle_potentials(graph, dep)
        if sorted(entry["M"]) != expected:
            report.fail("metrics", f"{dep.render()}: group sizes differ from the oracle")


def _normalize(report: CheckReport, graph, schema: GnSchema, out: Output) -> None:
    doc = json.loads(out.stdout)
    result_text = out.files["out.graph.json"]
    result = load_graph(io.StringIO(result_text.decode("utf-8")))
    for entry in doc["passes"]:
        for text in entry["keyDependencies"]:
            if not oracle_satisfies(result, parse_gofd(text)):
                report.fail("normalize", f"emitted key dependency fails on the output: {text}")
    report.stored_bytes_ratio = (len(dump_graph(result).encode("utf-8"))
                                 / len(dump_graph(graph).encode("utf-8")))

    # every plan, checked against the verb's own input and written output;
    # the lossless check reads reifier nodes as edges, so it cannot be given
    # a pass's input once an earlier pass has reified edges of the same label
    replay = full_normalize(graph, schema)
    if dump_graph(replay.graph).encode("utf-8") != result_text:
        report.fail("normalize", "normalizing in-process does not reproduce the written graph")
    plans = [plan for log in replay.logs for plan in log.transformations]
    started = time.perf_counter()
    for plan in plans:
        if not verify_lossless(graph, result, plan, [other for other in plans if other is not plan]):
            report.fail("normalize", f"plan not lossless: {plan.dependency.render()}")
    report.verify_lossless_s = time.perf_counter() - started
    report.plans_verified = len(plans)


def _mincover(report: CheckReport, schema: GnSchema, out: Output) -> None:
    """Each cover is equivalent to its scope's dependencies and minimal: no
    right-side variable is implied by the rest, and no left side can lose a
    variable."""
    for entry in json.loads(out.stdout)["scopes"]:
        scope = parse_pattern_text(entry["scope"])
        given = _fds(applicable_deps(schema, scope), scope)
        members = [(dep.lhs, dep.rhs) for dep in
                   (restrict(parse_gofd(text), scope) for text in entry["cover"])]
        cover = members + _axioms(scope)
        for lhs, rhs in given:
            if not rhs <= _closure(lhs, cover):
                report.fail("mincover", f"cover of {entry['scope']} loses a dependency")
                break
        for lhs, rhs in cover:
            if not rhs <= _closure(lhs, given):
                report.fail("mincover", f"cover of {entry['scope']} adds a dependency")
                break
        for i, (lhs, rhs) in enumerate(members):
            for var in rhs:
                rest = cover[:i] + [(lhs, rhs - {var})] + cover[i + 1:]
                if var in lhs or var in _closure(lhs, rest):
                    report.fail("mincover", f"cover of {entry['scope']}: {entry['cover'][i]} "
                                            f"is redundant")
                for drop in lhs if len(lhs) > 1 else ():
                    if var in _closure(lhs - {drop}, cover):
                        report.fail("mincover", f"cover of {entry['scope']}: left side of "
                                                f"{entry['cover'][i]} is not minimal")


def _nf(report: CheckReport, verb: str, form: str, schema: GnSchema, out: Output) -> None:
    """Every reported violation is real, and every one the textbook test finds
    with a schema or single-variable left side is reported."""
    doc = json.loads(out.stdout)
    scopes: dict[str, _ScopeFacts] = {}  # each distinct scope, as first declared
    for declared in schema:
        if scope_key(declared.scope) not in scopes:
            scopes[scope_key(declared.scope)] = _ScopeFacts(schema, declared.scope)
    reason = "lhs-not-superkey" if form == "bcnf" else "rhs-not-prime"
    reported: set[tuple[str, frozenset, object]] = set()
    for entry in doc["violations"]:
        dep = parse_gofd(entry["dependency"])
        facts = scopes.get(scope_key(dep.scope))
        if facts is None or entry["reason"] != reason or len(dep.rhs) != 1:
            report.fail(verb, f"malformed violation {entry}")
            continue
        dep = restrict(dep, facts.scope)
        [var] = dep.rhs
        if not facts.violates(form, dep.lhs, var):
            report.fail(verb, f"not a violation: {entry['dependency']}")
        if (scope_key(dep.scope), dep.lhs, var) in reported:
            report.fail(verb, f"reported twice: {entry['dependency']}")
        reported.add((scope_key(dep.scope), dep.lhs, var))
    expected = {(key, lhs, var) for key, facts in scopes.items()
                for lhs, var in facts.textbook_violations(form)}
    missing = expected - reported
    if missing:
        report.fail(verb, f"{len(missing)} textbook violations not reported")
    if doc["holds"] != (not expected):
        report.fail(verb, f"holds={doc['holds']}, textbook test finds {len(expected)} violations")
    if out.code != (0 if doc["holds"] else 1) or doc["holds"] != (not doc["violations"]):
        report.fail(verb, f"exit code {out.code} and {len(doc['violations'])} violations "
                          f"for holds={doc['holds']}")


def run_checks(graph_path: str, schema, outputs: dict[str, Output],
               violating_path: str, violating: Output | None) -> CheckReport:
    """Check every verb's reference output; ``schema`` is the loaded GnSchema.

    ``violating`` is the output of ``check`` on the graph at ``violating_path``,
    which breaks some dependencies, or None where the workload has no such graph.
    """
    report = CheckReport()
    graph = load_graph(graph_path)
    checks = {
        "check": lambda out: _check(report, graph, schema, out),
        "metrics": lambda out: _metrics(report, graph, schema, out),
        "normalize": lambda out: _normalize(report, graph, schema, out),
        "mincover": lambda out: _mincover(report, schema, out),
        "nf_bcnf": lambda out: _nf(report, "nf_bcnf", "bcnf", schema, out),
        "nf_3nf": lambda out: _nf(report, "nf_3nf", "3nf", schema, out),
    }
    for verb, out in outputs.items():
        if out.code not in (0, 1):
            report.fail(verb, f"exit code {out.code}: {out.stderr.strip()[-300:]}")
            continue
        try:
            checks[verb](out)
        except (KeyError, ValueError) as exc:
            report.fail(verb, f"unreadable output: {exc!r}")
    if violating is not None:
        try:
            _check(report, load_graph(violating_path), schema, violating, must_fail=True)
        except (KeyError, ValueError) as exc:
            report.fail("check", f"unreadable output on the violating graph: {exc!r}")
    return report
