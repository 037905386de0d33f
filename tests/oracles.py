"""Independent oracles and seeded corpus generators for the test suite.

Everything in this module recomputes expected answers from first principles
and deliberately avoids the code paths under test: the matcher enumerates
candidate assignments by brute force, the dependency check is a pairwise
scan over rows, and the closure oracle intersects every closed superset it
can enumerate.  The generators construct graphs that satisfy a dependency
*by construction*, so the expected outcome of each check is known before
the library runs.

A few library helpers are reused as the specification itself, not
recomputed: the descriptor-shape table (``match_redundancy_pattern``), the
value-node label (``skolem_label``), the reifier node and created edge ids
(``reifier_id``, ``created_edge_id``) and the reification label prefix
(``reification_prefix``).  Value-node ids are rebuilt from their
definition by ``oracle_skolem_node_id``.
"""

from __future__ import annotations

import json
import random
import re
from typing import Iterable, NamedTuple, Union

from itertools import combinations

from gonorm import (
    ANON_EDGE_VAR,
    Direction,
    EdgeOnlyPattern,
    GoFd,
    Graph,
    InvariantError,
    NodeEdgePattern,
    NodePattern,
    NormalForm,
    ObjectVar,
    ParseError,
    Pattern,
    PropVar,
    Relation,
    Variable,
    Violation,
    ViolationReason,
    applicable_deps,
    attrs,
    edge_pattern,
    gofd,
    node_edge_pattern,
    node_pattern,
    render_pattern,
    restrict,
    variable_roles,
    structurally_implied,
)
from gonorm.graph import Atomic, graph_to_dict
from gonorm.transform import (
    TransformationKind,
    created_edge_id,
    match_redundancy_pattern,
    reification_prefix,
    reifier_id,
    skolem_label,
)


# The four primitive ops as the oracles write them down, with the names and
# fields of the library's views, so the two print alike.

class NewNode(NamedTuple):
    node: str
    labels: tuple[str, ...]


class NewEdge(NamedTuple):
    edge: str
    src: str
    tgt: str
    labels: tuple[str, ...]


class MoveProp(NamedTuple):
    source: str
    key: str
    target: str
    value: Atomic


class DelEdge(NamedTuple):
    edge: str


Op = Union[NewNode, NewEdge, MoveProp, DelEdge]

# Shared vocabulary.  Structural keys for nodes and edges are disjoint so a
# moved property can never collide with an unrelated one, and "nz"/"ez" are
# noise keys that no dependency ever mentions.
NODE_LABELS = ("A", "B", "C")
EDGE_LABELS = ("R", "S")
NOISE_NODE_LABELS = ("D", "E")
# Values that Python equality merges (1, 1.0 and True; 0.0 and -0.0) are
# distinct values of the file format, and the pools hold them side by side.
LHS_POOL = ("u", "v", "w", 1, 2, 1.0, True, 0.0, -0.0)
OUT_POOL = ("p1", "p2", "p3", 7, 8, 7.0, True)

Row = dict[Variable, Atomic]


def _vkey(var: Variable) -> tuple[str, str]:
    return (var.name, getattr(var, "key", ""))


# -- brute-force pattern matching -----------------------------------------

def _covers(required: Iterable[str], available: Iterable[str]) -> bool:
    return set(required) <= set(available)


def naive_matches(graph: Graph, pattern: Pattern) -> list[Row]:
    """Every assignment of the pattern's variables, by exhaustive search."""
    rows: list[Row] = []
    props = graph.props
    if isinstance(pattern, NodePattern):
        for nid, labels in graph.nodes.items():
            if _covers(pattern.labels, labels) and _covers(pattern.keys, props[nid]):
                row: Row = {ObjectVar(pattern.var): nid}
                for key in pattern.keys:
                    row[PropVar(pattern.var, key)] = props[nid][key]
                rows.append(row)
        return rows
    if isinstance(pattern, EdgeOnlyPattern):
        for eid, labels in graph.edges.items():
            if _covers(pattern.labels, labels) and _covers(pattern.keys, props[eid]):
                row = {ObjectVar(pattern.var): eid}
                for key in pattern.keys:
                    row[PropVar(pattern.var, key)] = props[eid][key]
                rows.append(row)
        return rows
    assert isinstance(pattern, NodeEdgePattern)
    for nid, node_labels in graph.nodes.items():
        if not (_covers(pattern.node_labels, node_labels)
                and _covers(pattern.node_keys, props[nid])):
            continue
        for eid, edge_labels in graph.edges.items():
            src, tgt = graph.ends[eid]
            anchor = src if pattern.direction is Direction.OUT else tgt
            if anchor != nid:
                continue
            if not (_covers(pattern.edge_labels, edge_labels)
                    and _covers(pattern.edge_keys, props[eid])):
                continue
            row = {ObjectVar(pattern.node_var): nid, ObjectVar(pattern.edge_var): eid}
            for key in pattern.node_keys:
                row[PropVar(pattern.node_var, key)] = props[nid][key]
            for key in pattern.edge_keys:
                row[PropVar(pattern.edge_var, key)] = props[eid][key]
            rows.append(row)
    return rows


def rows_as_maps(relation: Relation) -> list[Row]:
    """The relation's rows as maps from variable to value."""
    return [dict(zip(relation.variables, row)) for row in relation.rows]


def projection(rows: Iterable[Row], onto: Iterable[Variable]) -> set[frozenset]:
    """The distinct restrictions of ``rows`` to the variables ``onto``.

    Values are told apart by their JSON text, as the file format does, so a
    ``1``, a ``1.0`` and a ``True`` stay three values.  Raises ``KeyError``
    when a row lacks one of the variables.
    """
    onto = list(onto)
    return {frozenset((var, json.dumps(row[var])) for var in onto) for row in rows}


# -- pairwise functional-dependency check ---------------------------------

def fd_violations(rows: Iterable[Row], lhs: Iterable[Variable],
                  rhs: Iterable[Variable]) -> list[tuple[Row, Row]]:
    """In row order, each row that agrees with an earlier one on ``lhs`` but
    differs from the first such row on ``rhs``, paired with that first row.

    Values are compared by their JSON text, so 1, 1.0 and True differ.
    """
    lhs_order = sorted(lhs, key=_vkey)
    rhs_order = sorted(rhs, key=_vkey)
    seen: dict[tuple, tuple] = {}
    pairs: list[tuple[Row, Row]] = []
    for row in rows:
        left = tuple(json.dumps(row[v]) for v in lhs_order)
        right = tuple(json.dumps(row[v]) for v in rhs_order)
        if left in seen and seen[left][0] != right:
            pairs.append((seen[left][1], row))
        seen.setdefault(left, (right, row))
    return pairs


def fd_holds(rows: Iterable[Row], lhs: Iterable[Variable],
             rhs: Iterable[Variable]) -> bool:
    return not fd_violations(rows, lhs, rhs)


def oracle_satisfies(graph: Graph, dep: GoFd) -> bool:
    return fd_holds(naive_matches(graph, dep.scope), dep.lhs, dep.rhs)


def oracle_witnesses(graph: Graph, dep: GoFd, max_witnesses: int = 5) -> list[tuple[Row, Row]]:
    """The first ``max_witnesses`` of ``fd_violations`` over the matches
    sorted by their object ids, object variables in (name, key) order."""
    rows = naive_matches(graph, dep.scope)
    ids = sorted({var for row in rows for var in row if isinstance(var, ObjectVar)}, key=_vkey)
    rows.sort(key=lambda row: [row[var] for var in ids])
    return fd_violations(rows, dep.lhs, dep.rhs)[:max(max_witnesses, 0)]


# -- text, keys and attributes, recomputed on every call --------------------

def oracle_attrs(pattern: Pattern) -> frozenset[Variable]:
    if isinstance(pattern, NodeEdgePattern):
        families = [(pattern.node_var, pattern.node_keys), (pattern.edge_var, pattern.edge_keys)]
    else:
        families = [(pattern.var, pattern.keys)]
    out: set[Variable] = set()
    for name, keys in families:
        out.add(ObjectVar(name))
        out.update(PropVar(name, key) for key in keys)
    return frozenset(out)


def oracle_render_pattern(pattern: Pattern) -> str:
    def sets(labels: Iterable[str], keys: Iterable[str]) -> str:
        return "{" + ",".join(sorted(labels)) + "}:{" + ",".join(sorted(keys)) + "}"

    if isinstance(pattern, NodePattern):
        return f"({pattern.var}:{sets(pattern.labels, pattern.keys)})"
    if isinstance(pattern, EdgeOnlyPattern):
        shown = "" if pattern.var == ANON_EDGE_VAR else pattern.var
        return f"()-[{shown}:{sets(pattern.labels, pattern.keys)}]->()"
    shown = "" if pattern.edge_var == ANON_EDGE_VAR else pattern.edge_var
    node = f"({pattern.node_var}:{sets(pattern.node_labels, pattern.node_keys)})"
    edge = f"-[{shown}:{sets(pattern.edge_labels, pattern.edge_keys)}]->"
    return f"{node}{edge}()" if pattern.direction is Direction.OUT else f"(){edge}{node}"


def _canonical_names(pattern: Pattern) -> dict[str, str]:
    """Node variable to ``x``, edge variable to ``y``."""
    if isinstance(pattern, NodePattern):
        return {pattern.var: "x"}
    if isinstance(pattern, EdgeOnlyPattern):
        return {pattern.var: "y"}
    return {pattern.node_var: "x", pattern.edge_var: "y"}


def _canonical_pattern(pattern: Pattern) -> Pattern:
    if isinstance(pattern, NodePattern):
        return NodePattern("x", pattern.labels, pattern.keys)
    if isinstance(pattern, EdgeOnlyPattern):
        return EdgeOnlyPattern("y", pattern.labels, pattern.keys)
    return NodeEdgePattern("x", pattern.node_labels, pattern.node_keys, "y",
                           pattern.edge_labels, pattern.edge_keys, pattern.direction)


def oracle_scope_key(pattern: Pattern) -> str:
    return oracle_render_pattern(_canonical_pattern(pattern))


def _render_side(variables: Iterable[Variable], names: dict[str, str]) -> str:
    shown = {(names.get(var.name, var.name), getattr(var, "key", "")) for var in variables}
    return ",".join(f"{name}.{key}" if key else name for name, key in sorted(shown))


def oracle_render(dep: GoFd) -> str:
    return (f"{oracle_render_pattern(dep.scope)}::"
            f"{_render_side(dep.lhs, {})}=>{_render_side(dep.rhs, {})}")


def oracle_canonical(dep: GoFd) -> str:
    names = _canonical_names(dep.scope)
    return (f"{oracle_scope_key(dep.scope)}::"
            f"{_render_side(dep.lhs, names)}=>{_render_side(dep.rhs, names)}")


# -- graph file text ------------------------------------------------------

def oracle_dump_graph(graph: Graph) -> str:
    """The graph file text as ``json.dumps`` writes it with ``indent=2``."""
    return json.dumps(graph_to_dict(graph), indent=2, ensure_ascii=False,
                      allow_nan=False) + "\n"


def oracle_skolem_node_id(tag: str, labels: Iterable[str],
                          kv: Iterable[tuple[str, Atomic]]) -> str:
    """A Skolem node id from its definition: pairs sorted by key, each value
    as ``json.dumps`` text."""
    pairs = [f"{key}={json.dumps(value)}" for key, value in sorted(kv, key=lambda p: p[0])]
    return f"sk:{tag}|{','.join(sorted(labels))}|{','.join(pairs)}"


# -- tokenizer ---------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_MULTI = ("::", "]->", "<-[", "-[", "]-", "=>")
_SINGLES = "(){}:,."


def oracle_tokenize(text: str, line: int) -> list[tuple[str, str, int]]:
    """``(kind, text, column)`` of each token of one line, character by
    character: at each position every multi-character token is tried with
    ``str.startswith`` before the single characters and identifiers."""
    out: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "⇒":
            out.append(("=>", ch, i + 1))
            i += 1
            continue
        if ch == "∅":
            out.append(("empty", ch, i + 1))
            i += 1
            continue
        for multi in _MULTI:
            if text.startswith(multi, i):
                out.append((multi, multi, i + 1))
                i += len(multi)
                break
        else:
            if ch in _SINGLES:
                out.append((ch, ch, i + 1))
                i += 1
            else:
                match = _IDENT.match(text, i)
                if not match:
                    raise ParseError(f"unexpected character {ch!r}", line, i + 1)
                out.append(("ident", match.group(), i + 1))
                i = match.end()
    out.append(("end", "", len(text) + 1))
    return out


# -- planner -----------------------------------------------------------------

def oracle_instantiate(graph: Graph, dep: GoFd, rows) -> list[Op]:
    """The ops of one single-right-side part, planned on its own.

    ``rows`` are the scope's matches on ``graph`` as a ``Relation``.  Every
    match is swept for this part alone, and each op is kept the first time
    it is made.
    """
    kind = match_redundancy_pattern(dep)
    roles = variable_roles(dep.scope)
    column = {var: pos for pos, var in enumerate(rows.variables)}
    owner = {roles[var.name]: pos for var, pos in column.items()
             if isinstance(var, ObjectVar)}
    rhs = next(iter(dep.rhs))
    ops: list[Op] = []

    def add(op: Op) -> None:
        if op not in ops:
            ops.append(op)

    if kind is TransformationKind.BETWEEN_N_EP:
        for values in rows.rows:
            add(MoveProp(values[owner["edge"]], rhs.key, values[owner["node"]],
                         values[column[rhs]]))
        return ops

    lhs_role = roles[next(iter(dep.lhs)).name]
    lhs_vars = sorted(dep.lhs, key=lambda var: var.key)
    if isinstance(dep.scope, NodeEdgePattern):
        owner_labels = (dep.scope.node_labels if lhs_role == "node"
                        else dep.scope.edge_labels)
    else:
        owner_labels = dep.scope.labels
    val_label = skolem_label(owner_labels, [var.key for var in lhs_vars])
    prefix = reification_prefix(owner_labels)
    link_label = f"{prefix}_det" if lhs_role == "edge" else val_label
    names: dict[tuple[str, ...], str] = {}
    for values in rows.rows:
        lhs_values = [values[column[var]] for var in lhs_vars]
        name_key = tuple(json.dumps(value) for value in lhs_values)
        if name_key not in names:
            names[name_key] = oracle_skolem_node_id(
                "val", owner_labels, [(var.key, value) for var, value in zip(lhs_vars, lhs_values)])
            add(NewNode(names[name_key], (val_label,)))
        vid = names[name_key]
        obj = link = values[owner[lhs_role]]
        if lhs_role == "edge":
            src, tgt = graph.ends[obj]
            link = reifier_id(obj)
            add(NewNode(link, tuple(sorted(graph.edges[obj]))))
            add(NewEdge(created_edge_id(f"{prefix}_src", src, link),
                        src, link, (f"{prefix}_src",)))
            add(NewEdge(created_edge_id(f"{prefix}_tgt", link, tgt),
                        link, tgt, (f"{prefix}_tgt",)))
            add(DelEdge(obj))
        for var, value in zip(lhs_vars, lhs_values):
            add(MoveProp(obj, var.key, vid, value))
        if isinstance(rhs, PropVar):
            add(MoveProp(values[owner[roles[rhs.name]]], rhs.key, vid, values[column[rhs]]))
        add(NewEdge(created_edge_id(link_label, link, vid), link, vid, (link_label,)))
    return ops


def oracle_build_plans(graph: Graph, parts: Iterable[GoFd], rows):
    """``(dependency, ops)`` of each part that plans something, and the
    other parts: every part planned by ``oracle_instantiate``, then the
    properties of each deleted edge that no plan moves are moved to its
    reifier node, in the first plan that deletes the edge."""
    plans: list[tuple[GoFd, list[Op]]] = []
    leftovers: list[GoFd] = []
    for dep in parts:
        if match_redundancy_pattern(dep) is TransformationKind.NO_REDUNDANCY or not rows.rows:
            leftovers.append(dep)
        else:
            plans.append((dep, oracle_instantiate(graph, dep, rows)))
    claimed = {(op.source, op.key) for _, ops in plans for op in ops if isinstance(op, MoveProp)}
    migrated: set[str] = set()
    for _, ops in plans:
        for eid in sorted({op.edge for op in ops if isinstance(op, DelEdge)} - migrated):
            migrated.add(eid)
            props = graph.props[eid]
            ops.extend(MoveProp(eid, key, reifier_id(eid), props[key])
                       for key in sorted(props) if (eid, key) not in claimed)
    return plans, leftovers


def oracle_execute(graph: Graph, plans) -> Graph:
    """The plans run on a copy of ``graph`` one row of ``plan.rows`` at a
    time, as the library ran them before plans stored columns: every
    creation and move in row order, then every removal.  A value moves only
    onto a node and onto a key it lacks; two values moved to one slot
    conflict when their JSON texts differ; an equal row run again changes
    nothing."""
    out = graph.copy()
    nodes, edges, props = out.nodes, out.edges, out.props
    created_nodes: set[str] = set()
    created_edges: set[str] = set()
    assigned: dict[tuple[str, str], Atomic] = {}
    removals = []
    for row in [row for plan in plans for row in plan.rows]:
        tag = row[0]
        if tag == "move-prop":
            _, _, key, target, value = row
            if (target, key) in assigned:
                first = assigned[target, key]
                if json.dumps(first) != json.dumps(value):
                    raise InvariantError(f"conflicting values for {target}.{key}: "
                                         f"{first!r} vs {value!r}")
            else:
                if target not in nodes:
                    raise InvariantError(f"move target {target!r} is not a node")
                if key in props[target]:
                    raise InvariantError(f"transformation would overwrite {target}.{key}: "
                                         f"{props[target][key]!r} vs {value!r}")
                out.set_prop(target, key, value)
                assigned[target, key] = value
            removals.append(row)
        elif tag == "new-node":
            _, nid, labels = row
            if nid in created_nodes:
                nodes[nid] = nodes[nid] | set(labels)
            elif nid in props:
                raise InvariantError(f"generated node id {nid!r} already taken")
            else:
                out.add_node(labels, node_id=nid)
                created_nodes.add(nid)
        elif tag == "new-edge":
            _, eid, src, tgt, labels = row
            if eid in created_edges:
                edges[eid] = edges[eid] | set(labels)
            elif eid in props:
                raise InvariantError(f"generated edge id {eid!r} already taken")
            else:
                out.add_edge(src, tgt, labels, edge_id=eid)
                created_edges.add(eid)
        else:
            removals.append(row)
    for row in removals:
        if row[0] == "del-edge":
            if row[1] in edges:
                del edges[row[1]], out.ends[row[1]], props[row[1]]
        elif row[1] in props:
            props[row[1]].pop(row[2], None)
    return out


# -- closure oracle --------------------------------------------------------

def oracle_closure(seed: Iterable[Variable], deps: Iterable[GoFd],
                   limit: int = 14) -> frozenset[Variable]:
    """Smallest dependency-closed superset of ``seed``.

    Enumerates every subset of the variable universe, keeps the closed ones
    that contain the seed, and intersects them.  Exponential, but obviously
    correct straight from the definition.
    """
    seed_set = frozenset(seed)
    dep_list = list(deps)
    universe: set[Variable] = set(seed_set)
    for dep in dep_list:
        universe |= set(dep.lhs) | set(dep.rhs)
    members = sorted(universe, key=_vkey)
    if len(members) > limit:
        raise ValueError(f"universe too large for brute force: {len(members)}")
    best = frozenset(members)
    for bits in range(1 << len(members)):
        cand = frozenset(m for i, m in enumerate(members) if bits >> i & 1)
        if not seed_set <= cand:
            continue
        if any(dep.lhs <= cand and not dep.rhs <= cand for dep in dep_list):
            continue
        best &= cand
    return best


# -- schema reasoning on frozensets ---------------------------------------
#
# The enumerations below are the library's former frozenset implementations
# of candidate keys, per-scope normal forms and minimal covers, with every
# closure taken by ``oracle_closure``.  The library's bit-mask versions must
# agree with them exactly, order included.

def _sort_key(var: Variable) -> tuple[str, str]:
    # the library's variable order: an object variable before its properties
    return (var.name, "" if isinstance(var, ObjectVar) else var.key)


def _set_key(variables: Iterable[Variable]) -> tuple:
    return tuple(sorted(map(_sort_key, variables)))


def _scope_closure(seed: Iterable[Variable], deps: Iterable[GoFd],
                   scope: Pattern) -> frozenset[Variable]:
    return oracle_closure(seed, list(deps) + list(structurally_implied(scope)))


def oracle_implies(deps: Iterable[GoFd], dep: GoFd) -> bool:
    """Whether ``deps`` entail ``dep``: its right side lies in the closure of
    its left side under the dependencies that apply to its scope, restricted
    to it, and the scope's structural ones."""
    return dep.rhs <= _scope_closure(dep.lhs, applicable_deps(deps, dep.scope), dep.scope)


def oracle_candidate_keys(scope: Pattern,
                          deps: Iterable[GoFd]) -> tuple[frozenset[Variable], ...]:
    """Subset-minimal superkeys of the scope, by size, ordered by variables."""
    universe = sorted(attrs(scope), key=_sort_key)
    deps = list(deps)
    keys: list[frozenset[Variable]] = []
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            candidate = frozenset(combo)
            if any(key <= candidate for key in keys):
                continue
            if _scope_closure(candidate, deps, scope) == attrs(scope):
                keys.append(candidate)
    return tuple(sorted(keys, key=_set_key))


def oracle_check_scoped(form: NormalForm, scope: Pattern,
                        schema: Iterable[GoFd]) -> tuple[Violation, ...]:
    """Violations of the third or Boyce-Codd normal form on one scope, in order.

    Left sides are the unions of applicable left sides plus single
    variables, by size and then variables; right sides single variables.
    """
    deps = list(applicable_deps(schema, scope))
    universe = attrs(scope)
    prime: set[Variable] = set()
    if form is NormalForm.GN3NF:
        for key in oracle_candidate_keys(scope, deps):
            prime |= key
    unions: set[frozenset[Variable]] = set()
    for dep in deps:
        unions |= {dep.lhs} | {u | dep.lhs for u in unions}
    lefts = unions | {frozenset([v]) for v in universe}
    violations: list[Violation] = []
    for lhs in sorted(lefts, key=lambda s: (len(s), _set_key(s))):
        implied = _scope_closure(lhs, deps, scope)
        if implied == universe:
            continue
        for rhs in sorted(implied - lhs, key=_sort_key):
            if form is NormalForm.GN3NF and rhs in prime:
                continue
            reason = (ViolationReason.NOT_SUPERKEY if form is NormalForm.GNBCNF
                      else ViolationReason.NOT_PRIME)
            violations.append(Violation(render_pattern(scope),
                                        gofd(scope, lhs, [rhs]).render(), reason))
    return tuple(dict.fromkeys(violations))


def oracle_minimal_cover(deps: Iterable[GoFd]) -> tuple[GoFd, ...]:
    """Minimal cover of same-scope dependencies, in the library's order.

    Right sides are split, left sides reduced one variable at a time in
    variable order, members tested for redundancy in text order, and right
    sides recombined per left side.
    """
    pool = list(deps)
    if not pool:
        return ()
    scope = pool[0].scope
    pool = [restrict(dep, scope) for dep in pool]
    structural = list(structurally_implied(scope))
    split: list[GoFd] = []
    seen: set[str] = set()
    for dep in sorted(pool, key=lambda d: d.render()):
        for var in sorted(dep.rhs - dep.lhs, key=_sort_key):
            candidate = gofd(scope, dep.lhs, [var])
            if candidate.render() not in seen:
                seen.add(candidate.render())
                split.append(candidate)
    current = list(split)
    for i, dep in enumerate(current):
        lhs = set(dep.lhs)
        for var in sorted(dep.lhs, key=_sort_key):
            if len(lhs) == 1:
                break
            if dep.rhs <= oracle_closure(lhs - {var}, current + structural):
                lhs -= {var}
        current[i] = gofd(scope, lhs, dep.rhs)
    kept = list(dict.fromkeys(current))
    for dep in sorted(kept, key=lambda d: d.render()):
        rest = [d for d in kept if d is not dep]
        if dep.rhs <= oracle_closure(dep.lhs, rest + structural):
            kept = rest
    grouped: dict[tuple, set[Variable]] = {}
    for dep in kept:
        grouped.setdefault(tuple(sorted(dep.lhs, key=_sort_key)), set()).update(dep.rhs)
    combined = [gofd(scope, key, rhs) for key, rhs in grouped.items()]
    return tuple(sorted(combined, key=lambda d: d.render()))


# -- redundancy-potential oracle ------------------------------------------

def oracle_group_sizes(graph: Graph, dep: GoFd) -> list[int]:
    """Group sizes over the dependency's variables, the groups in the order
    of ``json.dumps`` of their values as a list, variables in (name, key)
    order."""
    order = sorted(set(dep.lhs) | set(dep.rhs), key=_vkey)
    counts: dict[str, int] = {}
    for row in naive_matches(graph, dep.scope):
        text = json.dumps([row[v] for v in order])
        counts[text] = counts.get(text, 0) + 1
    return [counts[text] for text in sorted(counts)]


def oracle_potentials(graph: Graph, dep: GoFd) -> list[int]:
    """Sorted multiset of group sizes over the dependency's variables."""
    return sorted(oracle_group_sizes(graph, dep))


# -- generic random graphs and patterns -----------------------------------

def _some(rng: random.Random, pool: tuple[str, ...], p: float = 0.4) -> set[str]:
    return {item for item in pool if rng.random() < p}


def random_graph(rng: random.Random, max_nodes: int = 10,
                 max_edges: int = 14, values: tuple[Atomic, ...] = LHS_POOL + OUT_POOL) -> Graph:
    """Unconstrained graph over the shared vocabulary, its property values
    drawn from ``values``."""
    graph = Graph()
    for _ in range(rng.randint(1, max_nodes)):
        labels = _some(rng, NODE_LABELS + ("Extra",))
        props = {k: rng.choice(values)
                 for k in ("na", "nb", "nz") if rng.random() < 0.45}
        graph.add_node(labels, props)
    ids = list(graph.nodes)
    for _ in range(rng.randint(0, max_edges)):
        labels = _some(rng, EDGE_LABELS + ("T",), p=0.5)
        props = {k: rng.choice(values)
                 for k in ("ea", "eb", "ez") if rng.random() < 0.45}
        graph.add_edge(rng.choice(ids), rng.choice(ids), labels, props)
    return graph


PATTERN_SHAPES = ("node", "edge", "node-edge")


def random_pattern(rng: random.Random, shape: str | None = None) -> Pattern:
    """A pattern over the shared vocabulary, of ``shape`` or of a random one."""
    shape = shape or rng.choice(PATTERN_SHAPES)
    if shape == "node":
        return node_pattern("x", _some(rng, NODE_LABELS + ("Extra",)),
                            _some(rng, ("na", "nb", "nz")))
    if shape == "edge":
        return edge_pattern("y", _some(rng, EDGE_LABELS + ("T",)),
                            _some(rng, ("ea", "eb", "ez")))
    return node_edge_pattern("x", _some(rng, NODE_LABELS + ("Extra",)),
                             _some(rng, ("na", "nb", "nz")),
                             "y", _some(rng, EDGE_LABELS + ("T",)),
                             _some(rng, ("ea", "eb", "ez")),
                             rng.choice((Direction.OUT, Direction.IN)))


def generalize(rng: random.Random, specific: Pattern) -> Pattern:
    """A pattern that dominates ``specific`` by construction (subset rule)."""
    def sub(items: frozenset[str]) -> set[str]:
        return {item for item in items if rng.random() < 0.6}

    if isinstance(specific, NodePattern):
        return node_pattern("g", sub(specific.labels), sub(specific.keys))
    if isinstance(specific, EdgeOnlyPattern):
        return edge_pattern("h", sub(specific.labels), sub(specific.keys))
    assert isinstance(specific, NodeEdgePattern)
    if rng.random() < 0.4:
        return node_pattern("g", sub(specific.node_labels), sub(specific.node_keys))
    return node_edge_pattern("g", sub(specific.node_labels), sub(specific.node_keys),
                             "h", sub(specific.edge_labels), sub(specific.edge_keys),
                             specific.direction)


def specialize(rng: random.Random, scope: Pattern) -> Pattern:
    """A pattern dominated by ``scope``, using labels/keys the generators emit."""
    def grown(items: frozenset[str], extras: tuple[str, ...]) -> set[str]:
        out = set(items)
        for extra in extras:
            if rng.random() < 0.5:
                out.add(extra)
        return out

    if isinstance(scope, NodePattern):
        labels = grown(scope.labels, NOISE_NODE_LABELS[:1])
        keys = grown(scope.keys, ("nz",))
        if rng.random() < 0.35:
            return node_edge_pattern(scope.var, labels, keys, "h",
                                     _some(rng, EDGE_LABELS, p=0.5), set(),
                                     rng.choice((Direction.OUT, Direction.IN)))
        return node_pattern(scope.var, labels, keys)
    if isinstance(scope, EdgeOnlyPattern):
        return edge_pattern(scope.var, set(scope.labels),
                            grown(scope.keys, ("ez",)))
    assert isinstance(scope, NodeEdgePattern)
    return node_edge_pattern(scope.node_var,
                             grown(scope.node_labels, NOISE_NODE_LABELS[:1]),
                             grown(scope.node_keys, ("nz",)),
                             scope.edge_var, set(scope.edge_labels),
                             grown(scope.edge_keys, ("ez",)),
                             scope.direction)


# -- graphs satisfying a dependency by construction -----------------------

CASE_KINDS = ("wn", "we", "bnep", "bnpep", "bepnp", "bepn")


def _noise_nodes(rng: random.Random, graph: Graph) -> None:
    for _ in range(rng.randint(0, 4)):
        graph.add_node({rng.choice(NOISE_NODE_LABELS)},
                       {"nz": rng.choice(OUT_POOL)} if rng.random() < 0.5 else {})


def _spread_edges(rng: random.Random, graph: Graph, label_pool: tuple[str, ...],
                  count: int) -> None:
    ids = list(graph.nodes)
    if not ids:
        return
    for _ in range(count):
        graph.add_edge(rng.choice(ids), rng.choice(ids),
                       {rng.choice(label_pool)},
                       {"ez": rng.choice(OUT_POOL)} if rng.random() < 0.5 else {})


def random_satisfying_case(rng: random.Random,
                           kind: str | None = None) -> tuple[Graph, GoFd]:
    """A graph plus one strict dependency the graph satisfies by construction."""
    kind = kind or rng.choice(CASE_KINDS)
    graph = Graph()
    table = {json.dumps(v): rng.choice(OUT_POOL) for v in LHS_POOL}

    if kind == "wn":
        labels = {rng.choice(NODE_LABELS)}
        if rng.random() < 0.3:
            labels.add("Extra")
        scope = node_pattern("x", labels, ("na", "nb"))
        dep = gofd(scope, [PropVar("x", "na")], [PropVar("x", "nb")])
        for _ in range(rng.randint(2, 25)):
            value = rng.choice(LHS_POOL)
            props: dict[str, Atomic] = {"na": value, "nb": table[json.dumps(value)]}
            if rng.random() < 0.4:
                props["nz"] = rng.choice(OUT_POOL)
            labs = set(labels)
            if rng.random() < 0.3:
                labs.add(rng.choice(NOISE_NODE_LABELS))
            graph.add_node(labs, props)
        for _ in range(rng.randint(0, 3)):  # has the labels but misses a key
            graph.add_node(set(labels), {"na": rng.choice(LHS_POOL)})
        _noise_nodes(rng, graph)
        _spread_edges(rng, graph, EDGE_LABELS, rng.randint(0, 6))
        return graph, dep

    if kind == "we":
        elabel = rng.choice(EDGE_LABELS)
        scope = edge_pattern("y", {elabel}, ("ea", "eb"))
        dep = gofd(scope, [PropVar("y", "ea")], [PropVar("y", "eb")])
        for _ in range(rng.randint(3, 8)):
            graph.add_node(_some(rng, NODE_LABELS),
                           {"na": rng.choice(LHS_POOL)} if rng.random() < 0.4 else {})
        ids = list(graph.nodes)
        for _ in range(rng.randint(2, 25)):
            value = rng.choice(LHS_POOL)
            props = {"ea": value, "eb": table[json.dumps(value)]}
            if rng.random() < 0.4:
                props["ez"] = rng.choice(OUT_POOL)
            graph.add_edge(rng.choice(ids), rng.choice(ids), {elabel}, props)
        other = EDGE_LABELS[1] if elabel == EDGE_LABELS[0] else EDGE_LABELS[0]
        for _ in range(rng.randint(0, 4)):  # different label: free to disagree
            graph.add_edge(rng.choice(ids), rng.choice(ids), {other},
                           {"ea": rng.choice(LHS_POOL), "eb": rng.choice(OUT_POOL)})
        for _ in range(rng.randint(0, 3)):  # right label but missing "eb"
            graph.add_edge(rng.choice(ids), rng.choice(ids), {elabel},
                           {"ea": rng.choice(LHS_POOL)})
        return graph, dep

    # The remaining four kinds share a node-edge scope built around anchors.
    nlabel = rng.choice(NODE_LABELS)
    elabel = rng.choice(EDGE_LABELS)
    direction = rng.choice((Direction.OUT, Direction.IN))
    anchors: list[str] = []
    for _ in range(rng.randint(2, 8)):
        labs = {nlabel}
        if rng.random() < 0.3:
            labs.add(rng.choice(NOISE_NODE_LABELS))
        anchors.append(graph.add_node(labs, {}))
    for _ in range(rng.randint(2, 5)):
        graph.add_node(_some(rng, NOISE_NODE_LABELS, p=0.6), {})
    everyone = list(graph.nodes)

    def attach(anchor: str, props: dict[str, Atomic]) -> None:
        if rng.random() < 0.5:
            props = dict(props)
            props["ez"] = rng.choice(OUT_POOL)
        if direction is Direction.OUT:
            graph.add_edge(anchor, rng.choice(everyone), {elabel}, props)
        else:
            graph.add_edge(rng.choice(everyone), anchor, {elabel}, props)

    def fanout(position: int) -> int:
        # The first anchor always gets an edge, so every case has a match.
        return rng.randint(1 if position == 0 else 0, 4)

    def spread(anchor: str, position: int, props: dict[str, Atomic]) -> None:
        count = fanout(position)
        for _ in range(count):
            attach(anchor, props)
        if count == 0 and rng.random() < 0.5:
            # right label but missing "eb", at an anchor the scope does not
            # match: moving "eb" off its matched edges stays recoverable
            attach(anchor, {})

    if kind == "bnep":
        with_nkey = rng.random() < 0.4
        scope = node_edge_pattern("x", {nlabel}, ("na",) if with_nkey else (),
                                  "y", {elabel}, ("eb",), direction)
        dep = gofd(scope, [ObjectVar("x")], [PropVar("y", "eb")])
        for pos, anchor in enumerate(anchors):
            if with_nkey:
                graph.set_prop(anchor, "na", rng.choice(LHS_POOL))
            elif rng.random() < 0.4:
                graph.set_prop(anchor, "nz", rng.choice(OUT_POOL))
            value = rng.choice(OUT_POOL)
            spread(anchor, pos, {"eb": value})
    elif kind == "bnpep":
        scope = node_edge_pattern("x", {nlabel}, ("na",),
                                  "y", {elabel}, ("eb",), direction)
        dep = gofd(scope, [PropVar("x", "na")], [PropVar("y", "eb")])
        for pos, anchor in enumerate(anchors):
            value = rng.choice(LHS_POOL)
            graph.set_prop(anchor, "na", value)
            spread(anchor, pos, {"eb": table[json.dumps(value)]})
    elif kind == "bepnp":
        scope = node_edge_pattern("x", {nlabel}, ("nb",),
                                  "y", {elabel}, ("ea",), direction)
        dep = gofd(scope, [PropVar("y", "ea")], [PropVar("x", "nb")])
        for pos, anchor in enumerate(anchors):
            value = rng.choice(LHS_POOL)
            graph.set_prop(anchor, "nb", table[json.dumps(value)])
            for _ in range(fanout(pos)):
                attach(anchor, {"ea": value})
    else:  # bepn
        scope = node_edge_pattern("x", {nlabel}, (),
                                  "y", {elabel}, ("ea",), direction)
        dep = gofd(scope, [PropVar("y", "ea")], [ObjectVar("x")])
        owner = {json.dumps(value): rng.choice(anchors) for value in LHS_POOL}
        for anchor in anchors:
            if rng.random() < 0.4:
                graph.set_prop(anchor, "nz", rng.choice(OUT_POOL))
        for _ in range(rng.randint(2, 12)):
            value = rng.choice(LHS_POOL)
            anchor = owner[json.dumps(value)]
            props = {"ea": value}
            if rng.random() < 0.5:
                props["ez"] = rng.choice(OUT_POOL)
            if direction is Direction.OUT:
                graph.add_edge(anchor, rng.choice(everyone), {elabel}, props)
            else:
                graph.add_edge(rng.choice(everyone), anchor, {elabel}, props)

    # Edges of a different label never join the scope, so they may disagree.
    other = EDGE_LABELS[1] if elabel == EDGE_LABELS[0] else EDGE_LABELS[0]
    _spread_edges(rng, graph, (other,), rng.randint(0, 4))
    return graph, dep


# -- a slot emptied, written again and emptied once more ------------------

MULTI_PASS_DEPS = (
    gofd(node_pattern("x", {"A1"}, {"c", "w"}), [PropVar("x", "c")], [PropVar("x", "w")]),
    gofd(node_edge_pattern("x", {"A"}, (), "y", {"R"}, {"w"}, Direction.OUT),
         [ObjectVar("x")], [PropVar("y", "w")]),
    gofd(node_pattern("x", {"B"}, {"d", "w"}), [PropVar("x", "d")], [PropVar("x", "w")]),
)


def random_multi_pass_case(rng: random.Random) -> Graph:
    """A graph that ``MULTI_PASS_DEPS`` normalize in three passes, in this
    order: an A1 node's ``w`` moves off, an A node's ``R`` edges write
    their ``w`` onto it, and a B node's ``w`` moves off.

    Each node has a random subset of the labels A1, A and B.  ``c`` is
    derived from the node's own ``w``, and ``d`` from its own ``w`` and the
    ``w`` its edges write, so both node dependencies hold when their passes
    run, and in the input.  All ``R`` edges of one source carry one ``w``.
    Every A node with a ``w`` is an A1 node, so the first pass empties the
    slot before the edge pass writes it.
    """
    graph = Graph()
    for _ in range(rng.randint(1, 8)):
        labels = _some(rng, ("A1", "A", "B"), p=0.6)
        own = rng.choice(LHS_POOL) if rng.random() < 0.7 else None
        if own is not None and "A" in labels:
            labels.add("A1")
        graph.add_node(labels, {} if own is None else {"w": own, "c": f"c{json.dumps(own)}"})
    ids = list(graph.nodes)
    for nid in ids:
        degree = rng.randint(0, 2)
        written = rng.choice(LHS_POOL)
        for _ in range(degree):
            graph.add_edge(nid, rng.choice(ids), {"R"}, {"w": written})
        props = graph.props[nid]
        texts = [json.dumps(props["w"])] if "w" in props else []
        if degree and "A" in graph.nodes[nid]:
            texts.append(json.dumps(written))
        if texts:
            props["d"] = "d" + "/".join(texts)
    for _ in range(rng.randint(0, 3)):  # another label: free to disagree
        graph.add_edge(rng.choice(ids), rng.choice(ids), {"S"}, {"w": rng.choice(LHS_POOL)})
    return graph
