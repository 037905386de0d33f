"""Redundancy-removing graph transformations.

A dependency whose descriptor fits one of six shapes marks value redundancy
that can be removed by restructuring the graph: repeated property
combinations are pulled out into shared value nodes, and edges whose
properties move away are reified into nodes so nothing is lost.  Each
transformation is planned as a list of primitive operations computed against
the untouched input graph; plans are then executed together, all creations
before all removals, so transformations sharing objects cannot read each
other's partial writes.

Skolem naming makes the output deterministic and invertible: value nodes are
named by the defining left-side values, reifier nodes by the edge they
replace.  Inverting those names is what lets ``verify_lossless`` rebuild the
original matches from the transformed graph.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Union

from .errors import InvariantError, NonStrict, NothingToDo, UnsatisfiedDependency
from .gofd import GoFd, check_bound, gofd, satisfies, scope_matches
from .graph import Atomic, Graph
from .pattern import (
    Direction,
    EdgeOnlyPattern,
    NodeEdgePattern,
    NodePattern,
    ObjectVar,
    Pattern,
    PropVar,
    Relation,
    Variable,
    evaluate,
    node_pattern,
    var_sort_key,
    variable_roles,
)


class TransformationKind(Enum):
    WITHIN_N = "within-n"
    WITHIN_E = "within-e"
    BETWEEN_N_EP = "between-n-ep"
    BETWEEN_NP_EP = "between-np-ep"
    BETWEEN_EP_NP = "between-ep-np"
    BETWEEN_EP_N = "between-ep-n"
    NO_REDUNDANCY = "no-redundancy"


# -- descriptor shape -----------------------------------------------------

def _side_shape(side: frozenset[Variable], roles: dict[str, str]) -> tuple[str, str]:
    """(role, form) of one descriptor side; role node/edge, form id/prop."""
    families = {var.name for var in side}
    if not families:
        raise NonStrict("descriptor side is empty")
    if len(families) > 1:
        named = ", ".join(sorted(families))
        raise NonStrict(f"descriptor side mixes object variables: {named}")
    form = "id" if any(isinstance(var, ObjectVar) for var in side) else "prop"
    return roles[families.pop()], form


_SHAPE_TABLE = {
    (("node", "prop"), ("node", "prop")): TransformationKind.WITHIN_N,
    (("edge", "prop"), ("edge", "prop")): TransformationKind.WITHIN_E,
    (("node", "id"), ("edge", "prop")): TransformationKind.BETWEEN_N_EP,
    (("node", "prop"), ("edge", "prop")): TransformationKind.BETWEEN_NP_EP,
    (("edge", "prop"), ("node", "prop")): TransformationKind.BETWEEN_EP_NP,
    (("edge", "prop"), ("node", "id")): TransformationKind.BETWEEN_EP_N,
}


def match_redundancy_pattern(dep: GoFd) -> TransformationKind:
    """Which of the six removable redundancy shapes the dependency has, if any.

    Trivial dependencies, key dependencies (properties determining the own
    object id), structural shapes, and cardinality statements carry no value
    redundancy and map to ``NO_REDUNDANCY``.
    """
    check_bound(dep)
    if dep.is_trivial():
        return TransformationKind.NO_REDUNDANCY
    roles = variable_roles(dep.scope)
    shape = (_side_shape(dep.lhs, roles), _side_shape(dep.rhs, roles))
    return _SHAPE_TABLE.get(shape, TransformationKind.NO_REDUNDANCY)


# -- deterministic names --------------------------------------------------

VAL_ID_PREFIX = "sk:val|"
REIF_ID_PREFIX = "sk:reif||edge="
EDGE_ID_PREFIX = "ske:"


def skolem_string(tag: str, labels: Iterable[str], kv: Iterable[tuple[str, Atomic]]) -> str:
    pairs = ",".join(f"{k}={json.dumps(v)}" for k, v in sorted(kv, key=lambda p: p[0]))
    return f"{tag}|{','.join(sorted(labels))}|{pairs}"


def skolem_node_id(tag: str, labels: Iterable[str], kv: Iterable[tuple[str, Atomic]]) -> str:
    return "sk:" + skolem_string(tag, labels, kv)


def skolem_label(labels: Iterable[str], keys: Iterable[str]) -> str:
    parts = sorted(labels) + sorted(keys)
    return "Sk_" + "".join(p[:1].upper() + p[1:] for p in parts)


def reifier_id(edge_id: str) -> str:
    return skolem_node_id("reif", (), [("edge", edge_id)])


def reified_edge_id(node_id: str) -> str | None:
    """The original edge id encoded in a reifier node id, or None."""
    if not node_id.startswith(REIF_ID_PREFIX):
        return None
    try:
        decoded = json.loads(node_id[len(REIF_ID_PREFIX):])
    except ValueError:
        return None
    return decoded if isinstance(decoded, str) else None


def reification_prefix(edge_labels: Iterable[str]) -> str:
    return "_".join(sorted(edge_labels)) or "edge"


def created_edge_id(label: str, src: str, tgt: str) -> str:
    return f"{EDGE_ID_PREFIX}{label}|{src}|{tgt}"


# -- primitive operations -------------------------------------------------

@dataclass(frozen=True)
class NewNode:
    node: str
    labels: tuple[str, ...]
    props: tuple[tuple[str, Atomic], ...] = ()


@dataclass(frozen=True)
class NewEdge:
    edge: str
    src: str
    tgt: str
    labels: tuple[str, ...]


@dataclass(frozen=True)
class MoveProp:
    source: str
    key: str
    target: str
    value: Atomic


@dataclass(frozen=True)
class DelEdge:
    edge: str


Op = Union[NewNode, NewEdge, MoveProp, DelEdge]


def op_to_dict(op: Op) -> dict:
    if isinstance(op, NewNode):
        return {"op": "new-node", "id": op.node, "labels": list(op.labels),
                "props": dict(op.props)}
    if isinstance(op, NewEdge):
        return {"op": "new-edge", "id": op.edge, "src": op.src, "tgt": op.tgt,
                "labels": list(op.labels)}
    if isinstance(op, MoveProp):
        return {"op": "move-prop", "from": op.source, "key": op.key,
                "to": op.target, "value": op.value}
    return {"op": "del-edge", "id": op.edge}


@dataclass
class Transformation:
    """One planned transformation: the dependency, its shape, and the ops."""

    dependency: GoFd
    kind: TransformationKind
    match_count: int
    ops: list[Op] = field(default_factory=list)
    key_dependency: GoFd | None = None
    val_label: str | None = None

    @property
    def deleted_edges(self) -> frozenset[str]:
        return frozenset(op.edge for op in self.ops if isinstance(op, DelEdge))

    @property
    def claimed(self) -> dict[str, frozenset[str]]:
        """Keys moved off each source object by this plan."""
        out: dict[str, set[str]] = {}
        for op in self.ops:
            if isinstance(op, MoveProp):
                out.setdefault(op.source, set()).add(op.key)
        return {obj: frozenset(keys) for obj, keys in out.items()}

    def to_dict(self) -> dict:
        doc = {
            "dependency": self.dependency.render(),
            "kind": self.kind.value,
            "matches": self.match_count,
            "ops": [op_to_dict(op) for op in self.ops],
        }
        if self.key_dependency is not None:
            doc["keyDependency"] = self.key_dependency.render()
        return doc


# -- plan construction ----------------------------------------------------

def _family_parts(scope: Pattern, role: str) -> tuple[frozenset[str], frozenset[str]]:
    """Label and key sets of the scope component with the given role."""
    if not isinstance(scope, NodeEdgePattern):
        return scope.labels, scope.keys
    if role == "node":
        return scope.node_labels, scope.node_keys
    return scope.edge_labels, scope.edge_keys


def _lhs_pairs(dep: GoFd, row: dict[Variable, Atomic]) -> list[tuple[str, Atomic]]:
    return sorted(((var.key, row[var]) for var in dep.lhs if isinstance(var, PropVar)),
                  key=lambda p: p[0])


class _PlanBuilder:
    """Accumulates ops for one transformation, deduplicating repeats."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self._seen: set[Op] = set()

    def add(self, op: Op) -> None:
        if op not in self._seen:
            self._seen.add(op)
            self.ops.append(op)

    def reify(self, graph: Graph, eid: str, prefix: str) -> str:
        """Replace an edge by a node wired to both endpoints; returns its id."""
        record = graph.edges[eid]
        rid = reifier_id(eid)
        self.add(NewNode(rid, tuple(sorted(record.labels))))
        self.add(NewEdge(created_edge_id(f"{prefix}_src", record.src, rid),
                         record.src, rid, (f"{prefix}_src",)))
        self.add(NewEdge(created_edge_id(f"{prefix}_tgt", rid, record.tgt),
                         rid, record.tgt, (f"{prefix}_tgt",)))
        self.add(DelEdge(eid))
        return rid


def _key_dependency(val_label: str, lhs_keys: Iterable[str],
                    scope_keys: Iterable[str]) -> GoFd:
    scope = node_pattern("x", [val_label], sorted(set(scope_keys)))
    return gofd(scope, [PropVar("x", k) for k in sorted(set(lhs_keys))],
                [ObjectVar("x")])


def instantiate(graph: Graph, dep: GoFd, *, matches: Relation | None = None) -> Transformation:
    """Plan the transformation for one dependency on one graph.

    The dependency must have a single right-side variable; recombined
    dependencies are split by the caller and their plans merge naturally
    because value nodes are named by left-side values alone.  Raises
    ``NothingToDo`` when the descriptor shape carries no redundancy or when
    the scope matches nothing.  ``matches`` may pass the scope's already
    evaluated matches on ``graph``.
    """
    if len(dep.rhs) != 1:
        raise ValueError("one right-side variable per transformation; split the dependency")
    kind = match_redundancy_pattern(dep)
    if kind is TransformationKind.NO_REDUNDANCY:
        raise NothingToDo(f"no redundancy shape in {dep.render()}")
    relation = scope_matches(graph, dep, matches)
    if not relation.rows:
        raise NothingToDo(f"scope of {dep.render()} matches nothing")

    roles = variable_roles(dep.scope)
    node_var = next((n for n, r in roles.items() if r == "node"), None)
    edge_var = next((n for n, r in roles.items() if r == "edge"), None)
    rhs = next(iter(dep.rhs))
    lhs_role = roles[next(iter(dep.lhs)).name]
    lhs_keys = sorted(var.key for var in dep.lhs if isinstance(var, PropVar))
    owner_labels, _ = _family_parts(dep.scope, lhs_role)
    edge_prefix = None
    if edge_var is not None:
        edge_prefix = reification_prefix(_family_parts(dep.scope, "edge")[0])

    val_label: str | None = None
    key_dep: GoFd | None = None
    if kind is not TransformationKind.BETWEEN_N_EP:
        val_label = skolem_label(owner_labels, lhs_keys)
        val_keys = list(lhs_keys)
        if isinstance(rhs, PropVar):
            val_keys.append(rhs.key)
        key_dep = _key_dependency(val_label, lhs_keys, val_keys)

    plan = _PlanBuilder()
    for values in relation.ordered:
        row = dict(zip(relation.variables, values))
        nid = row[ObjectVar(node_var)] if node_var is not None else None
        eid = row[ObjectVar(edge_var)] if edge_var is not None else None
        pairs = _lhs_pairs(dep, row)
        vid = None
        if val_label is not None:
            vid = skolem_node_id("val", owner_labels, pairs)
            plan.add(NewNode(vid, (val_label,)))

        if kind is TransformationKind.WITHIN_N:
            for key, value in pairs + [(rhs.key, row[rhs])]:
                plan.add(MoveProp(nid, key, vid, value))
            plan.add(NewEdge(created_edge_id(val_label, nid, vid),
                             nid, vid, (val_label,)))
        elif kind is TransformationKind.WITHIN_E:
            rid = plan.reify(graph, eid, edge_prefix)
            for key, value in pairs + [(rhs.key, row[rhs])]:
                plan.add(MoveProp(eid, key, vid, value))
            plan.add(NewEdge(created_edge_id(f"{edge_prefix}_det", rid, vid),
                             rid, vid, (f"{edge_prefix}_det",)))
        elif kind is TransformationKind.BETWEEN_N_EP:
            plan.add(MoveProp(eid, rhs.key, nid, row[rhs]))
        elif kind is TransformationKind.BETWEEN_NP_EP:
            for key, value in pairs:
                plan.add(MoveProp(nid, key, vid, value))
            plan.add(MoveProp(eid, rhs.key, vid, row[rhs]))
            plan.add(NewEdge(created_edge_id(val_label, nid, vid),
                             nid, vid, (val_label,)))
        elif kind is TransformationKind.BETWEEN_EP_NP:
            rid = plan.reify(graph, eid, edge_prefix)
            for key, value in pairs:
                plan.add(MoveProp(eid, key, vid, value))
            plan.add(MoveProp(nid, rhs.key, vid, row[rhs]))
            plan.add(NewEdge(created_edge_id(f"{edge_prefix}_det", rid, vid),
                             rid, vid, (f"{edge_prefix}_det",)))
        else:  # BETWEEN_EP_N
            rid = plan.reify(graph, eid, edge_prefix)
            for key, value in pairs:
                plan.add(MoveProp(eid, key, vid, value))
            plan.add(NewEdge(created_edge_id(f"{edge_prefix}_det", rid, vid),
                             rid, vid, (f"{edge_prefix}_det",)))

    return Transformation(dep, kind, len(relation.rows), plan.ops, key_dep, val_label)


def build_plans(graph: Graph, deps: Iterable[GoFd], *, matches: Relation | None = None
                ) -> tuple[list[Transformation], list[tuple[GoFd, TransformationKind]]]:
    """Plan every transformable dependency and coordinate shared edges.

    Returns the plans plus the dependencies that produced none, each with the
    shape it matched.  Coordination: when an edge is deleted, its properties
    that no plan moved anywhere migrate to the reifier node, so the edge's
    incidental data survives.  Migration ops are attached to the first plan
    that deletes the edge.  ``matches`` may pass the already evaluated
    matches of the one scope all ``deps`` share.
    """
    plans: list[Transformation] = []
    leftovers: list[tuple[GoFd, TransformationKind]] = []
    for dep in deps:
        kind = match_redundancy_pattern(dep)
        if kind is TransformationKind.NO_REDUNDANCY:
            leftovers.append((dep, kind))
            continue
        try:
            plans.append(instantiate(graph, dep, matches=matches))
        except NothingToDo:
            leftovers.append((dep, kind))

    claimed: dict[str, set[str]] = {}
    for plan in plans:
        for obj, keys in plan.claimed.items():
            claimed.setdefault(obj, set()).update(keys)
    migrated: set[str] = set()
    for plan in plans:
        for eid in sorted(plan.deleted_edges):
            if eid in migrated:
                continue
            migrated.add(eid)
            rid = reifier_id(eid)
            record = graph.edges[eid]
            for key in sorted(set(record.props) - claimed.get(eid, set())):
                plan.ops.append(MoveProp(eid, key, rid, record.props[key]))
    return plans, leftovers


# -- execution ------------------------------------------------------------

class _Executor:
    def __init__(self, graph: Graph) -> None:
        self.out = graph.copy()
        self.created_nodes: set[str] = set()
        self.created_edges: set[str] = set()
        self.assigned: dict[tuple[str, str], Atomic] = {}

    def assign(self, obj: str, key: str, value: Atomic) -> None:
        slot = (obj, key)
        if slot in self.assigned:
            if self.assigned[slot] != value:
                raise InvariantError(
                    f"conflicting values for {obj}.{key}: "
                    f"{self.assigned[slot]!r} vs {value!r}")
            return
        current = self.out.props(obj)
        if key in current and current[key] != value:
            raise InvariantError(
                f"transformation would overwrite {obj}.{key}: "
                f"{current[key]!r} vs {value!r}")
        self.out.set_prop(obj, key, value)
        self.assigned[slot] = value

    def create(self, op: Op) -> None:
        if isinstance(op, NewNode):
            if op.node in self.created_nodes:
                self.out.nodes[op.node].labels.update(op.labels)
            elif op.node in self.out.nodes or op.node in self.out.edges:
                raise InvariantError(f"generated node id {op.node!r} already taken")
            else:
                self.out.add_node(op.labels, node_id=op.node)
                self.created_nodes.add(op.node)
            for key, value in op.props:
                self.assign(op.node, key, value)
        elif isinstance(op, NewEdge):
            if op.edge in self.created_edges:
                self.out.edges[op.edge].labels.update(op.labels)
            elif op.edge in self.out.nodes or op.edge in self.out.edges:
                raise InvariantError(f"generated edge id {op.edge!r} already taken")
            else:
                self.out.add_edge(op.src, op.tgt, op.labels, edge_id=op.edge)
                self.created_edges.add(op.edge)
        elif isinstance(op, MoveProp):
            self.assign(op.target, op.key, op.value)

    def remove(self, op: Op) -> None:
        if isinstance(op, MoveProp):
            if self.out.is_node(op.source) or self.out.is_edge(op.source):
                self.out.remove_prop(op.source, op.key)
        elif isinstance(op, DelEdge):
            if op.edge in self.out.edges:
                self.out.remove_object(op.edge)


def execute_plans(graph: Graph, plans: Iterable[Transformation]) -> Graph:
    """Run plans against the graph, all creations first, then all removals."""
    plans = list(plans)
    executor = _Executor(graph)
    for plan in plans:
        for op in plan.ops:
            executor.create(op)
    for plan in plans:
        for op in plan.ops:
            executor.remove(op)
    return executor.out


def apply_all(graph: Graph, deps: Iterable[GoFd],
              max_witnesses: int = 5) -> tuple[Graph, list[Transformation]]:
    """Validate, plan, and execute the transformations for all dependencies.

    Every dependency must hold on the graph; a violated one raises
    ``UnsatisfiedDependency`` before anything is changed.  Dependencies with
    several right-side variables are split into one plan per variable.
    """
    parts: list[GoFd] = []
    for dep in deps:
        sat = satisfies(graph, dep, max_witnesses=max_witnesses)
        if not sat.holds:
            raise UnsatisfiedDependency(dep.render(), sat.witnesses, sat.variables)
        for var in sorted(dep.rhs - dep.lhs, key=var_sort_key):
            parts.append(gofd(dep.scope, dep.lhs, [var]))
    plans, _ = build_plans(graph, parts)
    return execute_plans(graph, plans), plans


# -- lossless check -------------------------------------------------------

def _det_val_props(graph: Graph, rid: str) -> dict[str, Atomic]:
    """Union of properties on value nodes attached to a reifier node."""
    out: dict[str, Atomic] = {}
    for record in graph.edges.values():
        if record.src == rid and record.tgt.startswith(VAL_ID_PREFIX):
            out.update(graph.nodes[record.tgt].props)
    return out


def _node_val_props(graph: Graph, nid: str) -> dict[str, Atomic]:
    """Union of properties on value nodes linked from an ordinary node."""
    out: dict[str, Atomic] = {}
    for eid, record in graph.edges.items():
        if (record.src == nid and eid.startswith(EDGE_ID_PREFIX)
                and record.tgt.startswith(VAL_ID_PREFIX)):
            out.update(graph.nodes[record.tgt].props)
    return out


@dataclass(frozen=True)
class _VirtualEdge:
    """An edge of the transformed graph, real or recovered from a reifier."""

    eid: str
    src: str | None
    tgt: str | None
    labels: frozenset[str]
    props: dict[str, Atomic]
    virtual: bool = False


def _edge_universe(after: Graph) -> list[_VirtualEdge]:
    out = [_VirtualEdge(eid, rec.src, rec.tgt, frozenset(rec.labels), dict(rec.props))
           for eid, rec in after.edges.items()]
    for nid, record in after.nodes.items():
        original = reified_edge_id(nid)
        if original is None:
            continue
        src = tgt = None
        for erec in after.edges.values():
            if erec.tgt == nid and any(l.endswith("_src") for l in erec.labels):
                src = erec.src
            if erec.src == nid and any(l.endswith("_tgt") for l in erec.labels):
                tgt = erec.tgt
        props = dict(record.props)
        props.update(_det_val_props(after, nid))
        out.append(_VirtualEdge(original, src, tgt, frozenset(record.labels), props, True))
    return out


def _lookup(key: str, *sources: dict[str, Atomic]) -> tuple[bool, Atomic | None]:
    for source in sources:
        if key in source:
            return True, source[key]
    return False, None


def verify_lossless(before: Graph, after: Graph, plan: Transformation,
                    siblings: Iterable[Transformation] = ()) -> bool:
    """Check that the plan's scope matches can be rebuilt from the output.

    Follows the created edges backwards: value nodes supply moved properties,
    reifier nodes stand in for deleted edges, and properties a sibling plan
    moved onto a node are read from there.  The rebuilt relation must equal
    the scope's matches on the input graph exactly.
    """
    scope = plan.dependency.scope
    reference = evaluate(scope, before)
    onto_node: set[str] = set()
    for other in list(siblings) + [plan]:
        if other.kind is TransformationKind.BETWEEN_N_EP:
            rhs = next(iter(other.dependency.rhs))
            if isinstance(rhs, PropVar):
                onto_node.add(rhs.key)

    rebuilt: set[tuple[Atomic, ...]] = set()
    variables = reference.variables

    def emit(binding: dict[Variable, Atomic]) -> None:
        rebuilt.add(tuple(binding[v] for v in variables))

    if isinstance(scope, NodePattern):
        for nid, record in after.nodes.items():
            if nid.startswith("sk:") or not scope.labels <= frozenset(record.labels):
                continue
            pool = [dict(record.props), _node_val_props(after, nid)]
            binding: dict[Variable, Atomic] = {ObjectVar(scope.var): nid}
            ok = True
            for key in scope.keys:
                found, value = _lookup(key, *pool)
                if not found:
                    ok = False
                    break
                binding[PropVar(scope.var, key)] = value
            if ok:
                emit(binding)
    elif isinstance(scope, EdgeOnlyPattern):
        for edge in _edge_universe(after):
            if not scope.labels <= edge.labels:
                continue
            binding = {ObjectVar(scope.var): edge.eid}
            ok = True
            for key in scope.keys:
                found, value = _lookup(key, edge.props)
                if not found:
                    ok = False
                    break
                binding[PropVar(scope.var, key)] = value
            if ok:
                emit(binding)
    else:
        for edge in _edge_universe(after):
            if not scope.edge_labels <= edge.labels:
                continue
            nid = edge.src if scope.direction is Direction.OUT else edge.tgt
            if nid is None or nid not in after.nodes:
                continue
            node = after.nodes[nid]
            if nid.startswith("sk:") or not scope.node_labels <= frozenset(node.labels):
                continue
            node_vals = _node_val_props(after, nid)
            node_pool = [dict(node.props), node_vals]
            if edge.virtual:
                node_pool.append(edge.props)
            edge_pool = [edge.props, node_vals]
            binding = {ObjectVar(scope.node_var): nid, ObjectVar(scope.edge_var): edge.eid}
            ok = True
            for key in scope.node_keys:
                found, value = _lookup(key, *node_pool)
                if not found:
                    ok = False
                    break
                binding[PropVar(scope.node_var, key)] = value
            for key in scope.edge_keys:
                found, value = _lookup(key, *edge_pool)
                if not found and key in onto_node:
                    found, value = _lookup(key, dict(node.props))
                if not found:
                    ok = False
                    break
                binding[PropVar(scope.edge_var, key)] = value
            if ok:
                emit(binding)

    return rebuilt == set(reference.rows)
