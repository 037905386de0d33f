"""Redundancy-removing graph transformations.

A dependency whose descriptor fits one of six shapes marks value redundancy
that can be removed by restructuring the graph: repeated property
combinations are pulled out into shared value nodes, and edges whose
properties move away are reified into nodes so nothing is lost.  Each
transformation is planned against the untouched input graph; plans are then
executed together, all creations and moves before all removals, so
transformations sharing objects cannot read each other's partial writes.
Dependencies with one scope and left side, like the split parts of one
dependency, share one sweep over the matches, stored once as blocks of ops
in column form: ``(kind, *columns)``, one column per field of that kind's
op, a node's or edge's labels as one tuple per op, and a field every op
shares, like a key or a label, stored once.  A sweep's blocks come in
planning order: its value nodes, each once; for an edge left side the
edge's reification; the left-side moves; the links.  Each part lists
these same block objects with its own right-side move just before the
links.  Other ops are stored as rows: exact tuples whose first item names
the kind and the rest are that kind's fields, like ``("move-prop", source,
key, target, value)`` or ``("new-node", node, labels)`` with the labels one
tuple, which the garbage collector stops tracking.  Between-n-ep plans,
the migrations of deleted edges and plans built by hand are rows; an op
equal to one already run changes nothing.  One walk over a list of plans
yields every op as blocks in the order the plans come: per plan, the
blocks no earlier plan yielded, then its rows, consecutive rows of one kind
as one block.  The executor, ``invert``, the planner and the ``DEBUG``
pass line read this walk.
``Transformation.rows`` builds a plan's ops as rows on each access, in
planning order, and ``Transformation.ops`` as the named tuples ``NewNode``,
``NewEdge``, ``MoveProp`` and ``DelEdge``; the ``--explain`` log reads
the rows.  Plans compare and print by the fields they store.

Skolem naming makes the output deterministic: value nodes are named by the
defining left-side values, reifier nodes by the edge they replace.  The plans
record which objects were created, where each moved value went and which
pass ran them, so ``invert`` rebuilds the whole input graph from the output
by undoing the passes last to first, reading every value from the output;
``verify_lossless`` compares that rebuild with the input byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import (
    EndpointError,
    GonormError,
    InvariantError,
    NonStrict,
)
from .gofd import GoFd, check_bound, gofd, scope_matches
from .graph import (EQUAL_IS_SAME, Atomic, Graph, check_atomic, column_texts, dump_graph,
                    shared_labels, value_key, value_keys)
from .pattern import (
    Direction,
    NodeEdgePattern,
    ObjectVar,
    Pattern,
    PropVar,
    Relation,
    Variable,
    _matches,
    node_pattern,
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


def check_transformable(graph: Graph, dep: GoFd, *,
                        matches: Relation | None = None) -> None:
    """Raise if a one-variable right side cannot be transformed losslessly.

    Raises ``NonStrict`` when a descriptor side mixes the node and the edge
    family.  Raises ``InvariantError`` when a between-n-ep or between-np-ep
    plan would leave the output unable to tell which edges held the moved
    key: a between-n-ep target node already has that key, or a matched node
    has an edge that would match the scope but for lacking the key.
    ``matches`` may pass the scope's already evaluated matches on ``graph``.
    """
    kind = match_redundancy_pattern(dep)
    if kind not in (TransformationKind.BETWEEN_N_EP, TransformationKind.BETWEEN_NP_EP):
        return
    relation = scope_matches(graph, dep, matches)
    scope = dep.scope
    column = relation.variables.index(ObjectVar(scope.node_var))
    key = next(iter(dep.rhs)).key
    anchors = {row[column] for row in relation.rows}
    if kind is TransformationKind.BETWEEN_N_EP:
        for nid in sorted(anchors):
            if key in graph.props[nid]:
                raise InvariantError(f"node {nid} already has {key}")
    other_keys = scope.edge_keys - {key}
    end = 0 if scope.direction is Direction.OUT else 1
    for eid, labels in graph.edges.items():
        nid, props = graph.ends[eid][end], graph.props[eid]
        if (nid in anchors and key not in props
                and _matches(labels, props, scope.edge_labels, other_keys)):
            raise InvariantError(f"edge {eid} of node {nid} lacks {key}")


# -- deterministic names --------------------------------------------------

EDGE_ID_PREFIX = "ske:"


def _skolem_text(tag: str, labels: Iterable[str], texts: Iterable[tuple[str, str]]) -> str:
    """``tag|labels|pairs``, sorted, from each key's value already written as text."""
    pairs = ",".join(f"{k}={text}" for k, text in sorted(texts, key=itemgetter(0)))
    return f"{tag}|{','.join(sorted(labels))}|{pairs}"


def skolem_label(labels: Iterable[str], keys: Iterable[str]) -> str:
    parts = sorted(labels) + sorted(keys)
    return "Sk_" + "".join(p[:1].upper() + p[1:] for p in parts)


def reifier_id(edge_id: str) -> str:
    return "sk:reif||edge=" + value_key(edge_id)  # a value node's layout, tag reif


def reification_prefix(edge_labels: Iterable[str]) -> str:
    return "_".join(sorted(edge_labels)) or "edge"


def created_edge_id(label: str, src: str, tgt: str) -> str:
    return f"{EDGE_ID_PREFIX}{label}|{src}|{tgt}"


# -- primitive operations -------------------------------------------------

# A row is the op's named tuple below as an exact tuple, its tag (the op's
# name in the ``--explain`` log) first: ``("new-edge", edge, src, tgt,
# labels)``, the labels one tuple.  The collector stops tracking an exact
# tuple of atomic values, or of such tuples, but never a tuple subclass,
# nor a tuple holding a still tracked one.

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
Row = tuple  # ``(tag, *fields of the op)``
_VIEWS = {"new-node": NewNode, "new-edge": NewEdge, "move-prop": MoveProp, "del-edge": DelEdge}


def op_to_dict(row: Row) -> dict:
    """An op's row in the ``--explain`` log's layout."""
    tag = row[0]
    if tag == "move-prop":
        return {"op": tag, "from": row[1], "key": row[2], "to": row[3], "value": row[4]}
    if tag == "new-edge":
        return {"op": tag, "id": row[1], "src": row[2], "tgt": row[3], "labels": list(row[4])}
    if tag == "new-node":
        return {"op": tag, "id": row[1], "labels": list(row[2]), "props": {}}
    return {"op": tag, "id": row[1]}


# -- plans ------------------------------------------------------------------

Block = tuple  # ``(tag, *columns)``, one column per field of the op


def _columns(block: Block) -> list[Iterable]:
    """A stored block's columns; a field every op shares, stored once, is repeated."""
    return [column if isinstance(column, list) else repeat(column) for column in block[1:]]


def _rows(block: Block) -> Iterator[Row]:
    """A stored block's ops as rows."""
    return zip(repeat(block[0]), *_columns(block))


def _part_rows(sweep: list[Block]) -> list[Row]:
    """A part's rows in planning order: per match the value node when its
    name is new, the reification, the left-side moves, the part's own move,
    then the link; the rows a node+edge scope repeats, once."""
    values, *blocks = sweep
    vids = blocks[-1][3]  # the link's target, per match
    first = dict(zip(reversed(vids), range(len(vids) - 1, -1, -1)))  # each name's first match
    heads: list[Row | None] = [None] * len(vids)
    for row in _rows(values):
        heads[first[row[1]]] = row
    rows = chain.from_iterable(zip(heads, *map(_rows, blocks)))
    return list(dict.fromkeys(filter(None, rows)))


@dataclass
class Transformation:
    """One planned transformation: the dependency, its shape, and the ops.

    A part of a split dependency lists in ``sweep`` the blocks it shares
    with the other parts of one scope and left side, the same objects, with
    its own right-side move just before the links; ``tail`` holds the rows
    run after them, the migrations of the edges it deletes.  Any other
    plan, like a between-n-ep plan or one built by hand, holds all its rows
    in ``tail``; a ``new-node`` or ``new-edge`` row must hold its labels as
    one tuple, its last field.
    ``rows`` and ``ops`` build every op on each access, in planning order,
    as rows and as named tuples: views to read only.  Plans compare and
    print by the fields they store, so planning twice gives equal plans,
    while a plan built by hand from a planned plan's rows holds equal
    ``rows``, not an equal plan.
    ``full_normalize`` sets ``pass_index``, the number of the pass that ran it.
    """

    dependency: GoFd
    kind: TransformationKind
    match_count: int
    tail: list[Row]
    key_dependency: GoFd | None = None
    pass_index: int = 0
    sweep: list[Block] | None = None

    def __post_init__(self) -> None:
        for row in self.tail:
            if row[0] in ("new-node", "new-edge") and not isinstance(row[-1], tuple):
                raise ValueError(f"row {row!r} does not end in a tuple of labels")

    @property
    def rows(self) -> list[Row]:
        if self.sweep is None:
            return list(self.tail)
        return _part_rows(self.sweep) + self.tail

    @property
    def ops(self) -> list[Op]:
        return [_VIEWS[row[0]]._make(row[1:]) for row in self.rows]

    @property
    def deleted_edges(self) -> frozenset[str]:
        return frozenset(chain.from_iterable(
            columns[0] for tag, *columns in _walk([self]) if tag == "del-edge"))

    def to_dict(self) -> dict:
        doc = {
            "dependency": self.dependency.render(),
            "kind": self.kind.value,
            "matches": self.match_count,
            "ops": [op_to_dict(row) for row in self.rows],
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


def _key_dependency(val_label: str, lhs_keys: Iterable[str],
                    scope_keys: Iterable[str]) -> GoFd:
    scope = node_pattern("x", [val_label], sorted(set(scope_keys)))
    return gofd(scope, [PropVar("x", k) for k in sorted(set(lhs_keys))],
                [ObjectVar("x")])


def _sweep(graph: Graph, relation: Relation, source: int, lhs: list[tuple[str, int]],
           owner_labels: frozenset[str], val_label: str, lhs_role: str) -> list[Block]:
    """The blocks every part with one scope and left side plans alike, per
    match of ``relation``, whose column ``source`` holds the left side's
    object.  ``lhs`` pairs each left-side key with its column."""
    rows = relation.rows
    keys, columns = zip(*lhs)
    name_keys = list(value_keys(rows, columns))
    names = dict(zip(name_keys, rows))  # one row per left side, in first-seen order
    texts = value_keys(list(names.values()), columns, column_texts)
    for name_key, name_texts in zip(names, texts):
        names[name_key] = "sk:" + _skolem_text("val", owner_labels, zip(keys, name_texts))
    vids = list(map(names.__getitem__, name_keys))
    objs = list(map(itemgetter(source), rows))
    blocks: list[Block] = [("new-node", list(names.values()), (val_label,))]
    links, link_label = objs, val_label
    if lhs_role == "edge":  # values leave the edge: reify it, link the reifier
        prefix = reification_prefix(owner_labels)
        labels = list(map(graph.edges.__getitem__, objs))
        sorted_labels = {own: tuple(sorted(own)) for own in set(labels)}
        srcs, tgts = map(list, zip(*map(graph.ends.__getitem__, objs)))
        links, link_label = list(map(reifier_id, objs)), f"{prefix}_det"
        src_label, tgt_label = f"{prefix}_src", f"{prefix}_tgt"
        blocks += [("new-node", links, list(map(sorted_labels.__getitem__, labels))),
                   ("new-edge", list(map(created_edge_id, repeat(src_label), srcs, links)),
                    srcs, links, (src_label,)),
                   ("new-edge", list(map(created_edge_id, repeat(tgt_label), links, tgts)),
                    links, tgts, (tgt_label,)),
                   ("del-edge", objs)]
    blocks += [("move-prop", objs, key, vids, list(map(itemgetter(pos), rows)))
               for key, pos in lhs]
    blocks.append(("new-edge", list(map(created_edge_id, repeat(link_label), links, vids)),
                   links, vids, (link_label,)))
    return blocks


def _instantiate(graph: Graph, dep: GoFd, kind: TransformationKind, relation: Relation,
                 sweeps: dict[tuple[Pattern, frozenset[Variable]], list[Block]]
                 ) -> Transformation:
    """The plan of one part of shape ``kind`` on its scope's non-empty
    matches ``relation``, reusing the sweep of an earlier part with the
    same scope and left side from ``sweeps``, or adding this part's there."""
    roles = variable_roles(dep.scope)
    column = {var: pos for pos, var in enumerate(relation.variables)}
    owner = {roles[var.name]: pos for var, pos in column.items() if isinstance(var, ObjectVar)}
    rhs = next(iter(dep.rhs))
    if kind is TransformationKind.BETWEEN_N_EP:
        edge, node, value = owner["edge"], owner["node"], column[rhs]
        ops = [("move-prop", values[edge], rhs.key, values[node], values[value])
               for values in relation.rows]  # one per matched edge
        return Transformation(dep, kind, len(relation.rows), ops)

    lhs_role = roles[next(iter(dep.lhs)).name]
    source = owner[lhs_role]
    lhs = sorted((var.key, column[var]) for var in dep.lhs)  # PropVars only in these shapes
    lhs_keys = [key for key, _ in lhs]
    owner_labels, _ = _family_parts(dep.scope, lhs_role)
    val_label = skolem_label(owner_labels, lhs_keys)
    blocks = sweeps.get((dep.scope, dep.lhs))
    if blocks is None:
        blocks = sweeps[dep.scope, dep.lhs] = _sweep(graph, relation, source, lhs, owner_labels,
                                                     val_label, lhs_role)
    val_keys = list(lhs_keys)
    if isinstance(rhs, PropVar):
        val_keys.append(rhs.key)
        mover = owner[roles[rhs.name]]
        own = ("move-prop", blocks[-2][1] if mover == source else  # a left-side move's sources
               list(map(itemgetter(mover), relation.rows)),
               rhs.key, blocks[-1][3], list(map(itemgetter(column[rhs]), relation.rows)))
        blocks = [*blocks[:-1], own, blocks[-1]]
    key_dep = _key_dependency(val_label, lhs_keys, val_keys)
    return Transformation(dep, kind, len(relation.rows), [], key_dep, sweep=blocks)


def build_plans(graph: Graph, deps: Iterable[GoFd], *, matches: Relation | None = None
                ) -> tuple[list[Transformation], list[tuple[GoFd, TransformationKind]]]:
    """Plan every transformable dependency and coordinate shared edges.

    Returns the plans plus, in input order, the dependencies that produced
    none, each with the shape it matched: none, or a scope matching nothing.
    A dependency with a shape needs one right-side variable, else
    ``ValueError``; the plans of its split parts merge, as value nodes are
    named by left-side values alone.  Dependencies with the same scope and
    left side share one sweep over the matches.  Coordination: when an edge
    is deleted, its properties that no plan moved anywhere migrate to the
    reifier node, so the edge's incidental data survives.  Migration ops
    are attached to the first plan that deletes the edge.  ``matches`` may
    pass the already evaluated matches of the one scope all ``deps`` share.
    """
    plans: list[Transformation] = []
    leftovers: list[tuple[GoFd, TransformationKind]] = []
    sweeps: dict[tuple[Pattern, frozenset[Variable]], list[Block]] = {}
    for dep in deps:
        kind = match_redundancy_pattern(dep)
        if kind is TransformationKind.NO_REDUNDANCY:
            leftovers.append((dep, kind))
            continue
        if len(dep.rhs) != 1:
            raise ValueError("one right-side variable per transformation; split the dependency")
        relation = scope_matches(graph, dep, matches)
        if relation.rows:
            plans.append(_instantiate(graph, dep, kind, relation, sweeps))
        else:
            leftovers.append((dep, kind))

    deleted = [plan.deleted_edges for plan in plans]
    doomed = frozenset().union(*deleted)
    claimed: dict[str, set[str]] = {eid: set() for eid in doomed}  # keys moved off
    if doomed:
        for tag, *columns in _walk(plans):
            if tag == "move-prop":
                for obj, key in zip(*columns[:2]):
                    if obj in doomed:
                        claimed[obj].add(key)
    migrated: set[str] = set()
    for plan, edges in zip(plans, deleted):
        for eid in sorted(edges - migrated):
            migrated.add(eid)
            rid = reifier_id(eid)
            props = graph.props[eid]
            for key in sorted(set(props) - claimed[eid]):
                plan.tail.append(("move-prop", eid, key, rid, props[key]))
    return plans, leftovers


# -- execution ------------------------------------------------------------

def _walk(plans: Sequence[Transformation]) -> Iterator[Block]:
    """Every op of ``plans`` as blocks, in the order the plans come: per
    plan, the stored blocks no earlier plan yielded, then its rows,
    consecutive rows of one kind as one block."""
    seen: set[int] = set()  # ids of stored blocks: the plans keep them alive
    for plan in plans:
        for block in plan.sweep or ():
            if id(block) not in seen:
                seen.add(id(block))
                yield (block[0], *_columns(block))
        for tag, run in groupby(plan.tail, itemgetter(0)):
            _, *columns = zip(*run)
            yield (tag, *columns)


def execute_plans(graph: Graph, plans: Iterable[Transformation]) -> Graph:
    """Run plans against a copy of the graph; the graph itself is unchanged.

    The plans run in the order given, a block that parts share once, then
    all removals.  Values that differ as JSON text, like ``1`` and ``True``
    moved to one slot, conflict, and the message names first the value
    that ran first.
    """
    return _execute(graph.copy(), plans)


def _execute(graph: Graph, plans: Iterable[Transformation]) -> Graph:
    """``execute_plans`` on ``graph`` itself, which it changes and returns.

    Each block of the plans' walk runs as one loop, and the removals run
    after every creation and move.  A value moves only onto a node, and
    only onto a key it does not have yet; an op equal to one already run
    changes nothing.
    """
    plans = list(plans)
    nodes, edges, ends, props = graph.nodes, graph.edges, graph.ends, graph.props
    created_nodes, created_edges = set(), set()  # two sets: an edge may not take a new node's id
    assigned: dict[tuple[str, str], Atomic] = {}  # each written slot's value
    label_sets: dict[tuple[str, ...], frozenset[str]] = {}  # of created objects
    moved: list[tuple[Iterable[str], Iterable[str]]] = []  # (objects, keys) to move off
    deleted: list[Iterable[str]] = []  # edges to remove

    def new_nodes(ids: Iterable[str], labels: Iterable[tuple[str, ...]]) -> None:
        for nid, names in zip(ids, labels):
            if nid in created_nodes:
                nodes[nid] = nodes[nid].union(names)
            elif nid in props:
                raise InvariantError(f"generated node id {nid!r} already taken")
            else:
                nodes[nid], props[nid] = shared_labels(label_sets, names), {}
                created_nodes.add(nid)

    def new_edges(ids: Iterable[str], srcs: Iterable[str], tgts: Iterable[str],
                  labels: Iterable[tuple[str, ...]]) -> None:
        for eid, src, tgt, names in zip(ids, srcs, tgts, labels):
            if eid in created_edges:
                edges[eid] = edges[eid].union(names)
            elif eid in props:
                raise InvariantError(f"generated edge id {eid!r} already taken")
            elif src not in nodes or tgt not in nodes:
                raise EndpointError(f"endpoint {(tgt if src in nodes else src)!r} "
                                    "is not a node of the graph")
            else:
                edges[eid] = shared_labels(label_sets, names)
                ends[eid], props[eid] = (src, tgt), {}
                created_edges.add(eid)

    def move(objs: Iterable[str], keys: Iterable[str], targets: Iterable[str],
             values: Iterable[Atomic]) -> None:
        for key, target, value in zip(keys, targets, values):
            slot = (target, key)
            first = assigned.get(slot)  # never None: the first write checked it
            if first is not None:
                if not (type(first) is type(value) and type(value) in EQUAL_IS_SAME
                        and first == value) and value_key(first) != value_key(value):
                    raise InvariantError(f"conflicting values for {target}.{key}: "
                                         f"{first!r} vs {value!r}")
            else:
                if target not in nodes:
                    raise InvariantError(f"move target {target!r} is not a node")
                own = props[target]
                if key in own:  # even an equal value: the output could not tell them apart
                    raise InvariantError(f"transformation would overwrite {target}.{key}: "
                                         f"{own[key]!r} vs {value!r}")
                own[key] = assigned[slot] = check_atomic(value)
        moved.append((objs, keys))

    run = {"new-node": new_nodes, "new-edge": new_edges, "move-prop": move,
           "del-edge": deleted.append}
    for tag, *columns in _walk(plans):
        run[tag](*columns)
    for objs, keys in moved:
        for obj, key in zip(objs, keys):
            own = props.get(obj)
            if own is not None:
                own.pop(key, None)
    for eids in deleted:
        for eid in eids:
            if eid in edges:
                graph.remove_object(eid)
    return graph


# -- inverse and lossless check --------------------------------------------

def invert(after: Graph, plans: Iterable[Transformation]) -> Graph:
    """Rebuild the input graph from a transformed graph and its plans.

    Every value is read from ``after``.  The plans give structure only:
    which objects were created, which slot ``(object, key)`` moved to which
    target, and which edge each reifier node replaced, whose endpoints its
    ``_src``/``_tgt`` link edges give.  The passes are undone on a copy of
    ``after``, the highest ``pass_index`` first, so plans may come in any
    order.  Raises ``InvariantError`` when a node the plans create or move
    values onto is missing, a created edge is missing or rewired, a deleted
    edge lacks a labelled ``_src`` link and its ``_tgt`` link, or one slot
    moved to targets holding different values; ``EndpointError`` when
    an edge is left without a node at an end; other ``GonormError``
    subclasses when other objects the plans name are gone.
    """
    plans = list(plans)
    out = after.copy()
    nodes, edges, ends, props = out.nodes, out.edges, out.ends, out.props
    # a pass moves no value off a slot it writes: it writes only keys its
    # targets lack, and moves values off after every write
    for index in sorted({plan.pass_index for plan in plans}, reverse=True):
        moves: dict[tuple[str, str], set[str]] = {}
        new_nodes: set[str] = set()
        new_edges: dict[str, tuple[str, str, tuple[str, ...]]] = {}  # (src, tgt, labels)
        replaced: dict[str, str] = {}  # reifier id -> the edge it replaced
        for tag, *columns in _walk([plan for plan in plans if plan.pass_index == index]):
            if tag == "move-prop":
                for obj, key, target in zip(*columns[:3]):
                    moves.setdefault((obj, key), set()).add(target)
            elif tag == "new-node":
                new_nodes.update(columns[0])
            elif tag == "new-edge":
                new_edges.update(zip(columns[0], zip(*columns[1:])))
            else:
                replaced.update(zip(map(reifier_id, columns[0]), columns[0]))
        written = {(target, key) for (_, key), targets in moves.items() for target in targets}
        absent = new_nodes.union(target for target, _ in written) - nodes.keys()
        if absent:
            raise InvariantError(f"node {min(absent)!r} of the plans is missing")
        for eid, (src, tgt, _) in new_edges.items():
            if ends.get(eid) != (src, tgt):
                raise InvariantError(f"created edge {eid!r} is missing or rewired")
        # the only created edge into a reifier node is its _src link; the _tgt
        # link leaves it under the same prefix
        links = {tgt: (src, (labels[0].removesuffix("_src") + "_tgt",))
                 for src, tgt, labels in new_edges.values() if tgt in replaced and labels}
        for src, tgt, labels in new_edges.values():
            link = links.get(src)
            if link is not None and labels == link[1]:
                out.add_edge(link[0], tgt, nodes[src], edge_id=replaced[src])
        missing = set(replaced.values()) - edges.keys()
        if missing:
            raise InvariantError(f"no _src/_tgt links for reified edges {sorted(missing)}")
        lost = [slot for slot in written if slot[1] not in props[slot[0]]]
        if lost:
            raise InvariantError(f"moved value {'.'.join(min(lost))} is missing")
        held = {(target, key): props[target].pop(key) for target, key in written}
        for (obj, key), targets in moves.items():
            found = {value_key(held[target, key]): held[target, key] for target in targets}
            if len(found) > 1:
                raise InvariantError(f"{obj}.{key} moved to different values: "
                                     f"{', '.join(sorted(found))}")
            out.set_prop(obj, key, found.popitem()[1])
        for eid in new_edges:
            del edges[eid], ends[eid], props[eid]
        for nid in new_nodes:
            del nodes[nid], props[nid]
    for src, tgt in ends.values():
        if src not in nodes or tgt not in nodes:
            raise EndpointError(f"endpoint {(tgt if src in nodes else src)!r} "
                                "is not a node of the graph")
    return out


def verify_lossless(before: Graph, after: Graph, plan: Transformation,
                    siblings: Iterable[Transformation] = ()) -> bool:
    """True when ``invert`` rebuilds ``before`` from ``after`` byte for byte.

    ``plan`` and ``siblings`` together are the plans that turned ``before``
    into ``after``, in any order: ``invert`` undoes them by ``pass_index``.
    The whole graph is compared, so damage outside the plans' scopes counts too.
    """
    try:
        rebuilt = invert(after, [plan, *siblings])
    except GonormError:  # missing, rewired or conflicting objects and values
        return False
    return dump_graph(rebuilt) == dump_graph(before)
