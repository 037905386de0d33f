"""Basic graph patterns and their evaluation to relations.

A pattern is one of three shapes: a single node, a single edge with both
endpoints left open, or a node with one incident edge.  Label and key sets
are requirements: an object matches when it carries at least the listed
labels and at least the listed property keys.

Pattern variables are positional.  Two patterns of the same shape correspond
component by component (node variable to node variable, edge variable to edge
variable), no matter how the variables are named.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import wraps
from enum import Enum
from operator import itemgetter
from typing import Iterable, Union

from .errors import InvariantError
from .graph import Atomic, Graph

# reserved name given to an edge variable that was written anonymously
ANON_EDGE_VAR = "_e"


def once_per_object(fn):
    """``fn``, a pure function of one frozen object that never returns ``None``,
    run once per object: the value is kept as an attribute of the object, out
    of ``==``, ``hash`` and ``repr``.  Not in ``__dict__``: asking for that
    turns the fields' inline storage into a dict and slows every field read."""
    slot = f"_{fn.__name__}"

    @wraps(fn)
    def cached(obj):
        value = getattr(obj, slot, None)
        if value is None:
            value = fn(obj)
            object.__setattr__(obj, slot, value)  # the frozen class refuses setattr
        return value

    return cached


@dataclass(frozen=True)
class ObjectVar:
    """Stands for the identity of a matched node or edge."""

    name: str


@dataclass(frozen=True)
class PropVar:
    """Stands for the value of one property of a matched object."""

    name: str
    key: str


Variable = Union[ObjectVar, PropVar]


def render_var(var: Variable) -> str:
    if isinstance(var, ObjectVar):
        return var.name
    return f"{var.name}.{var.key}"


def var_sort_key(var: Variable) -> tuple[str, str]:
    # an object variable sorts before its own property variables
    return (var.name, "" if isinstance(var, ObjectVar) else var.key)


def render_vars(variables: Iterable[Variable]) -> str:
    return ",".join(render_var(v) for v in sorted(variables, key=var_sort_key))


class Direction(Enum):
    """Which endpoint of the edge the named node of a node-edge pattern is."""

    OUT = "out"   # node is the source:  (x)-[y]->()
    IN = "in"     # node is the target:  ()-[y]->(x)


@dataclass(frozen=True)
class NodePattern:
    var: str
    labels: frozenset[str] = frozenset()
    keys: frozenset[str] = frozenset()


@dataclass(frozen=True)
class EdgeOnlyPattern:
    """Matches each edge once, regardless of its endpoints or orientation."""

    var: str
    labels: frozenset[str] = frozenset()
    keys: frozenset[str] = frozenset()


@dataclass(frozen=True)
class NodeEdgePattern:
    node_var: str
    node_labels: frozenset[str]
    node_keys: frozenset[str]
    edge_var: str
    edge_labels: frozenset[str]
    edge_keys: frozenset[str]
    direction: Direction

    def __post_init__(self) -> None:
        if self.node_var == self.edge_var:
            raise InvariantError(f"node and edge both bind variable {self.node_var!r}")


Pattern = Union[NodePattern, EdgeOnlyPattern, NodeEdgePattern]


def node_pattern(var: str, labels: Iterable[str] = (), keys: Iterable[str] = ()) -> NodePattern:
    return NodePattern(var, frozenset(labels), frozenset(keys))


def edge_pattern(var: str, labels: Iterable[str] = (), keys: Iterable[str] = ()) -> EdgeOnlyPattern:
    return EdgeOnlyPattern(var or ANON_EDGE_VAR, frozenset(labels), frozenset(keys))


def node_edge_pattern(node_var: str, node_labels: Iterable[str], node_keys: Iterable[str],
                      edge_var: str, edge_labels: Iterable[str], edge_keys: Iterable[str],
                      direction: Direction) -> NodeEdgePattern:
    return NodeEdgePattern(node_var, frozenset(node_labels), frozenset(node_keys),
                           edge_var or ANON_EDGE_VAR, frozenset(edge_labels),
                           frozenset(edge_keys), direction)


@once_per_object
def attrs(pattern: Pattern) -> frozenset[Variable]:
    """All variables a match binds: object identities plus one per required key."""
    if not isinstance(pattern, NodeEdgePattern):
        out: set[Variable] = {ObjectVar(pattern.var)}
        out.update(PropVar(pattern.var, k) for k in pattern.keys)
        return frozenset(out)
    out = {ObjectVar(pattern.node_var), ObjectVar(pattern.edge_var)}
    out.update(PropVar(pattern.node_var, k) for k in pattern.node_keys)
    out.update(PropVar(pattern.edge_var, k) for k in pattern.edge_keys)
    return frozenset(out)


def variable_roles(pattern: Pattern) -> dict[str, str]:
    """Map each object variable name to its role, ``"node"`` or ``"edge"``."""
    if isinstance(pattern, NodePattern):
        return {pattern.var: "node"}
    if isinstance(pattern, EdgeOnlyPattern):
        return {pattern.var: "edge"}
    return {pattern.node_var: "node", pattern.edge_var: "edge"}


# -- evaluation -----------------------------------------------------------

@dataclass(frozen=True)
class Relation:
    """One row per match over a fixed tuple of variables (sorted canonically),
    sorted by the object-id columns.  Matches always differ in some id, and rows
    with equal ids hold the same values, so no row repeats and no value is compared for order."""

    variables: tuple[Variable, ...]
    rows: tuple[tuple[Atomic, ...], ...]
    scope: Pattern | None = field(default=None, compare=False)  # pattern matched, if any

    def __len__(self) -> int:
        return len(self.rows)


def _matches(own: frozenset[str], props: dict[str, Atomic], labels: frozenset[str],
             keys: frozenset[str]) -> bool:
    return labels <= own and keys <= props.keys()


def evaluate(pattern: Pattern, graph: Graph) -> Relation:
    """All matches of the pattern as a relation over ``attrs(pattern)``.

    Costs O(|N|+|E|) for every shape.  A node-edge match is an edge plus its
    single anchor node, the source for ``OUT`` and the target for ``IN``, so
    one pass over the edges finds them all.
    """
    nodes, ends, props = graph.nodes, graph.ends, graph.props
    if isinstance(pattern, NodeEdgePattern):
        names = (pattern.node_var, pattern.edge_var)
        end = 0 if pattern.direction is Direction.OUT else 1
        matches = []
        for eid, labels in graph.edges.items():
            nid = ends[eid][end]
            node, edge = props[nid], props[eid]
            if (_matches(labels, edge, pattern.edge_labels, pattern.edge_keys)
                    and _matches(nodes[nid], node, pattern.node_labels, pattern.node_keys)):
                matches.append((nid, node, eid, edge))
    else:
        names = (pattern.var,)
        objects = nodes if isinstance(pattern, NodePattern) else graph.edges
        matches = [(oid, props[oid]) for oid, labels in objects.items()
                   if _matches(labels, props[oid], pattern.labels, pattern.keys)]
    variables = tuple(sorted(attrs(pattern), key=var_sort_key))
    columns = []  # one lazy column per variable, all read in C as zip builds the rows
    for var in variables:
        pos = 2 * names.index(var.name)  # of the object's id; its props follow
        if isinstance(var, ObjectVar):
            columns.append(map(itemgetter(pos), matches))
        else:
            columns.append(map(itemgetter(var.key), map(itemgetter(pos + 1), matches)))
    rows = list(zip(*columns))
    del matches, columns  # before the sort makes its keys
    rows.sort(key=itemgetter(*[pos for pos, var in enumerate(variables)
                               if isinstance(var, ObjectVar)]))
    return Relation(variables, tuple(rows), pattern)


# -- generality and renaming ---------------------------------------------

def more_general_than(general: Pattern, specific: Pattern) -> bool:
    """True when every match of ``specific`` projects to a match of ``general``.

    Componentwise containment of label and key sets, with the shapes compared
    positionally: a node pattern generalizes a node or node-edge pattern; a
    pattern that requires an edge never generalizes one without it.  Edge-only
    patterns compare only with each other (orientation does not constrain them).
    """
    if isinstance(general, NodePattern):
        if isinstance(specific, NodePattern):
            return general.labels <= specific.labels and general.keys <= specific.keys
        if isinstance(specific, NodeEdgePattern):
            return general.labels <= specific.node_labels and general.keys <= specific.node_keys
        return False
    if isinstance(general, EdgeOnlyPattern):
        return (isinstance(specific, EdgeOnlyPattern)
                and general.labels <= specific.labels
                and general.keys <= specific.keys)
    if isinstance(general, NodeEdgePattern) and isinstance(specific, NodeEdgePattern):
        return (general.direction is specific.direction
                and general.node_labels <= specific.node_labels
                and general.node_keys <= specific.node_keys
                and general.edge_labels <= specific.edge_labels
                and general.edge_keys <= specific.edge_keys)
    return False


def rename_map(source: Pattern, target: Pattern) -> dict[str, str]:
    """Positional variable renaming from ``source`` names to ``target`` names."""
    mapping: dict[str, str] = {}
    src_roles = variable_roles(source)
    tgt_by_role: dict[str, str] = {}
    for name, role in variable_roles(target).items():
        tgt_by_role[role] = name
    for name, role in src_roles.items():
        if role in tgt_by_role:
            mapping[name] = tgt_by_role[role]
    return mapping


def rename_variable(var: Variable, mapping: dict[str, str]) -> Variable:
    name = mapping.get(var.name, var.name)
    if isinstance(var, ObjectVar):
        return ObjectVar(name)
    return PropVar(name, var.key)


@once_per_object
def canonicalize(pattern: Pattern) -> Pattern:
    """The same pattern with its variables renamed to the fixed names x and y."""
    if isinstance(pattern, NodePattern):
        return replace(pattern, var="x")
    if isinstance(pattern, EdgeOnlyPattern):
        return replace(pattern, var="y")
    return replace(pattern, node_var="x", edge_var="y")


@once_per_object
def render_pattern(pattern: Pattern) -> str:
    """Canonical text; label and key sets are printed sorted."""
    def sets(labels: frozenset[str], keys: frozenset[str]) -> str:
        return "{%s}:{%s}" % (",".join(sorted(labels)), ",".join(sorted(keys)))

    if isinstance(pattern, NodePattern):
        return f"({pattern.var}:{sets(pattern.labels, pattern.keys)})"
    if isinstance(pattern, EdgeOnlyPattern):
        var = "" if pattern.var == ANON_EDGE_VAR else pattern.var
        return f"()-[{var}:{sets(pattern.labels, pattern.keys)}]->()"
    var = "" if pattern.edge_var == ANON_EDGE_VAR else pattern.edge_var
    node = f"({pattern.node_var}:{sets(pattern.node_labels, pattern.node_keys)})"
    edge = f"-[{var}:{sets(pattern.edge_labels, pattern.edge_keys)}]->"
    if pattern.direction is Direction.OUT:
        return f"{node}{edge}()"
    return f"(){edge}{node}"


@once_per_object
def scope_key(pattern: Pattern) -> str:
    """Identity of a scope: its canonical text with canonical variable names."""
    return render_pattern(canonicalize(pattern))
