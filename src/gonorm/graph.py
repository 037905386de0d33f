"""In-memory labeled property graph with a JSON file format.

Nodes and edges are objects drawn from one id space (the two sets stay
disjoint), each with a label set and a property map, kept in maps keyed by
id.  Label sets are immutable ``frozenset``s, so objects may share one: the
loader keeps one per distinct label list, and copies share the original's.
Property values are atomic: strings, numbers, or booleans.  Nested values
are rejected so that every graph is first-normal-form by construction.
"""
from __future__ import annotations

import json
import math
import re
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Any, IO, Iterable, Iterator, Sequence, Union

from .errors import (
    EndpointError,
    FormatError,
    InvariantError,
    NotFoundError,
    ParseError,
)

Atomic = Union[str, int, float, bool]


def _float_text(value: float) -> str:
    """A float's ``json.dumps`` text: its repr when finite, else ``NaN`` or
    ``Infinity``."""
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


# The one rule for property values: two values are the same exactly when
# their JSON texts are equal.  Python equality does not follow it, since it
# merges 1, 1.0 and True, and 0.0 with -0.0.  Each exact type here maps to a
# callable that writes any of its values as ``json.dumps`` does; ``repr``
# is that text for an int.  All but the float's run in C.  Subclasses go
# through ``json.dumps``.
_ENCODERS = {str: json.encoder.encode_basestring_ascii, int: repr, float: _float_text,
             bool: {True: "true", False: "false"}.__getitem__}


def value_key(value: Atomic) -> str:
    """The value's identity: exactly ``json.dumps(value)``, ASCII escapes,
    subclasses and non-finite floats included."""
    return _ENCODERS.get(type(value), json.dumps)(value)


# Exact types whose equal values have equal JSON texts; a float's do not
# (``0.0 == -0.0``, ``nan != nan``), nor, in general, a subclass's.
EQUAL_IS_SAME = frozenset({str, int, bool})


def column_texts(rows: Sequence[Sequence[Atomic]], column: int) -> list[str]:
    """The ``value_key`` of each row's value at ``column``.

    No Python call is made per value where the values share one exact
    type: its encoder is mapped over them, ``repr`` over finite floats.  A
    mixed column looks up each value's encoder.
    """
    values = list(map(itemgetter(column), rows))
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float and all(map(math.isfinite, values)):
        return list(map(repr, values))  # a finite float's JSON text
    if kind in _ENCODERS:
        return list(map(_ENCODERS[kind], values))
    return [_ENCODERS.get(type(value), json.dumps)(value) for value in values]


def column_keys(rows: Sequence[Sequence[Atomic]], column: int) -> list[Atomic]:
    """A key per row's value at ``column``, two keys equal exactly when the
    values' JSON texts are: the values themselves where they share one
    exact type of ``EQUAL_IS_SAME``, else their ``column_texts``."""
    values = list(map(itemgetter(column), rows))
    kinds = set(map(type, values))
    return values if len(kinds) == 1 and kinds <= EQUAL_IS_SAME else column_texts(rows, column)


def value_keys(rows: Sequence[Sequence[Atomic]], columns: Sequence[int],
               column_key=column_keys) -> Iterator[tuple]:
    """Each row's keys at ``columns``, one tuple per row, in row order, built
    a column at a time by ``column_key``: ``column_keys``, or ``column_texts``
    for the ``value_key``s themselves."""
    if not columns:
        return repeat((), len(rows))
    return zip(*[column_key(rows, column) for column in columns])


def check_atomic(value: Any) -> Atomic:
    """Return the value if it is an allowed property value, else raise FormatError."""
    if isinstance(value, (str, int, float, bool)):
        return value
    raise FormatError(f"property values must be string/number/boolean, got {type(value).__name__}")


class Graph:
    """Mutable property graph store.

    Four maps keyed by object id hold the graph: ``nodes`` and ``edges``
    map an id to its label set, ``ends`` maps an edge to its ``(src,
    tgt)``, and ``props`` maps every object, node or edge, to its property
    dict, so an id is taken exactly when ``props`` holds it.  The maps are
    read, and may be changed in place; code that writes them keeps the
    invariants itself (one ``props`` entry per object, disjoint id spaces,
    total endpoints, atomic values).  The methods check what they add: an
    id not yet taken, endpoints that are nodes, atomic values, and an
    existing object for ``set_prop`` and ``remove_object``, which drops a
    node's incident edges with it.  Label sets are immutable and shared,
    between objects and with copies; a label change replaces the object's
    set.  No locking is done; a graph instance is not safe for concurrent
    mutation.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, frozenset[str]] = {}
        self.edges: dict[str, frozenset[str]] = {}
        self.ends: dict[str, tuple[str, str]] = {}
        self.props: dict[str, dict[str, Atomic]] = {}
        self._counters = {"n": 0, "e": 0}  # the last number handed out per id prefix

    # -- object management ------------------------------------------------

    def _claim(self, obj_id: str | None, prefix: str, props: dict[str, Atomic] | None) -> str:
        """``obj_id``, refused if taken, or a fresh id with ``prefix``, now
        the id of a new object holding ``props``, checked."""
        if obj_id is None:
            while True:
                self._counters[prefix] += 1
                obj_id = f"{prefix}{self._counters[prefix]}"
                if obj_id not in self.props:
                    break
        elif obj_id in self.props:
            raise InvariantError(f"duplicate id: object {obj_id!r} already exists")
        self.props[obj_id] = {key: check_atomic(value) for key, value in (props or {}).items()}
        return obj_id

    def add_node(self, labels: Iterable[str] = (), props: dict[str, Atomic] | None = None,
                 node_id: str | None = None) -> str:
        node_id = self._claim(node_id, "n", props)
        self.nodes[node_id] = frozenset(labels)
        return node_id

    def add_edge(self, src: str, tgt: str, labels: Iterable[str] = (),
                 props: dict[str, Atomic] | None = None, edge_id: str | None = None) -> str:
        for endpoint in (src, tgt):
            if endpoint not in self.nodes:
                raise EndpointError(f"endpoint {endpoint!r} is not a node of the graph")
        edge_id = self._claim(edge_id, "e", props)
        self.edges[edge_id] = frozenset(labels)
        self.ends[edge_id] = (src, tgt)
        return edge_id

    def remove_object(self, obj_id: str) -> None:
        """Remove a node (cascading to its incident edges) or an edge."""
        if obj_id in self.edges:
            doomed = [obj_id]
        elif obj_id in self.nodes:
            doomed = [eid for eid, ends in self.ends.items() if obj_id in ends]
            del self.nodes[obj_id], self.props[obj_id]
        else:
            raise NotFoundError(f"no object with id {obj_id!r}")
        for eid in doomed:
            del self.edges[eid], self.ends[eid], self.props[eid]

    def set_prop(self, obj_id: str, key: str, value: Atomic) -> None:
        props = self.props.get(obj_id)
        if props is None:
            raise NotFoundError(f"no object with id {obj_id!r}")
        props[key] = check_atomic(value)

    def copy(self) -> Graph:
        dup = Graph()
        dup._counters = dict(self._counters)
        dup.nodes, dup.edges, dup.ends = dict(self.nodes), dict(self.edges), dict(self.ends)
        dup.props = {oid: dict(props) for oid, props in self.props.items()}
        return dup

    def __len__(self) -> int:
        return len(self.props)


# -- serialization --------------------------------------------------------

def graph_to_dict(graph: Graph) -> dict[str, Any]:
    """JSON-ready representation; object, label, and key order is sorted."""
    props = graph.props
    return {
        "nodes": [
            {
                "id": nid,
                "labels": sorted(graph.nodes[nid]),
                "properties": {k: props[nid][k] for k in sorted(props[nid])},
            }
            for nid in sorted(graph.nodes)
        ],
        "edges": [
            {
                "id": eid,
                "src": graph.ends[eid][0],
                "tgt": graph.ends[eid][1],
                "labels": sorted(graph.edges[eid]),
                "properties": {k: props[eid][k] for k in sorted(props[eid])},
            }
            for eid in sorted(graph.edges)
        ],
    }


def shared_labels(kept: dict[tuple[str, ...], frozenset[str]],
                  labels: tuple[str, ...]) -> frozenset[str]:
    """The one set ``kept`` holds for ``labels``, made on first use."""
    found = kept.get(labels)
    if found is None:
        found = kept[labels] = frozenset(labels)
    return found


_STR_TYPE = frozenset((str,))
_ATOMIC_TYPES = frozenset((str, int, float, bool))


def graph_from_dict(doc: Any) -> Graph:
    """Build a graph from its JSON document, checking each entry once.

    Nodes are checked before edges, and each entry's id before its
    endpoints, labels and properties; the first rule broken raises
    ``InvariantError`` naming it.  Each property map is copied, so the
    document stays the caller's.
    """
    if not isinstance(doc, dict):
        raise InvariantError("document root must be an object")
    node_docs, edge_docs = doc.get("nodes"), doc.get("edges")
    if not isinstance(node_docs, list):
        raise InvariantError('"nodes" must be a list')
    if not isinstance(edge_docs, list):
        raise InvariantError('"edges" must be a list')
    graph = Graph()
    nodes, ends, props = graph.nodes, graph.ends, graph.props
    interned: dict[tuple[str, ...], frozenset[str]] = {}  # one set per label list
    for kind, entries, labels_of in (("node", node_docs, nodes), ("edge", edge_docs, graph.edges)):
        for entry in entries:
            if not isinstance(entry, dict):
                raise InvariantError(f"{kind} entries must be objects")
            oid = entry.get("id")
            if not isinstance(oid, str):
                raise InvariantError(f"{kind} ids must be strings")
            if oid in props:
                raise InvariantError(f"duplicate id: {oid!r}")
            if kind == "edge":
                src, tgt = entry.get("src"), entry.get("tgt")
                if not (isinstance(src, str) and isinstance(tgt, str)):
                    raise InvariantError(f"edge {oid!r} must name src and tgt node ids")
                if src not in nodes:
                    raise InvariantError(
                        f"dangling endpoint: edge {oid!r} src {src!r} is not a node")
                if tgt not in nodes:
                    raise InvariantError(
                        f"dangling endpoint: edge {oid!r} tgt {tgt!r} is not a node")
                ends[oid] = (src, tgt)
            labels = entry.get("labels", [])
            if not isinstance(labels, list) or not (
                    _STR_TYPE.issuperset(map(type, labels))  # exact types, in one pass in C
                    or all(isinstance(label, str) for label in labels)):
                raise InvariantError(f"labels of {oid!r} must be a list of strings")
            values = entry.get("properties", {})
            if not isinstance(values, dict):
                raise InvariantError(f"properties of {oid!r} must be an object")
            if not _ATOMIC_TYPES.issuperset(map(type, values.values())):  # exact types, in C
                for key, value in values.items():  # subclasses pass; name the first bad key
                    if not isinstance(value, (str, int, float, bool)):
                        raise InvariantError(
                            f"property {key!r} of {oid!r} must be an atomic string/number/boolean")
            labels_of[oid] = shared_labels(interned, tuple(labels))
            props[oid] = dict(values)
    return graph


_encode_str = json.encoder.encode_basestring  # the C encoder, where CPython has it
# a property map, keys sorted and one item a line at the layout's depth; it
# also writes None, lists and dicts, which ``dump_graph`` refuses first
_encode_props = json.encoder.c_make_encoder(None, None, _encode_str, None, ": ",
                                            ",\n        ", True, False, False)


def _refuse(graph: Graph) -> None:
    """Raise what ``json.dumps(value, allow_nan=False)`` raises for the graph's
    first value in file order that is not atomic or not finite, if any."""
    props = graph.props
    for oid in chain(sorted(graph.nodes), sorted(graph.edges)):
        for _, value in sorted(props[oid].items()):
            if not isinstance(value, (str, int, float, bool)):
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")


def _labels_text(labels: frozenset[str]) -> str:
    if not labels:
        return "[]"
    return "[\n        " + ",\n        ".join(map(_encode_str, sorted(labels))) + "\n      ]"


def _props_text(props: dict[str, Atomic]) -> str:
    if not props:
        return "{}"
    return "{\n        " + "".join(_encode_props(props, 0))[1:-1] + "\n      }"


def _list_text(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def dump_graph(graph: Graph) -> str:
    """The graph's JSON text, byte for byte ``json.dumps(graph_to_dict(graph),
    indent=2, ensure_ascii=False, allow_nan=False) + "\\n"``.

    The layout is written here because ``indent`` makes ``json.dumps`` use
    its pure-Python encoder.  Ids, labels and keys are strings, as the
    loader and ``Graph`` keep them.  A non-finite float raises ``ValueError``
    and a value that is not atomic ``TypeError``, as ``json.dumps`` raises
    them for the first such value.  Each distinct label set's text is
    written once.
    """
    ends, props = graph.ends, graph.props
    if not _ATOMIC_TYPES.issuperset(map(type, chain.from_iterable(map(dict.values,
                                                                      props.values())))):
        _refuse(graph)  # exact types, in C; subclasses pass
    labels_text = {labels: _labels_text(labels)
                   for labels in {*graph.nodes.values(), *graph.edges.values()}}
    try:
        nodes = [f'    {{\n      "id": {_encode_str(nid)},\n'
                 f'      "labels": {labels_text[labels]},\n'
                 f'      "properties": {_props_text(props[nid])}\n    }}'
                 for nid, labels in sorted(graph.nodes.items())]
        edges = [f'    {{\n      "id": {_encode_str(eid)},\n'
                 f'      "src": {_encode_str(ends[eid][0])},\n'
                 f'      "tgt": {_encode_str(ends[eid][1])},\n'
                 f'      "labels": {labels_text[labels]},\n'
                 f'      "properties": {_props_text(props[eid])}\n    }}'
                 for eid, labels in sorted(graph.edges.items())]
    except ValueError:  # the C encoder's error does not name the value
        _refuse(graph)
        raise
    return f'{{\n  "nodes": {_list_text(nodes)},\n  "edges": {_list_text(edges)}\n}}\n'


def save_graph(graph: Graph, target: str | IO[str]) -> None:
    write_text(dump_graph(graph), target)


def read_text(source: str | IO[str]) -> str:
    """The text of a stream, or of the UTF-8 file at a path.

    A byte that is not UTF-8 raises ``ParseError`` at its line and column.
    """
    if hasattr(source, "read"):
        return source.read()  # type: ignore[union-attr]
    with open(source, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].decode("utf-8")
        raise _at(head, len(head), f"byte 0x{data[exc.start]:02x} is not UTF-8") from exc


def write_text(text: str, target: str | IO[str]) -> None:
    """Write ``text`` to a stream, or to the UTF-8 file at a path."""
    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


def _reject_constant(name: str) -> None:
    raise ParseError(f"non-finite number {name} is not JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):  # a literal beyond the float range
        _reject_constant(text)
    return value


# a string literal, or a number literal as the json scanner reads one
_LITERAL = re.compile(r'"(?:[^"\\]|\\.)*"'
                      r'|(NaN|-?Infinity|-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)')
_NESTING = {"[": 1, "{": 1, "]": -1, "}": -1}  # a bracket's step in depth
# an escape in JSON text that loads, where each backslash starts one: a
# surrogate pair, an unpaired surrogate, or another
_ESCAPE = re.compile(r"\\(?:ud[89ab]..\\ud[c-f]..|(ud[89a-f]..)|.)", re.IGNORECASE)


def _refused(literal: str) -> bool:
    try:
        json.loads(literal, parse_constant=_reject_constant, parse_float=_finite_float)
    except (ParseError, ValueError):
        return True
    return False


def _at(text: str, start: int | None, message: str) -> ParseError:
    """``message`` at the line and column of ``text[start]``, if there is a start."""
    if start is None:
        return ParseError(message)
    return ParseError(message, line=text.count("\n", 0, start) + 1,
                      column=start - text.rfind("\n", 0, start))


def unpaired_surrogate(path: str) -> ParseError | None:
    """Why text of the graph loaded from ``path`` cannot be written as UTF-8:
    its first unpaired surrogate escape, which loads into a string, if any."""
    text = read_text(path)
    for match in _ESCAPE.finditer(text):
        if match.group(1):
            return _at(text, match.start(), "unpaired surrogate escape cannot be written as UTF-8")
    return None


def load_graph(source: str | IO[str]) -> Graph:
    text = read_text(source)
    try:
        doc = json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except (ParseError, ValueError) as exc:  # NaN, 1e999, or an int over the digit limit
        refused = (match.start() for match in _LITERAL.finditer(text)
                   if match.group(1) and _refused(match.group(1)))
        raise _at(text, next(refused, None), getattr(exc, "message", str(exc))) from exc
    except RecursionError as exc:  # at the first bracket that opens the deepest level
        blanked = _LITERAL.sub(lambda match: " " * len(match.group()), text)
        depths = list(accumulate(map(_NESTING.get, blanked, repeat(0))))
        deepest = max(depths)
        raise _at(text, depths.index(deepest),
                  f"arrays and objects nested {deepest} deep are too deep to load") from exc
    return graph_from_dict(doc)
