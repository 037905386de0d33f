"""Graph store: construction, invariants, and the JSON round trip."""

from __future__ import annotations

import gc
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gonorm import (
    EndpointError,
    FormatError,
    GonormError,
    Graph,
    InvariantError,
    NotFoundError,
    ParseError,
    dump_graph,
    full_normalize,
    graph_from_dict,
    graph_to_dict,
    invert,
    load_graph,
    save_graph,
    scoped_normalize,
)
from gonorm.cli import main
from gonorm.graph import (EQUAL_IS_SAME, check_atomic, column_keys, column_texts, value_key,
                          value_keys)

from conftest import TRICKY_VALUES, Level, Real, SameRepr, fixture_graph, fixture_schema
from oracles import (MULTI_PASS_DEPS, oracle_dump_graph, random_graph, random_multi_pass_case,
                     random_satisfying_case)


def small_graph() -> Graph:
    g = Graph()
    g.add_node({"A"}, {"k": 1}, node_id="n1")
    g.add_node({"B"}, {}, node_id="n2")
    g.add_edge("n1", "n2", {"R"}, {"w": "x"}, edge_id="e1")
    return g


def test_add_node_generates_distinct_ids():
    g = Graph()
    ids = {g.add_node() for _ in range(10)}
    assert len(ids) == 10
    assert all(i in g.nodes for i in ids)


def test_add_node_copies_labels_and_props():
    labels = {"A"}
    props = {"k": 1}
    g = Graph()
    nid = g.add_node(labels, props)
    labels.add("B")
    props["k"] = 2
    assert g.nodes[nid] == frozenset({"A"})
    assert g.props[nid] == {"k": 1}


def test_duplicate_and_cross_space_ids_rejected():
    g = small_graph()
    with pytest.raises(InvariantError):
        g.add_node(node_id="n1")
    with pytest.raises(InvariantError):
        g.add_node(node_id="e1")  # ids share one space across nodes and edges
    with pytest.raises(InvariantError):
        g.add_edge("n1", "n2", edge_id="n2")


def test_add_edge_requires_existing_endpoints():
    g = Graph()
    g.add_node(node_id="n1")
    with pytest.raises(EndpointError):
        g.add_edge("n1", "ghost")
    with pytest.raises(EndpointError):
        g.add_edge("ghost", "n1")


def test_self_loops_allowed():
    g = Graph()
    g.add_node(node_id="n1")
    eid = g.add_edge("n1", "n1", {"R"})
    assert g.ends[eid] == ("n1", "n1")


def test_atomic_value_validation():
    assert check_atomic(True) is True
    assert check_atomic(0) == 0
    assert check_atomic(1.5) == 1.5
    assert check_atomic("s") == "s"
    for bad in (None, [1], {"a": 1}, (1,), object()):
        with pytest.raises(FormatError):
            check_atomic(bad)
    g = Graph()
    with pytest.raises(FormatError):
        g.add_node(props={"k": [1, 2]})


def test_remove_node_cascades_to_incident_edges():
    g = small_graph()
    g.remove_object("n1")
    assert "n1" not in g.nodes
    assert "e1" not in g.edges
    assert "n2" in g.nodes


def test_remove_edge_keeps_endpoints():
    g = small_graph()
    g.remove_object("e1")
    assert set(g.nodes) == {"n1", "n2"}
    with pytest.raises(NotFoundError):
        g.remove_object("e1")


def test_prop_mutation_contract():
    g = small_graph()
    g.set_prop("e1", "w", "y")
    assert g.props["e1"]["w"] == "y"
    with pytest.raises(NotFoundError):
        g.set_prop("ghost", "k", 1)


def test_copy_is_independent():
    g = small_graph()
    dup = g.copy()
    dup.set_prop("n1", "k", 99)
    dup.set_prop("e1", "w", "y")
    # label sets are shared and immutable: a change replaces the copy's set
    with pytest.raises(AttributeError):
        dup.nodes["n2"].add("Z")  # type: ignore[attr-defined]
    dup.nodes["n2"] = dup.nodes["n2"] | {"Z"}
    dup.edges["e1"] = frozenset()
    assert g.props["n1"]["k"] == 1 and g.props["e1"]["w"] == "x"
    assert g.nodes["n2"] == frozenset({"B"}) and g.edges["e1"] == frozenset({"R"})
    assert dup.nodes["n2"] == frozenset({"B", "Z"})
    # fresh ids in the copy do not collide with originals
    assert dup.add_node() not in g.nodes
    assert dup.add_edge("n1", "n2") not in g.edges


def test_copy_numbers_on_where_its_original_stood_and_skips_taken_ids():
    g = Graph()
    assert [g.add_node(), g.add_node()] == ["n1", "n2"]
    g.add_node(node_id="n4")
    g.add_node(node_id="e1")  # the id spaces are shared: no edge may take it
    assert g.add_edge("n1", "n2") == "e2"
    dup = g.copy()
    assert [dup.add_node(), dup.add_node()] == ["n3", "n5"]
    assert dup.add_edge("n1", "n2") == "e3"
    assert dup.add_node(node_id="n6") == "n6" and dup.add_node() == "n7"
    # the original's numbering goes on by itself
    assert g.add_node() == "n3" and g.add_edge("n1", "n2") == "e3"


def test_len_counts_nodes_and_edges():
    g = small_graph()
    assert len(g) == 3
    assert "e1" in g.edges and "n1" not in g.edges


def assert_maps_agree(graph: Graph) -> None:
    """The four maps describe one graph: every object has one ``props``
    entry, every edge one ``ends`` entry, no id is both a node and an edge,
    and every end is a node."""
    assert graph.props.keys() == graph.nodes.keys() | graph.edges.keys()
    assert graph.ends.keys() == graph.edges.keys()
    assert not graph.nodes.keys() & graph.edges.keys()
    assert all(src in graph.nodes and tgt in graph.nodes for src, tgt in graph.ends.values())


FIXTURE_NAMES = ("university", "students", "metrics_example", "shipping")


@pytest.mark.parametrize("case", [*FIXTURE_NAMES, *(f"random{seed}" for seed in range(4)),
                                  *(f"multi{seed}" for seed in range(4))])
def test_the_four_maps_agree_after_every_change(case):
    rng = random.Random(case)
    if case in FIXTURE_NAMES:
        graph = fixture_graph(f"{case}.graph.json")
        result = full_normalize(graph, list(fixture_schema(f"{case}.schema.gofd").schema))
    elif case.startswith("multi"):
        graph = random_multi_pass_case(rng)
        result = full_normalize(graph, MULTI_PASS_DEPS)
    else:
        graph, dep = random_satisfying_case(rng)
        result = scoped_normalize(graph, [dep], dep.scope)
    plans = [plan for log in result.logs for plan in log.transformations]
    for checked in (graph, graph.copy(), result.graph, invert(result.graph, plans)):
        assert_maps_agree(checked)
    dup = graph.copy()
    some = next(iter(dup.nodes))
    added = dup.add_node({"Z"}, {"k": 1})
    assert_maps_agree(dup)
    incident = [dup.add_edge(added, some, {"R"}, {"w": 2}), dup.add_edge(some, added),
                dup.add_edge(added, added)]
    assert_maps_agree(dup)
    dup.remove_object(incident[0])
    assert_maps_agree(dup)
    assert incident[0] not in dup.props and incident[1] in dup.props
    dup.remove_object(added)
    assert_maps_agree(dup)
    assert not dup.props.keys() & {added, *incident}
    assert dump_graph(dup) == dump_graph(graph)


def test_the_store_holds_no_tracked_object_per_object():
    # property dicts of atomic values and (src, tgt) pairs of strings are
    # left to the collector to untrack: it walks none of them afterwards
    def assert_untracked(store: Graph) -> None:
        assert store.props and not any(map(gc.is_tracked, store.props.values()))
        assert store.ends and not any(map(gc.is_tracked, store.ends.values()))

    graph = fixture_graph("shipping.graph.json")
    gc.collect()
    assert_untracked(graph)
    result = full_normalize(graph, list(fixture_schema("shipping.schema.gofd").schema))
    gc.collect()
    assert_untracked(graph)
    assert_untracked(result.graph)


# -- serialization ---------------------------------------------------------

def _as_comparable(g: Graph):
    return (
        {nid: (frozenset(labels), dict(g.props[nid])) for nid, labels in g.nodes.items()},
        {eid: (*g.ends[eid], frozenset(labels), dict(g.props[eid]))
         for eid, labels in g.edges.items()},
    )


def test_dict_round_trip_small():
    g = small_graph()
    assert _as_comparable(graph_from_dict(graph_to_dict(g))) == _as_comparable(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_dict_round_trip_random(seed):
    g = random_graph(random.Random(seed))
    assert _as_comparable(graph_from_dict(graph_to_dict(g))) == _as_comparable(g)


def test_dump_is_sorted_and_stable():
    g = Graph()
    g.add_node({"B", "A"}, {"b": 1, "a": 2}, node_id="n2")
    g.add_node(set(), {}, node_id="n1")
    doc = graph_to_dict(g)
    assert [n["id"] for n in doc["nodes"]] == ["n1", "n2"]
    assert doc["nodes"][1]["labels"] == ["A", "B"]
    assert list(doc["nodes"][1]["properties"]) == ["a", "b"]
    assert dump_graph(g) == dump_graph(g.copy())
    assert dump_graph(g).endswith("\n")
    g.set_prop("n1", "k", float("nan"))
    with pytest.raises(ValueError):  # NaN is not JSON
        dump_graph(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_dump_matches_json_dumps_random(seed):
    g = random_graph(random.Random(seed))
    assert dump_graph(g) == oracle_dump_graph(g)


WRITER_STRINGS = ["", "plain", "ünïcødé ✓ 漢字", 'say "hi"', "back\\slash", "tab\tnl\ncr\r",
                  "\x00\x01\x1f\x7f", "  ", "\ud800", "/slash/"]
WRITER_NUMBERS = [0, -1, 2**70, -(2**70), 0.0, -0.0, 1.5, 1e16, 1e-07, 1e300, True, False]


def test_dump_matches_json_dumps_explicit():
    assert dump_graph(Graph()) == oracle_dump_graph(Graph())
    bare = Graph()
    bare.add_node(node_id="n1")
    bare.add_edge("n1", "n1", edge_id="e1")
    assert dump_graph(bare) == oracle_dump_graph(bare)
    g = Graph()
    for i, text in enumerate(WRITER_STRINGS):
        g.add_node({text, "L"}, {text: text, "k": text}, node_id=f"s{i}{text}")
    g.add_node({"N"}, {f"k{i}": value for i, value in enumerate(WRITER_NUMBERS)}, node_id="num")
    for i, value in enumerate(WRITER_NUMBERS):
        g.add_edge("num", "s0", {WRITER_STRINGS[i % len(WRITER_STRINGS)]}, {"w": value},
                   edge_id=f"e{i}")
    text = dump_graph(g)
    assert text == oracle_dump_graph(g)
    for literal in ("-0.0", "1e+16", "1e-07", str(2**70), "true", "false", '"\\u0000'):
        assert literal in text
    for bad in (float("nan"), float("inf"), float("-inf")):
        g.set_prop("num", "k0", bad)
        with pytest.raises(ValueError):
            dump_graph(g)



def test_dump_refuses_what_it_cannot_write_with_the_messages_of_json_dumps():
    g = small_graph()
    for smuggled, name in ((None, "NoneType"), ([1, 2], "list"), ({"a": 1}, "dict")):
        g.props["e1"]["w"] = smuggled  # past the checks of set_prop
        with pytest.raises(TypeError) as info:
            dump_graph(g)
        assert str(info.value) == f"Object of type {name} is not JSON serializable"
    for text in ("nan", "inf", "-inf"):
        g.props["e1"]["w"] = float(text)
        with pytest.raises(ValueError) as info:
            dump_graph(g)
        assert str(info.value) == f"Out of range float values are not JSON compliant: {text}"
    # the first value in file order is named: nodes, then edges, keys sorted
    g.props["n2"].update({"a": float("nan"), "b": None})
    with pytest.raises(ValueError, match="compliant: nan$"):
        dump_graph(g)
    g.props["n1"]["z"] = [1]
    with pytest.raises(TypeError, match="type list"):
        dump_graph(g)


def test_dump_writes_subclass_values_as_json_dumps():
    g = small_graph()
    g.add_node({"S"}, {"e": Level.TWO, "r": Real(-0.0), "s": SameRepr("é\n")}, node_id="n3")
    g.set_prop("e1", "w", Level.ONE)
    assert dump_graph(g) == oracle_dump_graph(g)

ATOMIC_VALUES = st.one_of(
    st.integers(),
    st.integers(min_value=10**308, max_value=10**400),  # beyond float range
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 1, 0.0, -0.0, 1.0, True, False, "1", "true"]),
    st.booleans(),
    st.text(),
)


KEYED_VALUES = st.one_of(
    ATOMIC_VALUES,
    st.sampled_from(TRICKY_VALUES + (float("-inf"),)),
    st.text(st.characters(exclude_categories=())).map(SameRepr),
    st.floats().map(Real),
)


@settings(max_examples=300, deadline=None)
@given(KEYED_VALUES, KEYED_VALUES)
def test_value_key_is_identity_by_json_text(a, b):
    assert value_key(a) == json.dumps(a) and value_key(b) == json.dumps(b)
    assert (value_key(a) == value_key(b)) == (json.dumps(a) == json.dumps(b))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(KEYED_VALUES, KEYED_VALUES), max_size=8),
       st.lists(st.sampled_from([0, 1, 1, 0]), max_size=3))
def test_value_texts_are_the_value_key_of_each_column(rows, columns):
    assert list(value_keys(rows, columns, column_texts)) == [
        tuple(value_key(row[c]) for c in columns) for row in rows]
    for column in (0, 1):  # one exact type per column: the mapped encoder
        for kind in (str, int, float, bool):
            same = [row for row in rows if type(row[column]) is kind]
            assert column_texts(same, column) == [json.dumps(row[column]) for row in same]


# values that Python equality merges or splits where their JSON texts do not
KEY_TRAPS = (1, True, 1.0, "1", 0.0, -0.0, float("nan"), Level.ONE, SameRepr("1"), 0, False, "")
KEY_COLUMNS = st.sampled_from([KEY_TRAPS, (0, 1, 2), (True, False), ("1", "", "a"),
                               (0.0, -0.0, float("nan"))]).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(st.lists(KEY_COLUMNS, min_size=1, max_size=3), st.data())
def test_value_keys_are_equal_exactly_when_the_value_key_tuples_are(columns, data):
    height = min(map(len, columns))
    rows = list(zip(*(column[:height] for column in columns)))
    picked = data.draw(st.lists(st.integers(0, len(columns) - 1), max_size=3))
    keys = list(value_keys(rows, picked))
    texts = [tuple(value_key(row[c]) for c in picked) for row in rows]
    assert len(keys) == len(rows)
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (keys[i] == keys[j]) == (texts[i] == texts[j])
    for column in range(len(columns)):
        kinds = {type(row[column]) for row in rows}
        if len(kinds) == 1 and kinds <= EQUAL_IS_SAME:  # keyed by the values themselves
            assert column_keys(rows, column) == [row[column] for row in rows]


def test_save_and_load_path_and_file(tmp_path):
    g = small_graph()
    target = tmp_path / "g.graph.json"
    save_graph(g, str(target))
    assert _as_comparable(load_graph(str(target))) == _as_comparable(g)
    buffer = io.StringIO()
    save_graph(g, buffer)
    assert _as_comparable(load_graph(io.StringIO(buffer.getvalue()))) == _as_comparable(g)


def test_load_rejects_malformed_json(tmp_path):
    target = tmp_path / "bad.graph.json"
    target.write_text("{nope", encoding="utf-8")
    with pytest.raises(ParseError):
        load_graph(str(target))


def test_float_literals_load_up_to_the_float_range():
    doc = ('{"nodes": [{"id": "n1", "properties": '
           '{"big": 1e308, "small": -1.7976931348623157e308, "tiny": 1e-999}}], "edges": []}')
    props = load_graph(io.StringIO(doc)).props["n1"]
    assert props == {"big": 1e308, "small": -1.7976931348623157e308, "tiny": 0.0}
    for literal in ("1e999", "-1e999", "1.8e308"):
        with pytest.raises(ParseError, match=f"^non-finite number {literal} is not JSON "
                                             "at line 1, column 47$"):
            load_graph(io.StringIO(doc.replace("1e308", literal)))


def test_from_dict_validation():
    with pytest.raises(InvariantError):
        graph_from_dict([])
    with pytest.raises(InvariantError):
        graph_from_dict({"nodes": [], "edges": None})
    dup = {"nodes": [{"id": "a", "labels": [], "properties": {}},
                     {"id": "a", "labels": [], "properties": {}}], "edges": []}
    with pytest.raises(InvariantError):
        graph_from_dict(dup)
    shared = {"nodes": [{"id": "a", "labels": [], "properties": {}}],
              "edges": [{"id": "a", "src": "a", "tgt": "a", "labels": [],
                         "properties": {}}]}
    with pytest.raises(InvariantError):
        graph_from_dict(shared)
    nested = {"nodes": [{"id": "a", "labels": [], "properties": {"k": [1]}}],
              "edges": []}
    with pytest.raises(InvariantError):
        graph_from_dict(nested)


def _node(nid="a", **fields):
    return {"id": nid, "labels": [], "properties": {}, **fields}


def _edge(eid="e", src="a", tgt="a", **fields):
    return {"id": eid, "src": src, "tgt": tgt, "labels": [], "properties": {}, **fields}


def _doc(nodes=(), edges=()):
    return {"nodes": list(nodes), "edges": list(edges)}


# (case, document, error class, message): one row per rule of graph_from_dict
LOADER_ERRORS = [
    ("root-list", [], InvariantError, "document root must be an object"),
    ("root-string", "graph", InvariantError, "document root must be an object"),
    ("nodes-missing", {"edges": []}, InvariantError, '"nodes" must be a list'),
    ("nodes-object", {"nodes": {}, "edges": []}, InvariantError, '"nodes" must be a list'),
    ("edges-missing", {"nodes": []}, InvariantError, '"edges" must be a list'),
    ("edges-null", {"nodes": [], "edges": None}, InvariantError, '"edges" must be a list'),
    ("node-entry", _doc(["a"]), InvariantError, "node entries must be objects"),
    ("edge-entry", _doc([_node()], [["e"]]), InvariantError, "edge entries must be objects"),
    ("node-id-int", _doc([_node(1)]), InvariantError, "node ids must be strings"),
    ("node-id-missing", _doc([{"labels": []}]), InvariantError, "node ids must be strings"),
    ("edge-id-null", _doc([_node()], [_edge(None)]), InvariantError,
     "edge ids must be strings"),
    ("duplicate-node", _doc([_node(), _node()]), InvariantError, "duplicate id: 'a'"),
    ("duplicate-edge", _doc([_node()], [_edge(), _edge()]), InvariantError,
     "duplicate id: 'e'"),
    ("node-and-edge", _doc([_node()], [_edge("a")]), InvariantError, "duplicate id: 'a'"),
    ("node-labels-string", _doc([_node(labels="A")]), InvariantError,
     "labels of 'a' must be a list of strings"),
    ("node-labels-int", _doc([_node(labels=["A", 1])]), InvariantError,
     "labels of 'a' must be a list of strings"),
    ("edge-labels-null", _doc([_node()], [_edge(labels=None)]), InvariantError,
     "labels of 'e' must be a list of strings"),
    ("node-properties-list", _doc([_node(properties=[])]), InvariantError,
     "properties of 'a' must be an object"),
    ("edge-properties-string", _doc([_node()], [_edge(properties="k")]), InvariantError,
     "properties of 'e' must be an object"),
    ("node-null-value", _doc([_node(properties={"k": None})]), InvariantError,
     "property 'k' of 'a' must be an atomic string/number/boolean"),
    ("node-nested-value", _doc([_node(properties={"j": 1, "k": [1]})]), InvariantError,
     "property 'k' of 'a' must be an atomic string/number/boolean"),
    ("edge-nested-value", _doc([_node()], [_edge(properties={"w": {"x": 1}})]),
     InvariantError, "property 'w' of 'e' must be an atomic string/number/boolean"),
    ("edge-null-value", _doc([_node()], [_edge(properties={"w": None})]), InvariantError,
     "property 'w' of 'e' must be an atomic string/number/boolean"),
    ("src-missing", _doc([_node()], [{"id": "e", "tgt": "a"}]), InvariantError,
     "edge 'e' must name src and tgt node ids"),
    ("tgt-missing", _doc([_node()], [{"id": "e", "src": "a"}]), InvariantError,
     "edge 'e' must name src and tgt node ids"),
    ("tgt-int", _doc([_node()], [_edge(tgt=1)]), InvariantError,
     "edge 'e' must name src and tgt node ids"),
    ("src-dangling", _doc([_node()], [_edge(src="ghost")]), InvariantError,
     "dangling endpoint: edge 'e' src 'ghost' is not a node"),
    ("tgt-dangling", _doc([_node()], [_edge(tgt="ghost")]), InvariantError,
     "dangling endpoint: edge 'e' tgt 'ghost' is not a node"),
    ("src-is-edge", _doc([_node()], [_edge("e1"), _edge("e2", src="e1")]), InvariantError,
     "dangling endpoint: edge 'e2' src 'e1' is not a node"),
    # nodes are checked before edges, and an edge's endpoints before its labels
    ("node-before-edge", _doc([_node(labels=7)], [["e"]]), InvariantError,
     "labels of 'a' must be a list of strings"),
    ("endpoint-before-labels", _doc([_node()], [_edge(tgt="ghost", labels=7)]),
     InvariantError, "dangling endpoint: edge 'e' tgt 'ghost' is not a node"),
]


@pytest.mark.parametrize("doc, error, message", [case[1:] for case in LOADER_ERRORS],
                         ids=[case[0] for case in LOADER_ERRORS])
def test_from_dict_error_table(doc, error, message, capsys, tmp_path):
    with pytest.raises(GonormError) as caught:
        graph_from_dict(doc)
    assert type(caught.value) is error and str(caught.value) == message
    path = tmp_path / "bad.graph.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["convert", "--graph", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


# (case, document, message): an entry whose labels or values break a rule,
# after entries whose labels the loader already keeps; the kept sets must
# never let it through
_MANY = [_node(f"n{i}", labels=["A"], properties={"k": i, "s": "v", "b": i % 2 == 0})
         for i in range(300)]
INTERNED_LABEL_TRAPS = [
    ("labels-string-after-list", _doc([_node("a", labels=["A", "B"]), _node("b", labels="AB")]),
     "labels of 'b' must be a list of strings"),
    ("edge-labels-string-after-list", _doc([_node(labels=["R"])], [_edge(labels="R")]),
     "labels of 'e' must be a list of strings"),
    ("labels-holding-list", _doc([_node("a", labels=["A", "B"]),
                                  _node("b", labels=["A", ["B"]])]),
     "labels of 'b' must be a list of strings"),
    ("labels-holding-number", _doc([_node("a", labels=["A", "1"]),
                                    _node("b", labels=["A", 1])]),
     "labels of 'b' must be a list of strings"),
    ("nested-value-after-many", _doc(_MANY + [_node("z", labels=["A"],
                                                    properties={"k": 1, "j": {"x": 1}})]),
     "property 'j' of 'z' must be an atomic string/number/boolean"),
    ("edge-nested-value-after-many",
     _doc(_MANY, [_edge(src="n0", tgt="n1", properties={"w": [1]})]),
     "property 'w' of 'e' must be an atomic string/number/boolean"),
]


@pytest.mark.parametrize("doc, message", [case[1:] for case in INTERNED_LABEL_TRAPS],
                         ids=[case[0] for case in INTERNED_LABEL_TRAPS])
def test_kept_label_sets_skip_no_check(doc, message, capsys, tmp_path):
    with pytest.raises(GonormError) as caught:
        graph_from_dict(doc)
    assert type(caught.value) is InvariantError and str(caught.value) == message
    graph_path, schema_path = tmp_path / "bad.graph.json", tmp_path / "s.gofd"
    graph_path.write_text(json.dumps(doc), encoding="utf-8")
    schema_path.write_text("(x:{A}:{k})::x.k=>x\n", encoding="utf-8")
    assert main(["check", "--graph", str(graph_path), "--schema", str(schema_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_atomic_value_subclasses_still_load():
    class Name(str):
        pass

    graph = graph_from_dict(_doc([_node(labels=[Name("A")], properties={"k": Name("v")})]))
    assert graph.nodes["a"] == frozenset({"A"}) and graph.props["a"] == {"k": "v"}


@pytest.mark.parametrize("stray", ["ghost", "a", 7, None, ["a"]])
def test_node_entries_may_carry_stray_endpoint_fields(stray):
    graph = graph_from_dict(_doc([_node(src=stray, tgt=stray), _node("b", src="a")]))
    assert set(graph.nodes) == {"a", "b"} and graph.ends == {}


def test_from_dict_never_aliases_its_document():
    doc = _doc([_node(properties={"k": 1}), _node("b", labels=["B"])],
               [_edge(properties={"w": "x"})])
    graph = graph_from_dict(doc)
    text = dump_graph(graph)
    entries = doc["nodes"] + doc["edges"]
    assert all(graph.props[entry["id"]] is not entry["properties"] for entry in entries)
    for entry in entries:
        entry["properties"]["k"] = 2
        entry["properties"].pop("w", None)
        entry["labels"].append("X")
    assert dump_graph(graph) == text


def test_equal_label_lists_share_one_set_and_copies_share_it():
    doc = _doc([_node("a", labels=["A", "B"]), _node("b", labels=["A", "B"]),
                _node("c", labels=[]), _node("d")],
               [_edge("e", labels=["A", "B"]), _edge("f", "c", "d")])
    graph = graph_from_dict(doc)
    shared = graph.nodes["a"]
    assert type(shared) is frozenset and shared == {"A", "B"}
    assert graph.nodes["b"] is shared and graph.edges["e"] is shared
    assert graph.nodes["c"] is graph.nodes["d"] is graph.edges["f"]
    dup = graph.copy()
    for labels_of, copied in ((graph.nodes, dup.nodes), (graph.edges, dup.edges)):
        assert all(copied[oid] is labels for oid, labels in labels_of.items())
    assert graph_from_dict(doc).nodes["a"] is not shared  # kept for one call only


def _snapshot(graph: Graph) -> dict:
    return {oid: (labels, frozenset(labels), dict(graph.props[oid]), graph.ends.get(oid))
            for labels_of in (graph.nodes, graph.edges) for oid, labels in labels_of.items()}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_normalizing_leaves_every_input_record_unchanged(name):
    graph = fixture_graph(f"{name}.graph.json")
    before = _snapshot(graph)
    result = full_normalize(graph, list(fixture_schema(f"{name}.schema.gofd").schema))
    after = _snapshot(graph)
    assert after == before
    assert all(after[oid][0] is labels for oid, (labels, *_) in before.items())
    assert dump_graph(result.graph) != dump_graph(graph)


def test_from_dict_dangling_endpoint():
    doc = {"nodes": [{"id": "a", "labels": [], "properties": {}}],
           "edges": [{"id": "e", "src": "a", "tgt": "ghost", "labels": [],
                      "properties": {}}]}
    with pytest.raises((EndpointError, InvariantError)):
        graph_from_dict(doc)


def test_fixture_files_parse(university_graph, students_graph, metrics_graph):
    assert (len(university_graph.nodes), len(university_graph.edges)) == (4, 3)
    assert (len(students_graph.nodes), len(students_graph.edges)) == (5, 5)
    assert (len(metrics_graph.nodes), len(metrics_graph.edges)) == (9, 8)
