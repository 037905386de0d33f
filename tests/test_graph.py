"""Graph store: construction, invariants, and the JSON round trip."""

from __future__ import annotations

import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gonorm import (
    EndpointError,
    FormatError,
    Graph,
    InvariantError,
    NotFoundError,
    ParseError,
    dump_graph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)
from gonorm.graph import check_atomic

from oracles import random_graph


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
    assert all(g.is_node(i) for i in ids)


def test_add_node_copies_labels_and_props():
    labels = {"A"}
    props = {"k": 1}
    g = Graph()
    nid = g.add_node(labels, props)
    labels.add("B")
    props["k"] = 2
    assert g.labels(nid) == frozenset({"A"})
    assert g.props(nid) == {"k": 1}


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
    assert g.edges[eid].src == g.edges[eid].tgt == "n1"


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
    assert g.edges["e1"].props["w"] == "y"
    g.remove_prop("e1", "absent")  # no-op
    g.remove_prop("e1", "w")
    assert g.edges["e1"].props == {}
    with pytest.raises(NotFoundError):
        g.set_prop("ghost", "k", 1)
    with pytest.raises(NotFoundError):
        g.props("ghost")


def test_copy_is_independent():
    g = small_graph()
    dup = g.copy()
    dup.set_prop("n1", "k", 99)
    dup.nodes["n2"].labels.add("Z")
    assert g.nodes["n1"].props["k"] == 1
    assert g.labels("n2") == frozenset({"B"})
    # fresh ids in the copy do not collide with originals
    assert dup.add_node() not in g.nodes


def test_len_and_iter_objects():
    g = small_graph()
    assert len(g) == 3
    assert set(g.iter_objects()) == {"n1", "n2", "e1"}
    assert g.is_edge("e1") and not g.is_edge("n1")


# -- serialization ---------------------------------------------------------

def _as_comparable(g: Graph):
    return (
        {nid: (frozenset(rec.labels), dict(rec.props)) for nid, rec in g.nodes.items()},
        {eid: (rec.src, rec.tgt, frozenset(rec.labels), dict(rec.props))
         for eid, rec in g.edges.items()},
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
