"""Patterns: matching semantics, dominance, renaming, canonical text."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gonorm import (
    ANON_EDGE_VAR,
    Direction,
    EdgeOnlyPattern,
    GonormError,
    Graph,
    NodeEdgePattern,
    NodePattern,
    ObjectVar,
    Pattern,
    PropVar,
    Relation,
    attrs,
    canonicalize,
    edge_pattern,
    evaluate,
    more_general_than,
    node_edge_pattern,
    node_pattern,
    rename_map,
    rename_variable,
    render_pattern,
    scope_key,
    variable_roles,
)
from gonorm.pattern import var_sort_key

from oracles import (
    PATTERN_SHAPES,
    generalize,
    naive_matches,
    projection,
    random_graph,
    random_pattern,
    rows_as_maps,
    specialize,
)


def playground() -> Graph:
    g = Graph()
    g.add_node({"A"}, {"k": 1}, node_id="n1")
    g.add_node({"A", "B"}, {"k": 2, "m": "x"}, node_id="n2")
    g.add_node({"B"}, {}, node_id="n3")
    g.add_edge("n1", "n2", {"R"}, {"w": 5}, edge_id="e1")
    g.add_edge("n2", "n1", {"R", "S"}, {}, edge_id="e2")
    g.add_edge("n3", "n3", {"S"}, {"w": 6}, edge_id="e3")
    return g


# -- constructors and variable bookkeeping ---------------------------------

def test_constructors_freeze_sets():
    p = node_pattern("x", ["A", "A"], ["k"])
    assert p.labels == frozenset({"A"}) and p.keys == frozenset({"k"})
    assert edge_pattern("", {"R"}, ()).var == ANON_EDGE_VAR
    ne = node_edge_pattern("x", {"A"}, (), "", {"R"}, (), Direction.OUT)
    assert ne.edge_var == ANON_EDGE_VAR
    # a node and its edge never share a variable, also not the anonymous one
    for node_var, edge_var in (("x", "x"), (ANON_EDGE_VAR, "")):
        with pytest.raises(GonormError, match="both bind variable"):
            node_edge_pattern(node_var, {"A"}, {"k"}, edge_var, {"R"}, {"k"}, Direction.IN)


def test_attrs_and_roles():
    ne = node_edge_pattern("x", {"A"}, {"k"}, "y", {"R"}, {"w"}, Direction.IN)
    assert attrs(ne) == frozenset({ObjectVar("x"), PropVar("x", "k"),
                                   ObjectVar("y"), PropVar("y", "w")})
    assert variable_roles(ne) == {"x": "node", "y": "edge"}
    assert variable_roles(node_pattern("v")) == {"v": "node"}
    assert variable_roles(edge_pattern("e")) == {"e": "edge"}


def test_rows_are_ordered_by_object_ids():
    assert var_sort_key(ObjectVar("x")) < var_sort_key(PropVar("x", "k"))
    # every value column mixes types, and 10**400 has no float
    g = Graph()
    for nid, k in (("n3", 10**400), ("n1", "a"), ("n2", True), ("n10", 2.5), ("n4", 1)):
        g.add_node({"A"}, {"k": k}, node_id=nid)
    for eid, src, tgt, w in (("e3", "n3", "n2", -0.0), ("e1", "n3", "n1", "b"),
                             ("e2", "n1", "n2", 0), ("e10", "n10", "n4", False)):
        g.add_edge(src, tgt, {"R"}, {"w": w}, edge_id=eid)
    cases = [
        (node_pattern("x", {"A"}, {"k"}), [("n1",), ("n10",), ("n2",), ("n3",), ("n4",)]),
        (edge_pattern("y", {"R"}, {"w"}), [("e1",), ("e10",), ("e2",), ("e3",)]),
        # the node variable z sorts after the edge variable e: edge ids lead
        (node_edge_pattern("z", {"A"}, {"k"}, "e", {"R"}, {"w"}, Direction.OUT),
         [("e1", "n3"), ("e10", "n10"), ("e2", "n1"), ("e3", "n3")]),
    ]
    for pattern, expected in cases:
        relation = evaluate(pattern, g)
        ids = [i for i, var in enumerate(relation.variables) if isinstance(var, ObjectVar)]
        assert [tuple(row[i] for i in ids) for row in relation.rows] == expected
        assert relation.rows == tuple(sorted(relation.rows,
                                             key=lambda row: [row[i] for i in ids]))


# -- evaluation semantics --------------------------------------------------

def test_node_pattern_label_superset_and_keys():
    g = playground()
    rel = evaluate(node_pattern("x", {"A"}, {"k"}), g)
    assert {m[ObjectVar("x")] for m in rows_as_maps(rel)} == {"n1", "n2"}
    rel = evaluate(node_pattern("x", {"A", "B"}, ()), g)
    assert {m[ObjectVar("x")] for m in rows_as_maps(rel)} == {"n2"}
    rel = evaluate(node_pattern("x", (), {"m"}), g)
    assert {m[ObjectVar("x")] for m in rows_as_maps(rel)} == {"n2"}
    row = rows_as_maps(evaluate(node_pattern("x", {"A"}, {"k", "m"}), g))
    assert row == [{ObjectVar("x"): "n2", PropVar("x", "k"): 2, PropVar("x", "m"): "x"}]


def test_edge_only_pattern_matches_each_edge_once():
    g = playground()
    rel = evaluate(edge_pattern("y", {"R"}, ()), g)
    assert {m[ObjectVar("y")] for m in rows_as_maps(rel)} == {"e1", "e2"}
    assert len(rel) == 2  # orientation never duplicates an edge match
    rel = evaluate(edge_pattern("y", {"R", "S"}, ()), g)
    assert {m[ObjectVar("y")] for m in rows_as_maps(rel)} == {"e2"}
    rel = evaluate(edge_pattern("y", (), {"w"}), g)
    assert {m[ObjectVar("y")] for m in rows_as_maps(rel)} == {"e1", "e3"}


def test_node_edge_pattern_direction():
    g = playground()
    out = evaluate(node_edge_pattern("x", {"A"}, (), "y", {"R"}, (), Direction.OUT), g)
    assert {(m[ObjectVar("x")], m[ObjectVar("y")]) for m in rows_as_maps(out)} == \
        {("n1", "e1"), ("n2", "e2")}
    into = evaluate(node_edge_pattern("x", {"A"}, (), "y", {"R"}, (), Direction.IN), g)
    assert {(m[ObjectVar("x")], m[ObjectVar("y")]) for m in rows_as_maps(into)} == \
        {("n2", "e1"), ("n1", "e2")}

    # a self-loop and a pair of parallel edges: each edge is one match per direction
    g.add_edge("n1", "n1", {"R"}, {"w": 7}, edge_id="e4")
    g.add_edge("n1", "n2", {"R"}, {"w": 5}, edge_id="e5")
    for direction in Direction:
        pattern = node_edge_pattern("x", {"A"}, (), "y", {"R"}, {"w"}, direction)
        expected = {frozenset(row.items()) for row in naive_matches(g, pattern)}
        actual = {frozenset(row.items()) for row in rows_as_maps(evaluate(pattern, g))}
        assert actual == expected and len(actual) == 3  # e1, e4, e5 all carry w


def test_rows_follow_variable_order_with_the_edge_family_first():
    g = playground()
    g.set_prop("n1", "k", "n1k")
    g.set_prop("e1", "v", "e1v")
    pattern = node_edge_pattern("x", {"A"}, {"k"}, "", {"R"}, {"v", "w"}, Direction.OUT)
    rel = evaluate(pattern, g)
    assert rel.variables == (ObjectVar(ANON_EDGE_VAR), PropVar(ANON_EDGE_VAR, "v"),
                             PropVar(ANON_EDGE_VAR, "w"), ObjectVar("x"), PropVar("x", "k"))
    assert rel.rows == (("e1", "e1v", 5, "n1", "n1k"),)


def test_node_edge_pattern_self_loop_counts_once_per_row():
    g = playground()
    rel = evaluate(node_edge_pattern("x", {"B"}, (), "y", {"S"}, {"w"}, Direction.OUT), g)
    assert [(m[ObjectVar("x")], m[ObjectVar("y")], m[PropVar("y", "w")])
            for m in rows_as_maps(rel)] == [("n3", "e3", 6)]


def renamed_pattern(rng: random.Random, shape: str) -> Pattern:
    """A random pattern whose edge family sorts before or after its node
    family ("" is the anonymous ``_e``), each with zero, one or several keys."""
    base = random_pattern(rng, shape)
    node_var, edge_var = rng.choice(("m", "x")), rng.choice(("", "a", "y", "z"))
    node_keys = rng.sample(("na", "nb", "nz"), rng.randint(0, 3))
    edge_keys = rng.sample(("ea", "eb", "ez"), rng.randint(0, 3))
    if isinstance(base, NodePattern):
        return node_pattern(node_var, base.labels, node_keys)
    if isinstance(base, EdgeOnlyPattern):
        return edge_pattern(edge_var, base.labels, edge_keys)
    return node_edge_pattern(node_var, base.node_labels, node_keys, edge_var,
                             base.edge_labels, edge_keys, base.direction)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_evaluate_agrees_with_brute_force(seed):
    # one row per match, none repeated, in object-id order; values compared
    # as JSON text, so 1, 1.0 and True stay apart
    rng = random.Random(seed)
    g = random_graph(rng)
    for shape in PATTERN_SHAPES:
        pattern = renamed_pattern(rng, shape)
        relation = evaluate(pattern, g)
        assert relation.variables == tuple(sorted(attrs(pattern), key=var_sort_key))
        ids = [i for i, var in enumerate(relation.variables) if isinstance(var, ObjectVar)]
        keys = [[row[i] for i in ids] for row in relation.rows]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        expected = [tuple(json.dumps(row[var]) for var in relation.variables)
                    for row in naive_matches(g, pattern)]
        actual = [tuple(json.dumps(value) for value in row) for row in relation.rows]
        assert sorted(actual) == sorted(expected)


# -- relations -------------------------------------------------------------

def test_relation_project_and_schema():
    g = Graph()
    for nid, value in (("n1", 1), ("n2", 1), ("n3", 1.0)):
        g.add_node({"A"}, {"k": value}, node_id=nid)
    rel = evaluate(node_pattern("x", {"A"}, {"k"}), g)
    assert frozenset(rel.variables) == frozenset({ObjectVar("x"), PropVar("x", "k")})
    small = projection(rows_as_maps(rel), [PropVar("x", "k")])
    # 1 and 1.0 are two values of the file format: they stay apart
    assert small == {frozenset({(PropVar("x", "k"), "1")}),
                     frozenset({(PropVar("x", "k"), "1.0")})}
    with pytest.raises(KeyError):
        projection(rows_as_maps(rel), [ObjectVar("zz")])


# -- dominance -------------------------------------------------------------

def test_more_general_than_table():
    node_a = node_pattern("x", {"A"}, {"k"})
    node_wide = node_pattern("v", {"A"}, ())
    ne = node_edge_pattern("x", {"A", "B"}, {"k"}, "y", {"R"}, {"w"}, Direction.OUT)
    ne_in = node_edge_pattern("x", {"A", "B"}, {"k"}, "y", {"R"}, {"w"}, Direction.IN)
    edge = edge_pattern("y", {"R"}, ())
    edge_wide = edge_pattern("z", (), ())

    assert more_general_than(node_a, node_a)
    assert more_general_than(node_wide, node_a)
    assert not more_general_than(node_a, node_wide)  # keys grow downward only
    assert more_general_than(node_a, ne)
    assert not more_general_than(ne, node_a)  # an edge requirement never relaxes
    assert more_general_than(ne, ne)
    assert not more_general_than(ne, ne_in)  # orientation must agree
    assert more_general_than(edge_wide, edge)
    assert not more_general_than(edge, node_a)
    assert not more_general_than(node_wide, edge)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_dominance_pairs(seed):
    rng = random.Random(seed)
    specific = random_pattern(rng)
    general = generalize(rng, specific)
    assert more_general_than(general, specific)
    narrowed = specialize(rng, specific)
    assert more_general_than(specific, narrowed)


# -- renaming and canonical text -------------------------------------------

def test_rename_map_is_positional_by_role():
    src = node_edge_pattern("a", {"A"}, {"k"}, "b", {"R"}, (), Direction.OUT)
    dst = node_edge_pattern("x", {"A"}, {"k"}, "y", {"R"}, (), Direction.OUT)
    assert rename_map(src, dst) == {"a": "x", "b": "y"}
    assert rename_map(node_pattern("n"), dst) == {"n": "x"}
    mapping = rename_map(src, dst)
    assert rename_variable(PropVar("a", "k"), mapping) == PropVar("x", "k")
    assert rename_variable(ObjectVar("b"), mapping) == ObjectVar("y")
    assert rename_variable(ObjectVar("other"), mapping) == ObjectVar("other")


def test_canonicalize_and_scope_key_ignore_variable_names():
    p = node_edge_pattern("course", {"A"}, {"k"}, "t", {"R"}, (), Direction.IN)
    q = node_edge_pattern("x", {"A"}, {"k"}, "y", {"R"}, (), Direction.IN)
    assert canonicalize(p) == q
    assert scope_key(p) == scope_key(q)
    assert scope_key(p) != scope_key(
        node_edge_pattern("x", {"A"}, {"k"}, "y", {"R"}, (), Direction.OUT))


def test_render_pattern_exact_forms():
    assert render_pattern(node_pattern("x", {"B", "A"}, {"b", "a"})) == "(x:{A,B}:{a,b})"
    assert render_pattern(edge_pattern("", {"R"}, ())) == "()-[:{R}:{}]->()"
    assert render_pattern(edge_pattern("y", {"R"}, {"k"})) == "()-[y:{R}:{k}]->()"
    out = node_edge_pattern("x", {"A"}, (), "y", {"R"}, (), Direction.OUT)
    assert render_pattern(out) == "(x:{A}:{})-[y:{R}:{}]->()"
    into = node_edge_pattern("x", {"A"}, (), "y", {"R"}, (), Direction.IN)
    assert render_pattern(into) == "()-[y:{R}:{}]->(x:{A}:{})"
