"""Redundancy metrics: graph shape, dependency profiles, report layout."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gonorm import (
    Direction,
    Graph,
    ObjectVar,
    PropVar,
    attrs,
    build_report,
    edge_pattern,
    gofd,
    node_edge_pattern,
    node_pattern,
    per_graph_metrics,
    profile,
    redundancy_potentials,
    schema_counts,
    two_decimals,
)

from gonorm.graph import value_key

from conftest import REPR_TRAPS, VALUE_POOLS, fixture_graph, fixture_schema, runs_of
from oracles import (
    PATTERN_SHAPES,
    oracle_group_sizes,
    oracle_potentials,
    random_graph,
    random_pattern,
)


def pv(name: str, key: str) -> PropVar:
    return PropVar(name, key)


# -- graph shape -----------------------------------------------------------

def test_per_graph_metrics_on_fixtures():
    uni = per_graph_metrics(fixture_graph("university.graph.json"))
    assert (uni.node_count, uni.edge_count) == (4, 3)
    assert uni.avg_node_props == Fraction(5, 4)
    assert uni.avg_edge_props == Fraction(2)
    stu = per_graph_metrics(fixture_graph("students.graph.json"))
    assert (stu.node_count, stu.edge_count) == (5, 5)
    assert stu.avg_node_props == Fraction(11, 5)
    assert stu.avg_edge_props == Fraction(4, 5)


def test_per_graph_metrics_empty_graph():
    m = per_graph_metrics(Graph())
    assert m == per_graph_metrics(Graph())
    assert (m.node_count, m.edge_count) == (0, 0)
    assert m.avg_node_props == Fraction(0) and m.avg_edge_props == Fraction(0)


# -- per-dependency profiles -----------------------------------------------

def test_profile_of_the_eight_match_example():
    g = fixture_graph("metrics_example.graph.json")
    doc = fixture_schema("metrics_example.schema.gofd")
    dep = doc.schema.deps[0]
    prof = profile(g, dep)
    assert prof.group_sizes == (2, 2, 3, 1)
    assert prof.maximum == 3
    assert prof.average == Fraction(2)
    assert prof.minimality == Fraction(3, 7)
    assert not prof.empty
    assert sorted(prof.group_sizes) == oracle_potentials(g, dep)


def test_profile_groups_by_object_identity_when_asked():
    g = Graph()
    g.add_node({"P"}, {}, node_id="p1")
    g.add_node({"P"}, {}, node_id="p2")
    g.add_node({"T"}, {}, node_id="t")
    for i, src in enumerate(["p1", "p1", "p2", "p2"]):
        g.add_edge(src, "t", {"R"}, {"w": 5}, edge_id=f"e{i}")
    scope = node_edge_pattern("x", {"P"}, (), "y", {"R"}, {"w"}, Direction.OUT)
    by_id = profile(g, gofd(scope, [ObjectVar("x")], [pv("y", "w")]))
    assert sorted(by_id.group_sizes) == [2, 2]  # split by the two source nodes
    by_value = profile(g, gofd(edge_pattern("y", {"R"}, {"w"}),
                               [pv("y", "w")], [pv("y", "w")]))
    assert by_value.group_sizes == (4,)


def test_profile_keeps_values_that_python_equality_merges_apart():
    g = Graph()
    for i, k in enumerate([True, 1, 1.0, 1, -0.0, 0.0]):
        g.add_node({"A"}, {"k": k}, node_id=f"n{i}")
    prof = profile(g, gofd(node_pattern("x", {"A"}, {"k"}), [pv("x", "k")], [pv("x", "k")]))
    # groups in the order of their JSON texts: [-0.0], [0.0], [1.0], [1], [true]
    assert prof.group_sizes == (1, 1, 1, 2, 1)
    assert prof.minimality == Fraction(4, 5)


def test_profile_edge_cases():
    g = Graph()
    prof = profile(g, gofd(node_pattern("x", {"A"}, {"k"}),
                           [pv("x", "k")], [pv("x", "k")]))
    assert prof.empty and prof.group_sizes == ()
    assert prof.minimality == Fraction(1) and prof.average == Fraction(0)
    g.add_node({"A"}, {"k": 1})
    single = profile(g, gofd(node_pattern("x", {"A"}, {"k"}),
                             [pv("x", "k")], [pv("x", "k")]))
    assert single.group_sizes == (1,) and single.minimality == Fraction(1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_profile_group_sizes_agree_with_oracle(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    scope = random_pattern(rng)
    pool = sorted(attrs(scope), key=lambda v: (v.name, getattr(v, "key", "")))
    lhs = rng.sample(pool, rng.randint(1, min(2, len(pool))))
    rhs = rng.sample(pool, 1)
    dep = gofd(scope, lhs, rhs)
    assert sorted(profile(g, dep).group_sizes) == oracle_potentials(g, dep)


def dep_of_shape(rng: random.Random, shape: str):
    scope = random_pattern(rng, shape)
    pool = sorted(attrs(scope), key=lambda v: (v.name, getattr(v, "key", "")))
    lhs = rng.sample(pool, rng.randint(0, min(2, len(pool))))
    rhs = rng.sample(pool, rng.randint(0, 1))
    return gofd(scope, lhs, rhs)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), VALUE_POOLS)
@example(64, REPR_TRAPS)  # an edge and a node scope that repr keys get wrong
@example(83, REPR_TRAPS)
def test_profile_groups_follow_the_json_order_of_their_values(seed, values):
    rng = random.Random(seed)
    graph = random_graph(rng, values=values)
    for shape in PATTERN_SHAPES:
        dep = dep_of_shape(rng, shape)
        assert list(profile(graph, dep).group_sizes) == oracle_group_sizes(graph, dep)


@pytest.mark.parametrize("values", [(1, True, "a", "é", 10**20), (1.5, -0.0, 0.0, 1e16)],
                         ids=["mixed", "finite-floats"])
def test_profile_makes_no_python_call_per_value(values):
    graph = random_graph(random.Random(11), values=values)
    for shape in PATTERN_SHAPES:
        dep = dep_of_shape(random.Random(shape), shape)
        with runs_of(value_key, json.dumps) as (keyed, dumped):
            sizes = profile(graph, dep).group_sizes
        assert keyed == [] and dumped == []
        assert list(sizes) == oracle_group_sizes(graph, dep)


def test_redundancy_potentials_preserves_schema_order():
    g = fixture_graph("university.graph.json")
    a = gofd(node_pattern("x", {"Course"}, {"title"}),
             [pv("x", "title")], [pv("x", "title")])
    b = gofd(node_pattern("x", {"Lecturer"}, {"name"}),
             [pv("x", "name")], [pv("x", "name")])
    pairs = redundancy_potentials(g, [a, b])
    assert [dep for dep, _ in pairs] == [a, b]
    assert [sorted(prof.group_sizes) for _, prof in pairs] == [[1], [1, 1, 1]]


# -- schema composition ----------------------------------------------------

def test_schema_counts_by_dependency_class():
    node_scope = node_pattern("x", {"A"}, {"a", "b"})
    ne = node_edge_pattern("x", {"A"}, {"a"}, "y", {"R"}, {"w"}, Direction.OUT)
    deps = [
        gofd(node_scope, [pv("x", "a")], [pv("x", "b")]),        # within node
        gofd(ne, [pv("x", "a")], [ObjectVar("x")]),              # within node
        gofd(edge_pattern("y", {"R"}, {"u", "v"}),
             [pv("y", "u")], [pv("y", "v")]),                    # within edge
        gofd(ne, [pv("x", "a")], [pv("y", "w")]),                # between
    ]
    counts = schema_counts(deps)
    assert (counts.total, counts.within_node,
            counts.within_edge, counts.between) == (4, 2, 1, 1)
    assert schema_counts([]).total == 0


# -- rounding --------------------------------------------------------------

def test_two_decimals_rounds_half_up():
    assert two_decimals(Fraction(3, 7)) == 0.43
    assert two_decimals(Fraction(1, 8)) == 0.13   # 0.125 goes up, not to even
    assert two_decimals(Fraction(1, 40)) == 0.03  # 0.025 likewise
    assert two_decimals(Fraction(1, 3)) == 0.33
    assert two_decimals(Fraction(5, 4)) == 1.25
    assert two_decimals(2) == 2.0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4000), st.integers(1, 97))
def test_two_decimals_matches_arithmetic_definition(num, den):
    value = Fraction(num, den)
    expected = Fraction(math.floor(value * 100 + Fraction(1, 2)), 100)
    assert two_decimals(value) == float(expected)


# -- the JSON report -------------------------------------------------------

def test_build_report_layout_on_university_fixture():
    g = fixture_graph("university.graph.json")
    doc = fixture_schema("university.schema.gofd")
    report = build_report(g, doc.schema)
    assert report == {
        "graph": {"nodeCount": 4, "edgeCount": 3,
                  "avgNodePropCount": 1.25, "avgEdgePropCount": 2.0},
        "schema": {"total": 1, "withinNode": 0, "withinEdge": 0, "between": 1},
        "perDependency": [{
            "gofd": "()-[t:{TEACHES}:{usingBook}]->(c:{Course}:{})::c=>t.usingBook",
            "M": [3], "max": 3, "avg": 3.0, "minimality": 0.0,
        }],
    }
    json.dumps(report)  # must be serializable as-is


def test_build_report_marks_empty_scopes():
    g = fixture_graph("university.graph.json")
    ghost = gofd(node_pattern("x", {"Ghost"}, {"k"}),
                 [pv("x", "k")], [pv("x", "k")])
    entry = build_report(g, [ghost])["perDependency"][0]
    assert entry["empty"] is True and entry["M"] == []
    assert entry["minimality"] == 1.0
