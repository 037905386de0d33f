"""Transformation planning, deterministic naming, execution, losslessness."""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gonorm import (
    Direction,
    EndpointError,
    FormatError,
    GonormError,
    Graph,
    InvariantError,
    NonStrict,
    ObjectVar,
    PropVar,
    TransformationKind,
    UnboundVariable,
    UnsatisfiedDependency,
    build_plans,
    dump_graph,
    edge_pattern,
    evaluate,
    execute_plans,
    full_normalize,
    gofd,
    invert,
    match_redundancy_pattern,
    node_edge_pattern,
    node_pattern,
    attrs,
    satisfies,
    scoped_normalize,
    skolem_label,
    verify_lossless,
)
from gonorm.graph import value_key
from gonorm.pattern import NodeEdgePattern, var_sort_key
from gonorm.transform import (
    DelEdge,
    MoveProp,
    NewEdge,
    NewNode,
    Transformation,
    created_edge_id,
    op_to_dict,
    reification_prefix,
    reifier_id,
)

import gonorm
from conftest import FIXTURES, TRICKY_VALUES, fixture_graph, fixture_schema, runs_of
from oracles import (
    CASE_KINDS,
    LHS_POOL,
    MULTI_PASS_DEPS,
    oracle_build_plans,
    oracle_execute,
    oracle_skolem_node_id,
    random_graph,
    random_multi_pass_case,
    random_satisfying_case,
)


def pv(name: str, key: str) -> PropVar:
    return PropVar(name, key)


def normalize_one(graph: Graph, dep):
    """The graph and the plans of normalizing ``dep``'s scope by ``dep`` alone,
    none of whose parts may be kept as not transformable."""
    result = scoped_normalize(graph, [dep], dep.scope)
    (log,) = result.logs
    assert log.warnings == []
    return result.graph, log.transformations


PERSON = node_pattern("x", {"Person"}, {"city", "zip"})
NE = node_edge_pattern("x", {"Person"}, {"city"}, "y", {"R"}, {"w"}, Direction.OUT)
EDGE = edge_pattern("y", {"R"}, {"u", "v"})


# -- shape classification --------------------------------------------------

def test_redundancy_shape_table():
    assert match_redundancy_pattern(
        gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])) is TransformationKind.WITHIN_N
    assert match_redundancy_pattern(
        gofd(EDGE, [pv("y", "u")], [pv("y", "v")])) is TransformationKind.WITHIN_E
    assert match_redundancy_pattern(
        gofd(NE, [ObjectVar("x")], [pv("y", "w")])) is TransformationKind.BETWEEN_N_EP
    assert match_redundancy_pattern(
        gofd(NE, [pv("x", "city")], [pv("y", "w")])) is TransformationKind.BETWEEN_NP_EP
    assert match_redundancy_pattern(
        gofd(NE, [pv("y", "w")], [pv("x", "city")])) is TransformationKind.BETWEEN_EP_NP
    assert match_redundancy_pattern(
        gofd(NE, [pv("y", "w")], [ObjectVar("x")])) is TransformationKind.BETWEEN_EP_N


def test_shapes_without_removable_redundancy():
    none = TransformationKind.NO_REDUNDANCY
    assert match_redundancy_pattern(
        gofd(PERSON, [pv("x", "city")], [pv("x", "city")])) is none  # trivial
    assert match_redundancy_pattern(
        gofd(PERSON, [pv("x", "city")], [ObjectVar("x")])) is none  # key dep
    assert match_redundancy_pattern(
        gofd(PERSON, [ObjectVar("x")], [pv("x", "city")])) is none  # structural
    assert match_redundancy_pattern(
        gofd(NE, [ObjectVar("y")], [ObjectVar("x")])) is none  # endpoint rule
    assert match_redundancy_pattern(
        gofd(NE, [ObjectVar("x")], [ObjectVar("y")])) is none  # cardinality


def test_shape_rejects_non_strict_descriptors():
    with pytest.raises(NonStrict):
        match_redundancy_pattern(gofd(NE, [pv("x", "city"), pv("y", "w")],
                                      [ObjectVar("x")]))
    with pytest.raises(NonStrict):
        match_redundancy_pattern(gofd(NE, [], [pv("y", "w")]))
    with pytest.raises(UnboundVariable):
        match_redundancy_pattern(gofd(PERSON, [pv("x", "nope")], [pv("x", "zip")]))


# -- deterministic names ---------------------------------------------------

def test_skolem_names_exact():
    assert skolem_label({"b", "A"}, {"k2", "k1"}) == "Sk_ABK1K2"
    assert skolem_label({"Person"}, {"city"}) == "Sk_PersonCity"
    assert (oracle_skolem_node_id("val", {"Person"}, [("city", "Rome")])
            == 'sk:val|Person|city="Rome"')
    assert oracle_skolem_node_id("val", {"A"}, [("k", 1)]) == "sk:val|A|k=1"
    assert oracle_skolem_node_id("val", {"B", "A"}, [("b", 2), ("a", 1)]) == "sk:val|A,B|a=1,b=2"
    assert reifier_id("e4") == 'sk:reif||edge="e4"'
    assert created_edge_id("L", "n1", "n2") == "ske:L|n1|n2"
    assert reification_prefix({"S", "R"}) == "R_S"
    assert reification_prefix(()) == "edge"


class Text(str):
    pass


TRICKY_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=())),  # lone surrogates and control characters too
    st.text(st.sampled_from('"\\\x00\x1f\x7f\ud800\udfffé€\U0001d11e/ |=,')),
)
SKOLEM_VALUES = st.one_of(
    TRICKY_TEXT, TRICKY_TEXT.map(Text), st.booleans(), st.integers(),
    st.integers(2**64, 2**200), st.integers(-2**200, -2**64),
    st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1.0, -1.5e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(st.sets(TRICKY_TEXT, max_size=3),
       st.lists(TRICKY_TEXT.filter(lambda key: key != "out"), min_size=1, max_size=3, unique=True),
       st.lists(st.lists(SKOLEM_VALUES, min_size=3, max_size=3), min_size=1, max_size=4),
       st.one_of(TRICKY_TEXT, TRICKY_TEXT.map(Text)))
def test_skolem_ids_write_values_as_json_dumps(labels, keys, values, edge_id):
    # the planner names each object's value node from its left-side values
    g = Graph()
    for i, row in enumerate(values):
        g.add_node(labels, {**dict(zip(keys, row)), "out": 0}, node_id=f"o{i}")
    dep = gofd(node_pattern("x", labels, [*keys, "out"]), [pv("x", k) for k in keys],
               [pv("x", "out")])
    (plan,), leftovers = build_plans(g, [dep])
    assert leftovers == []
    expected = {f"o{i}": oracle_skolem_node_id("val", labels, zip(keys, row))
                for i, row in enumerate(values)}
    assert {op.src: op.tgt for op in plan.ops if isinstance(op, NewEdge)} == expected
    assert {op.node for op in plan.ops if isinstance(op, NewNode)} == set(expected.values())
    assert reifier_id(edge_id) == oracle_skolem_node_id("reif", (), [("edge", edge_id)])


def test_op_to_dict_frozen_layout():
    assert op_to_dict(("new-node", "v", ("L",))) == {
        "op": "new-node", "id": "v", "labels": ["L"], "props": {}}
    assert op_to_dict(("new-edge", "e", "a", "b", ("L",))) == {
        "op": "new-edge", "id": "e", "src": "a", "tgt": "b", "labels": ["L"]}
    assert op_to_dict(("move-prop", "a", "k", "v", 3)) == {
        "op": "move-prop", "from": "a", "key": "k", "to": "v", "value": 3}
    assert op_to_dict(("del-edge", "e")) == {"op": "del-edge", "id": "e"}


def test_a_plan_takes_rows_and_reads_them_as_named_tuples():
    rows = [("new-node", "v", ("L",)), ("move-prop", "p1", "zip", "v", 1)]
    plan = Transformation(gofd(PERSON, [pv("x", "city")], [pv("x", "zip")]),
                          TransformationKind.WITHIN_N, 1, rows)
    assert plan.rows == rows
    assert plan.ops == [NewNode("v", ("L",)), MoveProp("p1", "zip", "v", 1)]
    assert list(map(type, plan.ops)) == [NewNode, MoveProp]
    out = execute_plans(person_graph(), [plan])
    assert out.nodes["v"] == {"L"} and out.props["v"] == {"zip": 1}
    assert out.props["p1"] == {"city": "Rome"}


# -- planning --------------------------------------------------------------

def person_graph() -> Graph:
    g = Graph()
    g.add_node({"Person"}, {"city": "Rome", "zip": 100}, node_id="p1")
    g.add_node({"Person"}, {"city": "Rome", "zip": 100}, node_id="p2")
    g.add_node({"Person"}, {"city": "Oslo", "zip": 200}, node_id="p3")
    return g


def test_build_plans_requires_single_rhs_and_lists_leftovers():
    g = person_graph()
    wide = node_pattern("x", {"Person"}, {"city", "zip", "age"})  # raises before matching
    with pytest.raises(ValueError, match="one right-side variable"):
        build_plans(g, [gofd(wide, [pv("x", "city")], [pv("x", "zip"), pv("x", "age")])])
    no_shape = gofd(PERSON, [pv("x", "city")], [pv("x", "zip"), ObjectVar("x")])
    key_dep = gofd(PERSON, [pv("x", "city")], [ObjectVar("x")])
    ghost = gofd(node_pattern("x", {"Ghost"}, {"city", "zip"}),
                 [pv("x", "city")], [pv("x", "zip")])
    real = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    plans, leftovers = build_plans(g, [no_shape, ghost, real, key_dep])
    assert [plan.dependency for plan in plans] == [real]
    none, within_n = TransformationKind.NO_REDUNDANCY, TransformationKind.WITHIN_N
    assert leftovers == [(no_shape, none), (ghost, within_n), (key_dep, none)]


def test_build_plans_within_node_plan_shape():
    g = person_graph()
    (plan,), leftovers = build_plans(g, [gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])])
    assert leftovers == []
    assert plan.kind is TransformationKind.WITHIN_N
    assert plan.match_count == 3
    assert plan.key_dependency.scope.labels == {"Sk_PersonCity"}
    assert plan.key_dependency.render() == "(x:{Sk_PersonCity}:{city,zip})::x.city=>x"
    new_nodes = {op.node for op in plan.ops if isinstance(op, NewNode)}
    assert new_nodes == {'sk:val|Person|city="Rome"', 'sk:val|Person|city="Oslo"'}
    moved_off = {(row[1], row[2]) for row in plan.rows if row[0] == "move-prop"}
    assert moved_off == set(product(("p1", "p2", "p3"), ("city", "zip")))
    assert plan.deleted_edges == frozenset()
    doc = plan.to_dict()
    assert set(doc) == {"dependency", "kind", "matches", "ops", "keyDependency"}
    assert doc["kind"] == "within-n" and doc["matches"] == 3


MEMO_VALUES = (1, 1.0, True, 0.0, -0.0)  # equal in Python, apart as JSON text


@pytest.mark.parametrize("edge_only", [False, True], ids=["within-n", "edge-only"])
def test_value_node_names_keep_apart_equal_but_distinct_values(edge_only):
    var, label = ("y", "R") if edge_only else ("x", "C")
    scope = (edge_pattern if edge_only else node_pattern)(var, {label}, {"k", "v"})
    dep = gofd(scope, [pv(var, "k")], [pv(var, "v")])

    def holding(objects: dict[str, dict]) -> Graph:
        g = Graph()
        if edge_only:
            g.add_node(node_id="a")
            g.add_node(node_id="b")
        for oid, props in objects.items():
            if edge_only:
                g.add_edge("a", "b", {label}, props, edge_id=oid)
            else:
                g.add_node({label}, props, node_id=oid)
        return g

    # each value on two objects, so that rows share a value node
    objects = {f"o{i}": {"k": value, "v": "p" if i % 5 < 3 else "q"}
               for i, value in enumerate(MEMO_VALUES * 2)}
    (plan,), _ = build_plans(holding(objects), [dep])
    labels = tuple(plan.key_dependency.scope.labels)
    value_nodes = {op.node for op in plan.ops if isinstance(op, NewNode) and op.labels == labels}
    assert value_nodes == {oracle_skolem_node_id("val", {label}, [("k", value)])
                           for value in MEMO_VALUES}
    assert len(value_nodes) == 5

    # the same ops, planned one object at a time, so that no name is shared
    relation = evaluate(scope, holding(objects))
    column = relation.variables.index(ObjectVar(var))
    expected: list = []
    for row in relation.rows:
        (alone,), _ = build_plans(holding({row[column]: objects[row[column]]}), [dep])
        expected += [op for op in alone.ops if op not in expected]
    assert plan.ops == expected


def test_within_node_execution_moves_values_once():
    g = person_graph()
    dep = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    out, plans = normalize_one(g, dep)
    assert len(plans) == 1
    rome = 'sk:val|Person|city="Rome"'
    oslo = 'sk:val|Person|city="Oslo"'
    assert out.props[rome] == {"city": "Rome", "zip": 100}
    assert out.props[oslo] == {"city": "Oslo", "zip": 200}
    assert out.nodes[rome] == frozenset({"Sk_PersonCity"})
    for nid in ("p1", "p2", "p3"):
        assert out.props[nid] == {}
    assert out.ends[created_edge_id("Sk_PersonCity", "p1", rome)][1] == rome
    assert out.ends[created_edge_id("Sk_PersonCity", "p3", oslo)][1] == oslo
    assert len(out.nodes) == 5 and len(out.edges) == 3
    assert verify_lossless(g, out, plans[0])
    assert satisfies(out, plans[0].key_dependency).holds


def edge_graph() -> Graph:
    g = Graph()
    g.add_node({"T"}, {}, node_id="a")
    g.add_node({"T"}, {}, node_id="b")
    g.add_edge("a", "b", {"R"}, {"u": 1, "v": 2, "note": "keep"}, edge_id="e1")
    g.add_edge("b", "a", {"R"}, {"u": 1, "v": 2}, edge_id="e2")
    return g


def test_within_edge_execution_reifies_and_migrates_leftovers():
    g = edge_graph()
    dep = gofd(EDGE, [pv("y", "u")], [pv("y", "v")])
    out, plans = normalize_one(g, dep)
    assert plans[0].deleted_edges == {"e1", "e2"}
    r1, r2 = reifier_id("e1"), reifier_id("e2")
    val = "sk:val|R|u=1"
    assert out.props[val] == {"u": 1, "v": 2}
    assert out.nodes[val] == frozenset({"Sk_RU"})
    assert out.nodes[r1] == frozenset({"R"})
    # unclaimed edge property survives on the reifier node
    assert out.props[r1] == {"note": "keep"}
    assert out.props[r2] == {}
    assert "e1" not in out.edges and "e2" not in out.edges
    assert out.edges[created_edge_id("R_src", "a", r1)] == {"R_src"}
    assert out.ends[created_edge_id("R_tgt", r1, "b")][1] == "b"
    assert out.edges[created_edge_id("R_det", r1, val)] == {"R_det"}
    assert verify_lossless(g, out, plans[0])


def ne_graph(w1=5, w2=5) -> Graph:
    g = Graph()
    g.add_node({"Person"}, {"city": "Rome"}, node_id="p1")
    g.add_node({"T"}, {}, node_id="t1")
    g.add_node({"T"}, {}, node_id="t2")
    g.add_edge("p1", "t1", {"R"}, {"w": w1}, edge_id="e1")
    g.add_edge("p1", "t2", {"R"}, {"w": w2}, edge_id="e2")
    return g


def test_between_node_edge_prop_moves_onto_node():
    g = ne_graph()
    dep = gofd(NE, [ObjectVar("x")], [pv("y", "w")])
    out, plans = normalize_one(g, dep)
    assert plans[0].kind is TransformationKind.BETWEEN_N_EP
    assert "new-node" not in {row[0] for row in plans[0].rows}
    assert plans[0].key_dependency is None
    assert out.props["p1"] == {"city": "Rome", "w": 5}
    assert out.props["e1"] == {} and out.props["e2"] == {}
    assert set(out.edges) == {"e1", "e2"}  # nothing reified
    assert verify_lossless(g, out, plans[0])


def test_between_node_prop_edge_prop_shares_value_node():
    g = ne_graph()
    dep = gofd(NE, [pv("x", "city")], [pv("y", "w")])
    out, plans = normalize_one(g, dep)
    assert plans[0].kind is TransformationKind.BETWEEN_NP_EP
    val = 'sk:val|Person|city="Rome"'
    assert out.props[val] == {"city": "Rome", "w": 5}
    assert out.props["p1"] == {}
    assert out.props["e1"] == {} and "e1" in out.edges
    assert out.ends[created_edge_id("Sk_PersonCity", "p1", val)][0] == "p1"
    assert verify_lossless(g, out, plans[0])


def test_between_edge_prop_node_prop_reifies_the_edge():
    g = ne_graph()
    dep = gofd(NE, [pv("y", "w")], [pv("x", "city")])
    out, plans = normalize_one(g, dep)
    assert plans[0].kind is TransformationKind.BETWEEN_EP_NP
    val = "sk:val|R|w=5"
    assert out.props[val] == {"w": 5, "city": "Rome"}
    assert out.props["p1"] == {}
    r1 = reifier_id("e1")
    assert "e1" not in out.edges and r1 in out.nodes
    assert out.ends[created_edge_id("R_det", r1, val)][1] == val
    assert verify_lossless(g, out, plans[0])


def test_between_edge_prop_node_id_keeps_endpoint_recoverable():
    g = ne_graph()
    dep = gofd(NE, [pv("y", "w")], [ObjectVar("x")])
    out, plans = normalize_one(g, dep)
    assert plans[0].kind is TransformationKind.BETWEEN_EP_N
    val = "sk:val|R|w=5"
    assert out.props[val] == {"w": 5}
    assert plans[0].key_dependency.render() == "(x:{Sk_RW}:{w})::x.w=>x"
    assert verify_lossless(g, out, plans[0])


def test_split_right_sides_merge_on_one_value_node():
    g = person_graph()
    wide = node_pattern("x", {"Person"}, {"city", "zip", "area"})
    for nid, area in (("p1", "EU"), ("p2", "EU"), ("p3", "EU")):
        g.set_prop(nid, "area", area)
    dep = gofd(wide, [pv("x", "city")], [pv("x", "zip"), pv("x", "area")])
    out, plans = normalize_one(g, dep)
    assert len(plans) == 2  # one per right-side variable
    rome = 'sk:val|Person|city="Rome"'
    assert out.props[rome] == {"city": "Rome", "zip": 100, "area": "EU"}
    assert len([n for n in out.nodes if n.startswith("sk:val|")]) == 2
    for plan in plans:
        others = [p for p in plans if p is not plan]
        assert verify_lossless(g, out, plan, others)


# -- executor safety -------------------------------------------------------

def test_normalize_refuses_violated_dependency_untouched():
    g = person_graph()
    g.set_prop("p2", "zip", 999)  # now city does not determine zip
    frozen = dump_graph(g)
    with pytest.raises(UnsatisfiedDependency):
        normalize_one(g, gofd(PERSON, [pv("x", "city")], [pv("x", "zip")]))
    assert dump_graph(g) == frozen


def test_executor_detects_conflicting_assignments():
    g = person_graph()
    dep = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    # all but the first pair are equal in Python, not as JSON text
    for first, second in ((100, 200), (100, 100.0), (1, True), (0.0, -0.0)):
        bad = Transformation(dep, TransformationKind.WITHIN_N, 2,
                             [("new-node", "v", ("L",)), ("move-prop", "p1", "zip", "v", first),
                              ("move-prop", "p3", "zip", "v", second)])
        with pytest.raises(InvariantError, match="conflicting values"):
            execute_plans(g, [bad])
    # the same source and slot in two plans: two ops, though == merges them
    for first, second in ((1, True), (100, 100.0), (0.0, -0.0)):
        plans = [Transformation(dep, TransformationKind.WITHIN_N, 1,
                                [("new-node", "v", ("L",)), ("move-prop", "p1", "zip", "v", value)])
                 for value in (first, second)]
        with pytest.raises(InvariantError, match="conflicting values"):
            execute_plans(g, plans)


def test_executor_keys_each_moved_value_once():
    g = Graph()
    for i in range(6):
        g.add_node({"P"}, {"city": "Rome", "zip": 100}, node_id=f"p{i}")
    dep = gofd(node_pattern("x", {"P"}, {"city", "zip"}), [pv("x", "city")], [pv("x", "zip")])
    (plan,), _ = build_plans(g, [dep])
    moves = [op for op in plan.ops if isinstance(op, MoveProp)]
    assert len(moves) == 12 and len({(op.target, op.key) for op in moves}) == 2
    with runs_of(value_key) as (keyed,):
        out = execute_plans(g, [plan])
    assert keyed == []  # equal values of one exact str or int type need no key
    assert out.props['sk:val|P|city="Rome"'] == {"city": "Rome", "zip": 100}


def test_plans_of_two_left_sides_run_each_op_object_once():
    # two left sides on one edge-only scope: both sweeps reify every edge, so
    # the a-plans share one sweep and the b-plan has its own, whose equal
    # reification rows run again and change nothing
    g = Graph()
    for nid in ("n1", "n2"):
        g.add_node({"A"}, node_id=nid)
    g.add_edge("n1", "n2", {"R"}, {"a": 1, "b": "x", "c": 5, "d": 7}, edge_id="e1")
    g.add_edge("n2", "n1", {"R"}, {"a": True, "b": "x", "c": 5, "d": 8}, edge_id="e2")
    scope = edge_pattern("y", {"R"}, {"a", "b", "c", "d"})
    deps = [gofd(scope, [pv("y", lhs)], [pv("y", rhs)])
            for lhs, rhs in (("a", "c"), ("a", "d"), ("b", "c"))]
    plans, leftovers = build_plans(g, deps)
    assert leftovers == [] and len(plans) == 3
    assert all([op for op in plan.ops if isinstance(op, DelEdge)] ==
               [DelEdge("e1"), DelEdge("e2")] for plan in plans)
    dels = [[row for row in plan.rows if row[0] == "del-edge"] for plan in plans]
    assert dels[0] == dels[1] == dels[2] == [("del-edge", "e1"), ("del-edge", "e2")]
    # a part's own block, ("move-prop", sources, key, targets, values), sits
    # just before the links; the a-parts' other blocks are the same objects
    a1, a2, b = (plan.sweep for plan in plans)
    assert [(sweep[-2][0], sweep[-2][2]) for sweep in (a1, a2, b)] == [
        ("move-prop", "c"), ("move-prop", "d"), ("move-prop", "c")]
    assert len(a1) == len(a2) and a1[-2] is not a2[-2]
    assert all(x is y for x, y in zip(a1[:-2] + a1[-1:], a2[:-2] + a2[-1:]))
    assert not any(x is y for x in a1 for y in b)

    # the executor and invert walk each sweep's value nodes once, in the
    # order the plans come, however many parts share them
    walks = []

    class Walked(list):
        def __init__(self, name, items):
            super().__init__(items)
            self.name = name

        def __iter__(self):
            walks.append(self.name)
            return super().__iter__()

    logged = {}  # each sweep's value-node block, its walks logged
    for name, sweep in zip("aab", (a1, a2, b)):
        tag, vids, *rest = sweep[0]
        assert tag == "new-node" and all(vid.startswith("sk:val|") for vid in vids)
        sweep[0] = logged.setdefault(name, (tag, Walked(name, vids), *rest))
    out = execute_plans(g, plans)
    assert walks == ["a", "b"]
    walks.clear()
    assert dump_graph(invert(out, plans)) == dump_graph(g)
    assert walks == ["a", "b"]

    r1, r2 = reifier_id("e1"), reifier_id("e2")
    a1, a_true, bx = (oracle_skolem_node_id("val", {"R"}, [kv])
                      for kv in (("a", 1), ("a", True), ("b", "x")))
    expected = Graph()
    for nid, label, props in (("n1", "A", {}), ("n2", "A", {}), (r1, "R", {}), (r2, "R", {}),
                              (a1, "Sk_RA", {"a": 1, "c": 5, "d": 7}),
                              (a_true, "Sk_RA", {"a": True, "c": 5, "d": 8}),
                              (bx, "Sk_RB", {"b": "x", "c": 5})):
        expected.add_node({label}, props, node_id=nid)
    for label, src, tgt in (("R_src", "n1", r1), ("R_tgt", r1, "n2"), ("R_src", "n2", r2),
                            ("R_tgt", r2, "n1"), ("R_det", r1, a1), ("R_det", r1, bx),
                            ("R_det", r2, a_true), ("R_det", r2, bx)):
        expected.add_edge(src, tgt, {label}, edge_id=created_edge_id(label, src, tgt))
    assert dump_graph(out) == dump_graph(expected)
    assert verify_lossless(g, out, plans[0], plans[1:])


def test_executor_refuses_overwriting_existing_property():
    g = person_graph()
    bad = Transformation(
        gofd(PERSON, [pv("x", "city")], [pv("x", "zip")]),
        TransformationKind.WITHIN_N, 1,
        [("move-prop", "p1", "zip", "p3", 100)])  # p3.zip is 200
    with pytest.raises(InvariantError):
        execute_plans(g, [bad])


def test_executor_refuses_generated_id_collision():
    g = person_graph()
    g.add_node({"Squatter"}, {}, node_id='sk:val|Person|city="Rome"')
    with pytest.raises(InvariantError):
        normalize_one(g, gofd(PERSON, [pv("x", "city")], [pv("x", "zip")]))


V = ("new-node", "v", ("L",))
BAD_PLANS = [  # (rows of each plan, exception class, message)
    ([[V, ("move-prop", "p1", "zip", "v", 1), ("move-prop", "p3", "zip", "v", True)]],
     InvariantError, "conflicting values for v.zip: 1 vs True"),
    ([[V, ("move-prop", "p1", "zip", "v", 1)], [V, ("move-prop", "p1", "zip", "v", True)]],
     InvariantError, "conflicting values for v.zip: 1 vs True"),
    ([[("move-prop", "p1", "zip", "p3", 100)]],
     InvariantError, "transformation would overwrite p3.zip: 200 vs 100"),
    ([[V, ("move-prop", "p1", "zip", "v", 100), ("move-prop", "p2", "zip", "v", 100),
       ("move-prop", "p1", "city", "v", "Rome"), ("move-prop", "p3", "zip", "p2", 200)]],
     InvariantError, "transformation would overwrite p2.zip: 100 vs 200"),
    ([[("new-node", "p2", ("L",))]], InvariantError, "generated node id 'p2' already taken"),
    ([[("new-node", "e1", ("L",))]], InvariantError, "generated node id 'e1' already taken"),
    ([[("new-edge", "e1", "p1", "p3", ("L",))]],
     InvariantError, "generated edge id 'e1' already taken"),
    ([[("new-edge", "p3", "p1", "p3", ("L",))]],
     InvariantError, "generated edge id 'p3' already taken"),
    ([[V, ("new-edge", "v", "p1", "p3", ("L",))]],
     InvariantError, "generated edge id 'v' already taken"),
    ([[("new-edge", "f", "p1", "p3", ("L",))], [("new-node", "f", ("L",))]],
     InvariantError, "generated node id 'f' already taken"),
    ([[("new-edge", "f", "p1", "ghost", ("L",))]],
     EndpointError, "endpoint 'ghost' is not a node of the graph"),
    ([[("new-edge", "f", "ghost", "e1", ("L",))]],
     EndpointError, "endpoint 'ghost' is not a node of the graph"),
    ([[("new-edge", "f", "p1", "e1", ("L",))]],
     EndpointError, "endpoint 'e1' is not a node of the graph"),
    ([[V, ("move-prop", "p1", "extra", "v", [1])]],
     FormatError, "property values must be string/number/boolean, got list"),
    ([[("move-prop", "p1", "a", "nope", 1)]], InvariantError, "move target 'nope' is not a node"),
    ([[("move-prop", "p1", "zip", "e1", 100)]], InvariantError, "move target 'e1' is not a node"),
]


@pytest.mark.parametrize("ops, error, message", BAD_PLANS)
def test_executor_refuses_bad_plans_with_exact_errors(ops, error, message):
    g = person_graph()
    g.add_edge("p1", "p2", {"R"}, {"w": 1}, edge_id="e1")
    frozen = dump_graph(g)
    dep = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    plans = [Transformation(dep, TransformationKind.WITHIN_N, 1, list(part)) for part in ops]
    with pytest.raises(error) as caught:
        execute_plans(g, plans)
    assert type(caught.value) is error and str(caught.value) == message
    assert dump_graph(g) == frozen


def test_executor_conflicts_exactly_when_json_texts_differ():
    g = person_graph()
    dep = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    for first, second in product(TRICKY_VALUES, repeat=2):
        plans = [Transformation(dep, TransformationKind.WITHIN_N, 1,
                                [V, ("move-prop", source, "zip", "v", value)])
                 for source, value in (("p1", first), ("p3", second))]
        if json.dumps(first) == json.dumps(second):
            assert execute_plans(g, plans).props["v"]["zip"] is first
        else:
            with pytest.raises(InvariantError, match="conflicting values"):
                execute_plans(g, plans)


def test_plans_run_in_the_order_given():
    # as the row oracle runs them: a plan of rows placed before a sweep's
    # part runs before the sweep's value node exists, and one placed after
    # it finds the node in place, the part's value first in its slot
    g = person_graph()
    g.add_node({"Note"}, {"tag": "t", "zip": 999}, node_id="p4")
    rome = 'sk:val|Person|city="Rome"'
    dep = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    (part,), _ = build_plans(g, [dep])
    onto = Transformation(dep, TransformationKind.WITHIN_N, 1,
                          [("move-prop", "p4", "tag", rome, "t"),
                           ("new-edge", "f", "p4", rome, ("L",))])
    clash = Transformation(dep, TransformationKind.WITHIN_N, 1,
                           [("move-prop", "p4", "zip", rome, 999)])
    for plans in ([onto, part], [clash, part]):
        for run in (oracle_execute, execute_plans):
            with pytest.raises(InvariantError) as caught:
                run(g, plans)
            assert str(caught.value) == f"move target {rome!r} is not a node"
    out = execute_plans(g, [part, onto])
    assert dump_graph(out) == dump_graph(oracle_execute(g, [part, onto]))
    assert out.props[rome] == {"city": "Rome", "zip": 100, "tag": "t"}
    assert out.ends["f"][1] == rome
    with pytest.raises(InvariantError) as caught:
        execute_plans(g, [part, clash])
    assert str(caught.value) == f"conflicting values for {rome}.zip: 100 vs 999"

# -- stored layout: exact tuples the collector does not track ----------------

def split_parts(schema) -> list:
    """Every dependency split to one right-side variable, as a pass plans it."""
    return [gofd(dep.scope, dep.lhs, [var])
            for dep in schema for var in sorted(dep.rhs - dep.lhs, key=var_sort_key)]


def tracked_in(plans) -> int:
    """How many objects the collector tracks among those the plans hold,
    their dependencies left out."""
    gc.collect()
    seen: dict[int, object] = {}
    stack = [held for plan in plans for held in (plan.tail, plan.sweep)]
    while stack:
        obj = stack.pop()
        if gc.is_tracked(obj) and not isinstance(obj, type) and id(obj) not in seen:
            seen[id(obj)] = obj
            stack += gc.get_referents(obj)
    return len(seen)


def doubled(graph: Graph) -> Graph:
    """The graph beside a copy of itself whose every id is primed."""
    out = graph.copy()
    for nid, labels in graph.nodes.items():
        out.add_node(labels, graph.props[nid], node_id=nid + "'")
    for eid, labels in graph.edges.items():
        src, tgt = graph.ends[eid]
        out.add_edge(src + "'", tgt + "'", labels, graph.props[eid], edge_id=eid + "'")
    return out


def assert_no_tracked_object_per_match(graph: Graph, deps) -> list:
    """The graph's plans, once the plans of the graph doubled are seen to hold
    as many tracked objects, their stored rows none, and their rows only
    exact tuples."""
    plans, leftovers = build_plans(graph, deps)
    twice, _ = build_plans(doubled(graph), deps)
    assert leftovers == [] and [2 * plan.match_count for plan in plans] == [
        plan.match_count for plan in twice]
    assert tracked_in(twice) == tracked_in(plans)
    assert not any(gc.is_tracked(row) for plan in twice for row in plan.tail)
    assert all(type(row) is tuple for plan in twice for row in plan.rows)
    return plans


def test_stored_rows_of_shipping_are_untracked_after_a_collection():
    graph = fixture_graph("shipping.graph.json")
    plans = assert_no_tracked_object_per_match(
        graph, split_parts(fixture_schema("shipping.schema.gofd").schema))
    assert {row[0] for plan in plans for row in plan.rows} == {
        "new-node", "new-edge", "move-prop", "del-edge"}
    assert any(isinstance(plan.dependency.scope, NodeEdgePattern) for plan in plans)
    assert any(plan.tail and plan.sweep is not None for plan in plans)  # migrations


def test_stored_rows_of_a_node_edge_scope_are_untracked_after_a_collection():
    # a between-n-ep part, all rows, and a between-np-ep part of one node+edge scope
    g = person_graph()
    for eid, (src, tgt) in enumerate((("p1", "p2"), ("p1", "p3"), ("p3", "p1"))):
        g.add_edge(src, tgt, {"R"}, {"w": 1.5 * eid, "t": "x"}, edge_id=f"e{eid}")
    scope = node_edge_pattern("x", {"Person"}, {"city"}, "y", {"R"}, {"t"}, Direction.OUT)
    plans = assert_no_tracked_object_per_match(
        g, [gofd(scope, [ObjectVar("x")], [pv("y", "t")]),
            gofd(scope, [pv("x", "city")], [pv("y", "t")])])
    assert [plan.kind for plan in plans] == [
        TransformationKind.BETWEEN_N_EP, TransformationKind.BETWEEN_NP_EP]
    assert plans[0].sweep is None and plans[1].sweep is not None


def test_build_plans_reports_leftovers():
    g = person_graph()
    usable = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    key_like = gofd(PERSON, [pv("x", "city")], [ObjectVar("x")])
    ghost = gofd(node_pattern("x", {"Ghost"}, {"a", "b"}),
                 [pv("x", "a")], [pv("x", "b")])
    plans, leftovers = build_plans(g, [usable, key_like, ghost])
    assert len(plans) == 1
    assert [(d.render(), k) for d, k in leftovers] == [
        (key_like.render(), TransformationKind.NO_REDUNDANCY),
        (ghost.render(), TransformationKind.WITHIN_N)]



def test_plans_compare_by_what_they_store_and_rebuild_from_their_rows():
    graph = fixture_graph("shipping.graph.json")
    deps = split_parts(fixture_schema("shipping.schema.gofd").schema)
    plans, _ = build_plans(graph, deps)
    again, _ = build_plans(graph, deps)
    assert all(a.sweep is not b.sweep for a, b in zip(plans, again) if a.sweep is not None)
    assert plans == again and list(map(repr, plans)) == list(map(repr, again))
    # a plan rebuilt from its rows stores them as rows, so it is not equal
    # to a planned part, but it holds the same ops and runs and inverts alike
    by_hand = [Transformation(plan.dependency, plan.kind, plan.match_count, plan.rows,
                              plan.key_dependency, plan.pass_index) for plan in plans]
    assert [plan.rows for plan in by_hand] == [plan.rows for plan in plans]
    assert [plan.ops for plan in by_hand] == [plan.ops for plan in plans]
    assert all(plan.sweep is None for plan in by_hand)
    assert plans[0].sweep is not None and plans[0] != by_hand[0]
    out = execute_plans(graph, plans)
    assert dump_graph(execute_plans(graph, by_hand)) == dump_graph(out)
    assert dump_graph(invert(out, by_hand)) == dump_graph(invert(out, plans)) == dump_graph(graph)
    again[0].pass_index = 1
    assert again[0] != plans[0]


@pytest.mark.parametrize("row, fixed", [
    (("new-node", "v", "Label"), ("new-node", "v", ("Label",))),
    (("new-node", "v"), ("new-node", "v", ())),
    (("new-edge", "f", "p1", "p3", "Label"), ("new-edge", "f", "p1", "p3", ("Label",))),
])
def test_a_row_without_a_tuple_of_labels_is_refused_when_the_plan_is_built(row, fixed):
    # one label as a string would otherwise run as a set of its characters
    dep = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    with pytest.raises(ValueError) as caught:
        Transformation(dep, TransformationKind.WITHIN_N, 1, [row])
    assert repr(row) in str(caught.value)
    out = execute_plans(person_graph(), [Transformation(dep, TransformationKind.WITHIN_N, 1,
                                                        [fixed])])
    labels_of = out.nodes if fixed[0] == "new-node" else out.edges
    assert labels_of[fixed[1]] == set(fixed[-1])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(("node", "edge", "node-edge")))
def test_split_parts_carry_the_ops_each_part_plans_alone(seed, shape):
    # two split dependencies, each left side drawn from one object's
    # variables and every other variable on the right
    rng = random.Random(seed)
    graph = random_graph(rng, max_nodes=7, max_edges=12)
    node_labels, edge_labels = set(rng.sample(("A", "B"), rng.randint(0, 1))), set()
    node_keys = rng.sample(("na", "nb", "nz"), rng.randint(1, 3))
    edge_keys = rng.sample(("ea", "eb", "ez"), rng.randint(1, 3))
    for ids, keys in ((graph.nodes, node_keys), (graph.edges, edge_keys)):
        for oid in ids:  # most objects get the scope's keys
            for key in keys:
                if key not in graph.props[oid] and rng.random() < 0.8:
                    graph.set_prop(oid, key, rng.choice(LHS_POOL))
    scope = {"node": node_pattern("x", node_labels, node_keys),
             "edge": edge_pattern("y", edge_labels, edge_keys),
             "node-edge": node_edge_pattern("x", node_labels, node_keys, "y", edge_labels,
                                            edge_keys, rng.choice(list(Direction)))}[shape]
    universe = sorted(attrs(scope), key=var_sort_key)
    parts = []
    for _ in range(2):
        owner = rng.choice(sorted({var.name for var in universe}))
        family = [var for var in universe if var.name == owner]
        lhs = rng.sample(family, rng.randint(1, min(2, len(family))))
        parts += [gofd(scope, lhs, [var]) for var in universe if var not in lhs]
    matches = evaluate(scope, graph)
    plans, leftovers = build_plans(graph, parts, matches=matches)
    expected, expected_leftovers = oracle_build_plans(graph, parts, matches)
    # repr tells 1 from True and 0.0 from -0.0, where == merges them
    assert [(plan.dependency, repr(plan.ops)) for plan in plans] == \
        [(dep, repr(ops)) for dep, ops in expected]
    assert [dep for dep, _ in leftovers] == expected_leftovers


# -- columns run as the rows they stand for --------------------------------

def outcome(run, graph: Graph, plans) -> str:
    """The dump of what ``run`` makes of the plans, or how it refuses them."""
    try:
        return dump_graph(run(graph, plans))
    except GonormError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_runs_as_rows(graph: Graph, schema, rng: random.Random) -> list:
    """The passes, once ``full_normalize``'s output is seen to be the row
    oracle's, run pass by pass over each plan's rows, each pass's plans,
    shuffled by ``rng``, to run as the row oracle runs them in that order,
    and each plan's ``deleted_edges`` to be the edges its rows delete."""
    result = full_normalize(graph, schema)
    replayed = graph
    for log in result.logs:
        shuffled = rng.sample(log.transformations, len(log.transformations))
        assert outcome(execute_plans, replayed, shuffled) == outcome(oracle_execute, replayed,
                                                                     shuffled)
        replayed = oracle_execute(replayed, log.transformations)
        for plan in log.transformations:
            assert plan.deleted_edges == {row[1] for row in plan.rows if row[0] == "del-edge"}
    assert dump_graph(replayed) == dump_graph(result.graph)
    return result.logs


@pytest.mark.parametrize("name", ["university", "students", "metrics_example", "shipping"])
def test_a_fixture_normalizes_as_its_rows_run_one_at_a_time(name):
    logs = assert_runs_as_rows(fixture_graph(f"{name}.graph.json"),
                               fixture_schema(f"{name}.schema.gofd").schema, random.Random(name))
    assert any(log.transformations for log in logs)


@settings(max_examples=70, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(CASE_KINDS + ("multi",)))
def test_a_random_case_normalizes_as_its_rows_run_one_at_a_time(seed, kind):
    rng = random.Random(seed)
    if kind == "multi":
        assert_runs_as_rows(random_multi_pass_case(rng), MULTI_PASS_DEPS, rng)
    else:
        graph, dep = random_satisfying_case(rng, kind)
        assert_runs_as_rows(graph, [dep], rng)


# -- lossless check is a real check ----------------------------------------

def test_verify_lossless_fails_after_tampering():
    g = person_graph()
    dep = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    out, plans = normalize_one(g, dep)
    plan = plans[0]

    broken = out.copy()
    broken.props['sk:val|Person|city="Rome"'].pop("zip")
    assert not verify_lossless(g, broken, plan)

    rewired = out.copy()
    rewired.remove_object(created_edge_id("Sk_PersonCity", "p1",
                                          'sk:val|Person|city="Rome"'))
    assert not verify_lossless(g, rewired, plan)

    altered = out.copy()
    altered.set_prop('sk:val|Person|city="Oslo"', "zip", 999)
    assert not verify_lossless(g, altered, plan)


def test_verify_lossless_sees_damage_outside_the_scope():
    g = person_graph()
    g.add_node({"Pet"}, {"name": "Rex"}, node_id="d1")
    out, plans = normalize_one(g, gofd(PERSON, [pv("x", "city")], [pv("x", "zip")]))
    assert verify_lossless(g, out, plans[0])
    out.set_prop("d1", "name", "Max")
    assert not verify_lossless(g, out, plans[0])


def test_invert_rejects_a_slot_moved_to_different_values():
    g = Graph()
    g.add_node({"A"}, {}, node_id="p1")
    g.add_node({"V"}, {"k": 1}, node_id="v1")
    g.add_node({"V"}, {"k": 1}, node_id="v2")
    plan = Transformation(gofd(PERSON, [pv("x", "city")], [pv("x", "zip")]),
                          TransformationKind.WITHIN_N, 1,
                          [("new-node", "v1", ("V",)), ("new-node", "v2", ("V",)),
                           ("move-prop", "p1", "k", "v1", 1), ("move-prop", "p1", "k", "v2", 1)])
    assert invert(g, [plan]).props["p1"] == {"k": 1}
    g.set_prop("v2", "k", 1.0)  # equal in Python, not as JSON text
    with pytest.raises(InvariantError, match="moved to different values"):
        invert(g, [plan])


@pytest.mark.parametrize("node_label, edge_first", [("B", True), ("A", False)])
def test_invert_follows_a_value_across_passes_in_any_order(node_label, edge_first):
    # edge_first: e1.w moves onto p1, then off it with p1.c to a value node;
    # otherwise p1's own w moves to a value node before e1.w moves onto p1
    ne = node_edge_pattern("x", {"A"}, (), "y", {"R"}, {"w"}, Direction.OUT)
    deps = [gofd(ne, [ObjectVar("x")], [pv("y", "w")]),
            gofd(node_pattern("x", {node_label}, {"c", "w"}), [pv("x", "c")], [pv("x", "w")])]
    g = Graph()
    g.add_node({"A", "B"}, {"c": "a"} if edge_first else {"c": "a", "w": 1}, node_id="p1")
    g.add_node({"T"}, {}, node_id="t1")
    g.add_edge("p1", "t1", {"R"}, {"w": 7}, edge_id="e1")
    result = full_normalize(g, deps)
    assert [log.scope.startswith("(x:{A}:{})-") for log in result.logs] == [edge_first, not edge_first]
    plans = [plan for log in result.logs for plan in log.transformations]
    assert len(plans) == 2
    for order in (plans, plans[::-1]):
        assert dump_graph(invert(result.graph, order)) == dump_graph(g)
        assert verify_lossless(g, result.graph, order[0], order[1:])


def test_invert_of_a_slot_emptied_and_written_again():
    # p1.w=1 moves to one value node, e1.w=7 moves onto p1, then p1.w=7
    # moves to another value node; without the pass order, the plans
    # cannot tell which value node holds p1's own w
    ne = node_edge_pattern("x", {"A"}, (), "y", {"R"}, {"w"}, Direction.OUT)
    deps = [gofd(node_pattern("x", {"A1"}, {"c", "w"}), [pv("x", "c")], [pv("x", "w")]),
            gofd(ne, [ObjectVar("x")], [pv("y", "w")]),
            gofd(node_pattern("x", {"B"}, {"d", "w"}), [pv("x", "d")], [pv("x", "w")])]
    g = Graph()
    g.add_node({"A1", "A", "B"}, {"c": "a", "d": "b", "w": 1}, node_id="p1")
    g.add_node({"T"}, {}, node_id="t1")
    g.add_edge("p1", "t1", {"R"}, {"w": 7}, edge_id="e1")
    result = full_normalize(g, deps)
    plans = [plan for log in result.logs for plan in log.transformations]
    assert [plan.kind.value for plan in plans] == ["within-n", "between-n-ep", "within-n"]
    assert sorted(result.graph.props[v]["w"] for v in result.graph.nodes
                  if v.startswith("sk:val|")) == [1, 7]  # nothing is lost
    assert verify_lossless(g, result.graph, plans[0], plans[1:])
    assert [plan.pass_index for plan in plans] == [0, 1, 2]
    for plan, index in zip(plans, [2, 1, 0]):  # undone first pass first
        plan.pass_index = index
    assert not verify_lossless(g, result.graph, plans[0], plans[1:])


def test_plans_of_separate_scoped_calls_invert_together_numbered_in_call_order():
    g = Graph()
    g.add_node({"A1", "A", "B"}, {"c": "a", "d": "b", "w": 1}, node_id="p1")
    g.add_node({"T"}, {}, node_id="t1")
    g.add_edge("p1", "t1", {"R"}, {"w": 7}, edge_id="e1")
    out, plans = g, []
    for dep in MULTI_PASS_DEPS:
        result = scoped_normalize(out, MULTI_PASS_DEPS, dep.scope)
        out = result.graph
        plans += result.logs[0].transformations
    assert [plan.pass_index for plan in plans] == [0, 0, 0]
    assert not verify_lossless(g, out, plans[0], plans[1:])  # undone as one pass
    for index, plan in enumerate(plans):
        plan.pass_index = index
    assert verify_lossless(g, out, plans[0], plans[1:])


def test_invert_refuses_an_edge_into_a_created_node():
    g = person_graph()
    out, plans = normalize_one(g, gofd(PERSON, [pv("x", "city")], [pv("x", "zip")]))
    out.add_edge("p1", 'sk:val|Person|city="Rome"', {"Extra"}, edge_id="extra")
    with pytest.raises(EndpointError, match="is not a node of the graph"):
        invert(out, plans)
    assert not verify_lossless(g, out, plans[0])


def test_invert_refuses_an_output_without_a_created_node():
    g = person_graph()
    out, plans = normalize_one(g, gofd(PERSON, [pv("x", "city")], [pv("x", "zip")]))
    out.remove_object('sk:val|Person|city="Oslo"')  # and its link edge from p3
    with pytest.raises(InvariantError,
                       match=r"""node 'sk:val\|Person\|city="Oslo"' of the plans is missing"""):
        invert(out, plans)
    assert not verify_lossless(g, out, plans[0])


# Prints what ``invert`` refuses the shipping output with, once without its
# value nodes and once without their values.
REFUSALS = """
import sys
from gonorm import InvariantError, full_normalize, invert, load_graph, load_schema
graph, schema = load_graph(sys.argv[1]), load_schema(sys.argv[2]).schema
result = full_normalize(graph, schema)
plans = [plan for log in result.logs for plan in log.transformations]
for damage in ("remove", "clear"):
    out = result.graph.copy()
    for nid in [nid for nid in out.nodes if nid.startswith("sk:val|")]:
        if damage == "remove":
            out.remove_object(nid)
        else:
            out.props[nid].clear()
    try:
        invert(out, plans)
    except InvariantError as exc:
        print(exc)
"""


def test_invert_refusals_name_the_smallest_object_under_any_hash_seed():
    result = full_normalize(fixture_graph("shipping.graph.json"),
                            fixture_schema("shipping.schema.gofd").schema)
    last = [op for plan in result.logs[-1].transformations for op in plan.ops]
    nodes = {op.node for op in last if isinstance(op, NewNode)}
    nodes |= {op.target for op in last if isinstance(op, MoveProp)}
    slot = min((op.target, op.key) for op in last
               if isinstance(op, MoveProp) and op.target.startswith("sk:val|"))
    expected = (f"node {min(nid for nid in nodes if nid.startswith('sk:val|'))!r} "
                f"of the plans is missing\nmoved value {slot[0]}.{slot[1]} is missing\n")
    src = str(Path(gonorm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for seed in ("1", "2", "3", "4", "5"):
        proc = subprocess.run(
            [sys.executable, "-c", REFUSALS, str(FIXTURES / "shipping.graph.json"),
             str(FIXTURES / "shipping.schema.gofd")],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path})
        assert proc.stdout == expected, seed


def test_invert_refuses_a_reified_edge_without_its_links():
    g = edge_graph()
    out, (plan,) = normalize_one(g, gofd(EDGE, [pv("y", "u")], [pv("y", "v")]))
    plan = Transformation(plan.dependency, plan.kind, plan.match_count,
                          [row for row in plan.rows
                           if not (row[0] == "new-edge" and row[4] in (("R_src",), ("R_tgt",)))])
    with pytest.raises(InvariantError, match=r"no _src/_tgt links for reified edges "
                                             r"\['e1', 'e2'\]"):
        invert(out, [plan])
    # a created edge into a reifier node, but without the label that names
    # its _tgt link
    g = Graph()
    for nid in ("n1", "n2"):
        g.add_node({"A"}, node_id=nid)
    g.add_edge("n1", "n2", {"R"}, edge_id="e1")
    rid = reifier_id("e1")
    bare = Transformation(plan.dependency, plan.kind, 1, [
        ("new-node", rid, ()), ("new-edge", "l1", "n1", rid, ()),
        ("new-edge", "l2", rid, "n2", ("R_tgt",)), ("del-edge", "e1")])
    out = execute_plans(g, [bare])
    with pytest.raises(InvariantError, match=r"no _src/_tgt links for reified edges \['e1'\]"):
        invert(out, [bare])
    assert not verify_lossless(g, out, bare)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_random_multi_pass_cases_stay_lossless(seed):
    graph = random_multi_pass_case(random.Random(seed))
    result = full_normalize(graph, MULTI_PASS_DEPS)
    assert all(log.warnings == [] for log in result.logs)
    plans = [plan for log in result.logs for plan in log.transformations]
    for order in (plans, plans[::-1]):
        assert dump_graph(invert(result.graph, order)) == dump_graph(graph)
    for plan in plans:
        assert verify_lossless(graph, result.graph, plan, [p for p in plans if p is not plan])


@settings(max_examples=36, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(CASE_KINDS))
def test_random_satisfying_cases_stay_lossless(seed, kind):
    rng = random.Random(seed)
    graph, dep = random_satisfying_case(rng, kind)
    assert satisfies(graph, dep).holds
    out, plans = normalize_one(graph, dep)
    for plan in plans:
        others = [p for p in plans if p is not plan]
        assert verify_lossless(graph, out, plan, others)
        if plan.key_dependency is not None:
            assert satisfies(out, plan.key_dependency).holds
