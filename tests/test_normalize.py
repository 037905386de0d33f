"""The normalization pipeline: phases, scope ordering, schema threading."""

from __future__ import annotations

import importlib
import json
import logging
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gonorm import (
    Direction,
    GoFd,
    Graph,
    InvariantError,
    ObjectVar,
    PropVar,
    UnsatisfiedDependency,
    attrs,
    dump_graph,
    edge_pattern,
    execute_plans,
    full_normalize,
    gofd,
    invert,
    node_edge_pattern,
    node_pattern,
    render_pattern,
    scope_key,
    scoped_normalize,
    sort_scopes,
)
import gonorm.normalize as normalize_module
import gonorm.pattern as pattern_module
from gonorm.pattern import var_sort_key
from gonorm.transform import (DelEdge, MoveProp, NewEdge, NewNode, Transformation,
                              check_transformable)

from gonorm import cli

from conftest import Level, SameRepr, fixture_graph, fixture_schema, runs_of
from oracles import CASE_KINDS, generalize, random_pattern, random_satisfying_case


def pv(name: str, key: str) -> PropVar:
    return PropVar(name, key)


PERSON = node_pattern("x", {"Person"}, {"city", "zip"})


def person_graph() -> Graph:
    g = Graph()
    g.add_node({"Person"}, {"city": "Rome", "zip": 100}, node_id="p1")
    g.add_node({"Person"}, {"city": "Rome", "zip": 100}, node_id="p2")
    g.add_node({"Person"}, {"city": "Oslo", "zip": 200}, node_id="p3")
    return g


def registry_graph() -> Graph:
    """One node per city, so identity dependencies hold as well."""
    g = Graph()
    g.add_node({"Person"}, {"city": "Rome", "zip": 100}, node_id="p1")
    g.add_node({"Person"}, {"city": "Pisa", "zip": 300}, node_id="p2")
    g.add_node({"Person"}, {"city": "Oslo", "zip": 200}, node_id="p3")
    return g


# -- one-scope pass --------------------------------------------------------

def test_violated_dependency_stops_everything():
    g = person_graph()
    g.set_prop("p3", "city", "Rome")  # Rome now maps to two zips
    frozen = dump_graph(g)
    dep = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    with pytest.raises(UnsatisfiedDependency):
        scoped_normalize(g, [dep], PERSON)
    assert dump_graph(g) == frozen


def test_single_scope_pass_logs_each_phase():
    g = person_graph()
    dep = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    result = scoped_normalize(g, [dep], PERSON)
    (log,) = result.logs
    assert log.scope == "(x:{Person}:{city,zip})"
    assert log.collected == [dep.render()]
    assert log.cover == [dep.render()]
    assert [p.match_count for p in log.transformations] == [3]
    assert log.kept == [] and log.zero_match == [] and log.warnings == []
    assert log.key_dependencies == ["(x:{Sk_PersonCity}:{city,zip})::x.city=>x"]
    assert [d.render() for d in result.schema] == log.key_dependencies
    assert len(result.graph.nodes) == 5  # three people, two value nodes


def test_mixed_family_descriptor_is_kept_with_warning():
    g = Graph()
    g.add_node({"Person"}, {"city": "Rome"}, node_id="p1")
    g.add_node({"T"}, {}, node_id="t1")
    g.add_edge("p1", "t1", {"R"}, {"w": 1}, edge_id="e1")
    ne = node_edge_pattern("x", {"Person"}, {"city"}, "y", {"R"}, {"w"},
                           Direction.OUT)
    mixed = gofd(ne, [pv("x", "city"), pv("y", "w")], [ObjectVar("x")])
    before = dump_graph(g)
    result = scoped_normalize(g, [mixed], ne)
    (log,) = result.logs
    assert len(log.warnings) == 1 and "not transformable" in log.warnings[0]
    assert log.kept == [mixed.render()]
    assert mixed in result.schema
    assert dump_graph(result.graph) == before


def test_move_onto_a_node_that_has_the_key_is_kept_with_warning():
    # moving e1.w onto a p1 that has w already would make both graphs
    # normalize to the same output
    ne = node_edge_pattern("x", {"Person"}, (), "y", {"R"}, {"w"}, Direction.OUT)
    dep = gofd(ne, [ObjectVar("x")], [pv("y", "w")])
    outputs = []
    for own in ({"w": 5}, {}):
        g = Graph()
        g.add_node({"Person"}, own, node_id="p1")
        g.add_node({"T"}, {}, node_id="t1")
        g.add_edge("p1", "t1", {"R"}, {"w": 5}, edge_id="e1")
        result = scoped_normalize(g, [dep], ne)
        (log,) = result.logs
        assert dump_graph(invert(result.graph, log.transformations)) == dump_graph(g)
        outputs.append((dump_graph(result.graph), log, result.schema))
    (kept_graph, kept, kept_schema), (moved_graph, moved, moved_schema) = outputs
    assert kept_graph != moved_graph
    assert kept.transformations == [] and kept.kept == [dep.render()]
    assert kept.warnings == [f"not transformable, kept as is: {dep.render()} "
                             "(node p1 already has w)"]
    assert dep in kept_schema
    assert [p.kind.value for p in moved.transformations] == ["between-n-ep"]
    assert moved.warnings == [] and dep not in moved_schema


@pytest.mark.parametrize("lhs, kind", [(ObjectVar("x"), "between-n-ep"),
                                       (PropVar("x", "a"), "between-np-ep")])
def test_node_with_an_edge_lacking_the_moved_key_is_kept_with_warning(lhs, kind):
    # with e2 lacking w, moving e1.w away would make both graphs normalize
    # to the same output: nothing would tell which edges held w
    ne = node_edge_pattern("x", {"A"}, {"a"}, "y", {"R"}, {"w"}, Direction.OUT)
    dep = gofd(ne, [lhs], [pv("y", "w")])
    outputs = []
    for e2_props in ({}, {"w": 5}):
        g = Graph()
        g.add_node({"A"}, {"a": 1}, node_id="p1")
        g.add_node({"T"}, {}, node_id="t1")
        g.add_node({"T"}, {}, node_id="t2")
        g.add_edge("p1", "t1", {"R"}, {"w": 5}, edge_id="e1")
        g.add_edge("p1", "t2", {"R"}, e2_props, edge_id="e2")
        result = scoped_normalize(g, [dep], ne)
        (log,) = result.logs
        assert dump_graph(invert(result.graph, log.transformations)) == dump_graph(g)
        outputs.append((dump_graph(result.graph), log, result.schema))
        if not e2_props:
            with pytest.raises(InvariantError, match="edge e2 of node p1 lacks w"):
                check_transformable(g, dep)
    (kept_graph, kept, kept_schema), (moved_graph, moved, moved_schema) = outputs
    assert kept_graph != moved_graph
    assert kept.transformations == [] and kept.kept == [dep.render()]
    assert kept.warnings == [f"not transformable, kept as is: {dep.render()} "
                             "(edge e2 of node p1 lacks w)"]
    assert dep in kept_schema
    assert [p.kind.value for p in moved.transformations] == [kind]
    assert moved.warnings == [] and dep not in moved_schema


def test_zero_match_cover_member_is_kept_and_logged():
    g = person_graph()
    ghost_scope = node_pattern("x", {"Ghost"}, {"a", "b"})
    ghost = gofd(ghost_scope, [pv("x", "a")], [pv("x", "b")])
    result = scoped_normalize(g, [ghost], ghost_scope)
    (log,) = result.logs
    assert log.zero_match == [ghost.render()]
    assert log.kept == [ghost.render()]
    assert log.transformations == [] and ghost in result.schema
    assert dump_graph(result.graph) == dump_graph(g)


def test_key_like_member_is_kept_without_zero_match_entry():
    g = registry_graph()
    key_like = gofd(PERSON, [pv("x", "city"), pv("x", "zip")], [ObjectVar("x")])
    result = scoped_normalize(g, [key_like], PERSON)
    (log,) = result.logs
    assert log.kept == [key_like.render()]
    assert log.zero_match == []  # the scope matched; the shape just has no redundancy


def test_split_right_side_recombines_in_kept():
    g = Graph()
    g.add_node({"Person"}, {"city": "Rome"}, node_id="p1")
    g.add_node({"T"}, {}, node_id="t1")
    g.add_edge("p1", "t1", {"R"}, {"w": 7}, edge_id="e1")
    ne = node_edge_pattern("x", {"Person"}, {"city"}, "y", {"R"}, {"w"},
                           Direction.OUT)
    dep = gofd(ne, [pv("x", "city")], [pv("y", "w"), ObjectVar("x")])
    result = scoped_normalize(g, [dep], ne)
    (log,) = result.logs
    # the edge part transformed; the identity part was kept on its own
    assert log.cover == ["(x:{Person}:{city})-[y:{R}:{w}]->()::x.city=>x,y.w"]
    assert [p.dependency.render() for p in log.transformations] == [
        "(x:{Person}:{city})-[y:{R}:{w}]->()::x.city=>y.w"]
    assert log.kept == ["(x:{Person}:{city})-[y:{R}:{w}]->()::x.city=>x"]
    assert log.warnings == []  # a combined right side is split, not rejected
    ghost_scope = node_pattern("x", {"Ghost"}, {"a", "b", "c"})
    wide = gofd(ghost_scope, [pv("x", "a")], [pv("x", "b"), pv("x", "c")])
    kept = scoped_normalize(g, [wide], ghost_scope).logs[0].kept
    assert kept == [wide.render()]  # both unmatched parts merge back together


def test_other_scopes_pass_through_untouched():
    g = person_graph()
    dep = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    other = gofd(node_pattern("x", {"Other"}, {"q"}), [pv("x", "q")], [ObjectVar("x")])
    result = scoped_normalize(g, [dep, other], PERSON)
    assert other in result.schema
    assert result.logs[0].collected == [dep.render()]


# -- scope ordering --------------------------------------------------------

def test_sort_scopes_specialization_chain():
    s1 = node_pattern("x", {"A"}, ())
    s2 = node_pattern("x", {"A", "B"}, ())
    s3 = node_pattern("x", {"A", "B"}, {"k"})
    assert sort_scopes([s1, s2, s3]) == [s3, s2, s1]
    assert sort_scopes([s2, s1, s3]) == [s3, s2, s1]


def test_sort_scopes_orders_unrelated_scopes_by_text():
    a = node_pattern("x", {"A"}, ())
    b = node_pattern("x", {"B"}, ())
    assert sort_scopes([b, a]) == [a, b]


def test_sort_scopes_deduplicates_alpha_variants():
    a = node_pattern("x", {"A"}, {"k"})
    alias = node_pattern("someNode", {"A"}, {"k"})
    out = sort_scopes([a, alias])
    assert out == [a]  # first representative wins


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_sort_scopes_is_permutation_invariant_and_specific_first(seed):
    rng = random.Random(seed)
    pool = []
    for _ in range(rng.randint(1, 4)):
        specific = random_pattern(rng)
        pool.extend([specific, generalize(rng, specific)])
    ordered = [scope_key(p) for p in sort_scopes(pool)]
    shuffled = list(pool)
    rng.shuffle(shuffled)
    assert [scope_key(p) for p in sort_scopes(shuffled)] == ordered
    for specific, general in zip(pool[::2], pool[1::2]):
        if scope_key(specific) != scope_key(general):
            assert ordered.index(scope_key(specific)) < ordered.index(scope_key(general))


# -- whole-schema run ------------------------------------------------------

def test_full_normalize_visits_scopes_most_specific_first():
    g = Graph()
    g.add_node({"Person"}, {"city": "Rome", "zip": 100}, node_id="p1")
    g.add_node({"T"}, {}, node_id="t1")
    g.add_edge("p1", "t1", {"R"}, {"w": 7}, edge_id="e1")
    ne = node_edge_pattern("x", {"Person"}, {"city"}, "y", {"R"}, {"w"},
                           Direction.OUT)
    node_dep = gofd(node_pattern("x", {"Person"}, {"city"}),
                    [pv("x", "city")], [ObjectVar("x")])
    edge_dep = gofd(ne, [pv("x", "city")], [pv("y", "w")])
    result = full_normalize(g, [node_dep, edge_dep])
    assert [log.scope for log in result.logs] == [
        "(x:{Person}:{city})-[y:{R}:{w}]->()", "(x:{Person}:{city})"]
    first, second = result.logs
    # the cover combines both members on the shared left side ...
    assert first.cover == ["(x:{Person}:{city})-[y:{R}:{w}]->()::x.city=>x,y.w"]
    # ... but only the identity part stays behind; the edge part transformed
    assert first.kept == ["(x:{Person}:{city})-[y:{R}:{w}]->()::x.city=>x"]
    assert first.key_dependencies == ["(x:{Sk_PersonCity}:{city,w})::x.city=>x"]
    assert second.transformations == []  # city already moved off the node
    assert result.graph.props['sk:val|Person|city="Rome"'] == {"city": "Rome", "w": 7}
    assert result.graph.props["p1"] == {"zip": 100}


def test_full_normalize_reaches_a_fixpoint():
    g = person_graph()
    dep = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    first = full_normalize(g, [dep])
    again = full_normalize(first.graph, first.schema)
    assert dump_graph(again.graph) == dump_graph(first.graph)
    assert all(log.transformations == [] for log in again.logs)
    assert {d.render() for d in again.schema} == {d.render() for d in first.schema}


@pytest.mark.parametrize("name", ["university", "students", "metrics_example", "shipping"])
def test_bundled_fixtures_invert_with_plans_in_any_order(name):
    graph = fixture_graph(f"{name}.graph.json")
    result = full_normalize(graph, fixture_schema(f"{name}.schema.gofd").schema)
    plans = [plan for log in result.logs for plan in log.transformations]
    assert plans
    for order in (plans, plans[::-1]):
        assert dump_graph(invert(result.graph, order)) == dump_graph(graph)


def test_full_normalize_numbers_its_passes_in_log_order():
    indices = []
    for name in ["university", "students", "metrics_example", "shipping"]:
        schema = fixture_schema(f"{name}.schema.gofd").schema
        result = full_normalize(fixture_graph(f"{name}.graph.json"), schema)
        scopes = sort_scopes(schema.scopes())
        assert [log.scope for log in result.logs] == list(map(render_pattern, scopes))
        for index, (scope, log) in enumerate(zip(scopes, result.logs)):
            assert [plan.pass_index for plan in log.transformations] == \
                [index] * len(log.transformations)
            indices += [index] * len(log.transformations)
            (alone,) = scoped_normalize(fixture_graph(f"{name}.graph.json"), schema, scope).logs
            assert [plan.pass_index for plan in alone.transformations] == \
                [0] * len(alone.transformations)
    assert max(indices) > 0


VIEWS = {"new-node": NewNode, "new-edge": NewEdge, "move-prop": MoveProp, "del-edge": DelEdge}
TAGS = {view: tag for tag, view in VIEWS.items()}


def fresh_row(op) -> tuple:
    """A new row object for a view op: its tag, then its fields."""
    return (TAGS[type(op)], *op)


@pytest.mark.parametrize("name", ["university", "students", "metrics_example", "shipping"])
def test_plan_ops_are_a_fresh_view_of_the_stored_rows(name):
    graph = fixture_graph(f"{name}.graph.json")
    result = full_normalize(graph, fixture_schema(f"{name}.schema.gofd").schema)
    before = graph
    for log in result.logs:
        for plan in log.transformations:
            view, expected = plan.ops, [VIEWS[row[0]](*row[1:]) for row in plan.rows]
            assert view == expected and list(map(type, view)) == list(map(type, expected))
            assert plan.ops is not view and all(type(row) is tuple for row in plan.rows)
        # plans rebuilt from new row objects, converted from the view, hold the
        # stored rows and run as the planner's own, though no row object is
        # shared any more: an equal op of another plan runs again and changes nothing
        rebuilt = [Transformation(plan.dependency, plan.kind, plan.match_count,
                                  [fresh_row(op) for op in plan.ops])
                   for plan in log.transformations]
        for plan, again in zip(log.transformations, rebuilt):
            assert again.rows == plan.rows
            assert not any(x is y for x, y in zip(again.rows, plan.rows))
        after = execute_plans(before, log.transformations)
        assert dump_graph(execute_plans(before, rebuilt)) == dump_graph(after)
        before = after
    assert dump_graph(before) == dump_graph(result.graph)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(CASE_KINDS))
def test_normalizing_a_normalized_graph_changes_nothing(seed, kind):
    graph, dep = random_satisfying_case(random.Random(seed), kind)
    first = full_normalize(graph, [dep])
    again = full_normalize(first.graph, first.schema)
    assert dump_graph(again.graph) == dump_graph(first.graph)
    assert all(log.transformations == [] for log in again.logs)


def test_full_normalize_propagates_violations():
    g = person_graph()
    g.set_prop("p3", "city", "Rome")
    with pytest.raises(UnsatisfiedDependency):
        full_normalize(g, [gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])])


C_K_V = gofd(node_pattern("c", {"C"}, {"k", "v"}), [pv("c", "k")], [pv("c", "v")])


def test_a_violation_hidden_by_repr_is_refused_and_nothing_is_written(tmp_path, monkeypatch,
                                                                      capsys):
    g = Graph()
    g.add_node({"C"}, {"k": "k1", "v": SameRepr("x")}, node_id="c1")
    g.add_node({"C"}, {"k": "k1", "v": SameRepr("y")}, node_id="c2")
    frozen = dump_graph(g)
    with pytest.raises(UnsatisfiedDependency):
        full_normalize(g, [C_K_V])
    assert dump_graph(g) == frozen
    schema = tmp_path / "s.gofd"
    schema.write_text("(c:{C}:{k,v}) :: c.k => c.v\n")
    monkeypatch.setattr(cli, "load_graph", lambda path: g)
    assert cli.main(["normalize", "--graph", "g.json", "--schema", str(schema),
                     "--out", str(tmp_path / "out"), "--explain"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["s.gofd"]


def test_int_enum_members_join_the_value_nodes_of_their_ints():
    g = Graph()
    for nid, k, v in (("c1", "k1", Level.ONE), ("c2", "k1", 1),
                      ("c3", Level.TWO, 5), ("c4", 2, 5)):
        g.add_node({"C"}, {"k": k, "v": v}, node_id=nid)
    result = full_normalize(g, [C_K_V])
    made = sorted(set(result.graph.nodes) - set(g.nodes))
    assert made == ['sk:val|C|k="k1"', "sk:val|C|k=2"]
    assert result.graph.props['sk:val|C|k="k1"'] == {"k": "k1", "v": 1}
    assert result.graph.props["sk:val|C|k=2"] == {"k": 2, "v": 5}
    assert all(not result.graph.props[nid] for nid in ("c1", "c2", "c3", "c4"))
    plans = [plan for log in result.logs for plan in log.transformations]
    assert dump_graph(invert(result.graph, plans)) == dump_graph(g)


# -- the caller's graph is never changed -------------------------------------

def shipping() -> tuple[Graph, list]:
    """The bundled fixture, normalized in three passes: LEG, Order, Store."""
    return (fixture_graph("shipping.graph.json"),
            fixture_schema("shipping.schema.gofd").schema)


def test_full_normalize_leaves_the_input_graph_unchanged():
    graph, schema = shipping()
    frozen = dump_graph(graph)
    result = full_normalize(graph, schema)
    assert [log.scope[:5] for log in result.logs] == ["()-[l", "(o:{O", "(s:{S"]
    assert dump_graph(graph) == frozen
    assert dump_graph(result.graph) != frozen


@pytest.mark.parametrize("damage, error", [
    # a squatter on an id the second pass generates
    (lambda g: g.add_node({"Squatter"}, {}, node_id='sk:val|Order|customerID="ALFKI"'),
     InvariantError),
    # one customer's orders ship to two cities
    (lambda g: g.set_prop("o2", "shipCity", "Hamburg"), UnsatisfiedDependency),
], ids=["squatter", "violation"])
def test_full_normalize_leaves_the_input_unchanged_when_a_later_pass_raises(
        monkeypatch, damage, error):
    graph, schema = shipping()
    damage(graph)
    frozen = dump_graph(graph)
    passes = []
    original = normalize_module.build_plans

    def recording(g, parts, **kwargs):
        passes.append(render_pattern(parts[0].scope))
        return original(g, parts, **kwargs)

    monkeypatch.setattr(normalize_module, "build_plans", recording)
    with pytest.raises(error):
        full_normalize(graph, schema)
    assert passes[0].startswith("()-[l:{LEG}")  # the first pass ran
    assert dump_graph(graph) == frozen


def test_scoped_normalize_and_execute_plans_leave_their_input_unchanged():
    graph, schema = shipping()
    frozen = dump_graph(graph)
    scopes = sort_scopes(dep.scope for dep in schema)
    result = scoped_normalize(graph, schema, scopes[0])
    assert dump_graph(graph) == frozen
    assert dump_graph(result.graph) != frozen
    plans = result.logs[0].transformations
    assert dump_graph(execute_plans(graph, plans)) == dump_graph(result.graph)
    assert dump_graph(graph) == frozen


@pytest.mark.parametrize("name", ["university", "students", "metrics_example", "shipping"])
def test_public_normalizers_leave_each_bundled_fixture_unchanged(name):
    graph = fixture_graph(f"{name}.graph.json")
    schema = fixture_schema(f"{name}.schema.gofd").schema
    frozen = dump_graph(graph)
    assert dump_graph(full_normalize(graph, schema).graph) != frozen
    assert dump_graph(graph) == frozen
    for scope in sort_scopes(dep.scope for dep in schema):
        scoped_normalize(graph, schema, scope)
        assert dump_graph(graph) == frozen


def test_full_normalize_copies_the_graph_once(monkeypatch):
    graph, schema = shipping()
    copies = []
    original = Graph.copy

    def counting(self):
        copies.append(self)
        return original(self)

    monkeypatch.setattr(Graph, "copy", counting)
    result = full_normalize(graph, schema)
    assert len(result.logs) == 3
    assert copies == [graph]


def record_evaluations(monkeypatch) -> list[str]:
    """Patch every gonorm binding of ``evaluate``; returns the scopes it is called on."""
    original = pattern_module.evaluate
    scopes: list[str] = []

    def recording(pattern, graph):
        scopes.append(render_pattern(pattern))
        return original(pattern, graph)

    for name in ("gofd", "metrics", "normalize", "pattern", "transform"):
        module = importlib.import_module(f"gonorm.{name}")
        if getattr(module, "evaluate", None) is original:
            monkeypatch.setattr(module, "evaluate", recording)
    return scopes


def test_full_normalize_matches_each_scope_once_per_pass(monkeypatch, university_graph):
    schema = fixture_schema("university.schema.gofd").schema
    scopes = record_evaluations(monkeypatch)
    result = full_normalize(university_graph, schema)
    assert scopes == [log.scope for log in result.logs]

    # two scopes, several dependencies and split right sides per scope
    g = person_graph()
    g.add_node({"T"}, {}, node_id="t1")
    g.add_edge("p1", "t1", {"R"}, {"w": 7, "v": 8}, edge_id="e1")
    ne = node_edge_pattern("x", {"Person"}, {"city"}, "y", {"R"}, {"v", "w"},
                           Direction.OUT)
    deps = [gofd(PERSON, [pv("x", "city")], [pv("x", "zip")]),
            gofd(ne, [ObjectVar("x")], [pv("y", "w"), pv("y", "v")]),
            gofd(ne, [ObjectVar("y")], [pv("y", "w")])]
    scopes.clear()
    result = full_normalize(g, deps)
    assert len(result.logs) == 2
    assert scopes == [log.scope for log in result.logs]



def chain_schema(seed: int) -> list:
    """Ten scopes in four generalization chains, their variables named apart,
    with four dependencies drawn over each scope's attributes."""
    rng = random.Random(seed)
    scopes = [
        node_pattern("x", {"A"}, {"a", "b", "c"}),
        node_pattern("n", {"A", "B"}, {"a", "b", "c", "d"}),
        node_pattern("x", {"A", "B", "C"}, {"a", "b", "c", "d", "e"}),
        node_pattern("m", {"D"}, {"a", "b"}),
        node_edge_pattern("m", {"D"}, {"a", "b"}, "", {"R"}, {"u", "v"}, Direction.OUT),
        node_edge_pattern("x", {"D", "E"}, {"a", "b", "c"}, "e", {"R"}, {"u", "v", "w"},
                          Direction.OUT),
        edge_pattern("", {"S"}, {"u", "v"}),
        edge_pattern("f", {"S", "T"}, {"u", "v", "w"}),
        node_edge_pattern("x", {"F"}, {"a"}, "y", {"R"}, {"u"}, Direction.IN),
        node_edge_pattern("y", {"F"}, {"a", "b"}, "x", {"R", "S"}, {"u", "v"}, Direction.IN),
    ]
    deps = []
    for scope in scopes:
        universe = sorted(attrs(scope), key=var_sort_key)
        for _ in range(4):
            deps.append(gofd(scope, rng.sample(universe, rng.randint(1, 2)),
                             rng.sample(universe, rng.randint(1, 2))))
    return deps


@pytest.mark.parametrize("seed", [1, 5])
def test_full_normalize_derives_text_and_keys_once_per_object(seed):
    deps = chain_schema(seed)
    with runs_of(GoFd.canonical, scope_key) as (canonical, keyed):
        result = full_normalize(Graph(), deps)
    assert len(result.logs) == 10
    for runs in (canonical, keyed):
        assert runs
        assert max(Counter(map(id, runs)).values()) == 1

# -- reporting -------------------------------------------------------------

def test_phase_log_to_dict_layouts():
    g = person_graph()
    dep = gofd(PERSON, [pv("x", "city")], [pv("x", "zip")])
    (log,) = scoped_normalize(g, [dep], PERSON).logs
    compact = log.to_dict()
    assert set(compact) == {"scope", "collected", "cover", "transformations",
                            "kept", "keyDependencies", "zeroMatch", "warnings"}
    assert compact["transformations"] == [{
        "dependency": dep.render(), "kind": "within-n", "matches": 3}]
    full = log.to_dict(explain=True)
    (entry,) = full["transformations"]
    assert set(entry) == {"dependency", "kind", "matches", "ops", "keyDependency"}
    assert entry["ops"][0]["op"] == "new-node"
    json.dumps(full)  # report payloads must serialize as-is


PASS_RECORDS = {
    "university": ["normalized ()-[t:{TEACHES}:{usingBook}]->(c:{Course}:{}): 3 matches, "
                   "1 plans, ops MoveProp=3, 0 value nodes created"],
    "metrics_example": ["normalized (x:{X}:{kx})-[y:{Y}:{ky}]->(): 8 matches, 1 plans, "
                        "ops MoveProp=16 NewEdge=8 NewNode=4, 4 value nodes created"],
    # reifier nodes are created but are not value nodes; an op that the parts
    # of a sweep share, or that two plans make alike, counts once
    "shipping": ["normalized ()-[l:{LEG}:{carrier,phone,rate}]->(): 4 matches, 2 plans, "
                 "ops DelEdge=4 MoveProp=16 NewEdge=12 NewNode=6, 2 value nodes created",
                 "normalized (o:{Order}:{customerID,shipCity,shipCountry}): 5 matches, "
                 "2 plans, ops MoveProp=15 NewEdge=5 NewNode=3, 3 value nodes created",
                 "normalized (s:{Store}:{region,zone})-[y:{SELLS}:{currency,tax}]->(): "
                 "5 matches, 3 plans, ops MoveProp=16 NewEdge=3 NewNode=2, "
                 "2 value nodes created"],
}


@pytest.mark.parametrize("name", sorted(PASS_RECORDS))
def test_each_pass_logs_one_debug_record(caplog, name):
    graph = fixture_graph(f"{name}.graph.json")
    schema = fixture_schema(f"{name}.schema.gofd").schema
    with caplog.at_level(logging.DEBUG, logger="gonorm"):
        result = full_normalize(graph, schema)
    records = [r for r in caplog.records if r.name == "gonorm"]
    assert [r.levelno for r in records] == [logging.DEBUG] * len(result.logs)
    assert [r.getMessage() for r in records] == PASS_RECORDS[name]
    assert logging.getLogger("gonorm").handlers == []  # the library sets none


def test_a_debug_record_counts_an_edge_two_left_sides_reify_once(caplog):
    # y.a => y.c and y.b => y.d are two sweeps over one scope, and each
    # reifies all three edges: the walk yields those ops twice
    graph = Graph()
    for nid in ("n1", "n2"):
        graph.add_node({"N"}, node_id=nid)
    for eid, (a, b) in (("e1", (1, 1)), ("e2", (1, 2)), ("e3", (2, 2))):
        graph.add_edge("n1", "n2", {"R"}, {"a": a, "b": b, "c": a, "d": b}, edge_id=eid)
    scope = edge_pattern("y", {"R"}, {"a", "b", "c", "d"})
    deps = [gofd(scope, [PropVar("y", "a")], [PropVar("y", "c")]),
            gofd(scope, [PropVar("y", "b")], [PropVar("y", "d")])]
    with caplog.at_level(logging.DEBUG, logger="gonorm"):
        full_normalize(graph, deps)
    assert [r.getMessage() for r in caplog.records if r.name == "gonorm"] == [
        "normalized ()-[y:{R}:{a,b,c,d}]->(): 3 matches, 2 plans, "
        "ops DelEdge=3 MoveProp=12 NewEdge=12 NewNode=7, 4 value nodes created"]


def test_pass_counts_are_skipped_unless_debug_is_on(caplog, monkeypatch, university_graph):
    def fail(*args):
        raise AssertionError("counted with debug logging off")

    monkeypatch.setattr(normalize_module, "_log_pass", fail)
    schema = fixture_schema("university.schema.gofd").schema
    with caplog.at_level(logging.INFO, logger="gonorm"):
        full_normalize(university_graph, schema)
    assert not [r for r in caplog.records if r.name == "gonorm"]
