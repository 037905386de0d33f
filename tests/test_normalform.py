"""Candidate keys and the per-scope / whole-schema normal-form checks."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gonorm import (
    Direction,
    FormatError,
    GnSchema,
    Graph,
    NormalForm,
    ObjectVar,
    PropVar,
    SizeLimit,
    UnboundVariable,
    ViolationReason,
    applicable_deps,
    attrs,
    check_gn1nf,
    check_gn_nf,
    check_scoped,
    edge_pattern,
    gofd,
    node_edge_pattern,
    node_pattern,
)
from gonorm.gofd import ClosureKernel, _fixpoint
from gonorm.normalform import NormalFormReport, candidate_keys
from gonorm.pattern import var_sort_key

from conftest import fixture_graph, runs_of
from oracles import _scope_closure, generalize, oracle_candidate_keys, oracle_check_scoped


def pv(name: str, key: str) -> PropVar:
    return PropVar(name, key)


EVENT = node_pattern("e", {"Event"}, {"company", "name", "time", "venue"})
EVENT_DEPS = [
    gofd(EVENT, [pv("e", "name"), pv("e", "time")], [ObjectVar("e")]),
    gofd(EVENT, [pv("e", "name")], [pv("e", "company")]),
    gofd(EVENT, [pv("e", "company"), pv("e", "time")], [pv("e", "venue")]),
]

# student/teacher/course shape: (s,c) identifies the node, t determines c
ALL_PRIME = node_pattern("x", {"A"}, {"s", "t", "c"})
ALL_PRIME_DEPS = [
    gofd(ALL_PRIME, [pv("x", "s"), pv("x", "c")], [ObjectVar("x")]),
    gofd(ALL_PRIME, [pv("x", "t")], [pv("x", "c")]),
]


# -- candidate keys --------------------------------------------------------

def test_candidate_keys_event_scope():
    keys = candidate_keys(EVENT, EVENT_DEPS)
    assert set(keys) == {frozenset({ObjectVar("e")}),
                         frozenset({pv("e", "name"), pv("e", "time")})}
    assert keys == candidate_keys(EVENT, EVENT_DEPS)  # deterministic order


def test_candidate_keys_all_prime_scope():
    keys = candidate_keys(ALL_PRIME, ALL_PRIME_DEPS)
    assert set(keys) == {frozenset({ObjectVar("x")}),
                         frozenset({pv("x", "s"), pv("x", "c")}),
                         frozenset({pv("x", "s"), pv("x", "t")})}


def test_object_variable_alone_keys_a_node_scope():
    scope = node_pattern("x", {"A"}, {"a", "b"})
    assert candidate_keys(scope, []) == (frozenset({ObjectVar("x")}),)
    kernel = ClosureKernel.for_scope(scope, [])
    assert kernel.close(kernel.mask([ObjectVar("x")])) == kernel.full
    assert kernel.close(kernel.mask([pv("x", "a")])) != kernel.full
    with pytest.raises(UnboundVariable):
        kernel.mask([pv("x", "elsewhere")])


def test_edge_variable_alone_keys_a_node_edge_scope():
    ne = node_edge_pattern("x", {"A"}, {"a"}, "y", {"R"}, {"w"}, Direction.OUT)
    assert candidate_keys(ne, []) == (frozenset({ObjectVar("y")}),)
    kernel = ClosureKernel.for_scope(ne, [])
    assert kernel.close(kernel.mask([ObjectVar("x")])) != kernel.full  # node cannot reach the edge


def test_candidate_keys_refuses_oversized_scopes():
    wide = node_pattern("x", {"A"}, {f"k{i}" for i in range(12)})
    with pytest.raises(SizeLimit):
        candidate_keys(wide, [])
    assert candidate_keys(wide, [], max_attrs=13)  # raised limit computes fine


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_candidate_keys_are_minimal_superkeys(seed):
    rng = random.Random(seed)
    keys_pool = [f"k{i}" for i in range(rng.randint(2, 4))]
    scope = node_pattern("x", {"A"}, keys_pool)
    pool = [pv("x", k) for k in keys_pool] + [ObjectVar("x")]
    deps = [gofd(scope, rng.sample(pool, rng.randint(1, 2)),
                 rng.sample(pool, 1)) for _ in range(rng.randint(0, 3))]
    for key in candidate_keys(scope, deps):
        assert _scope_closure(key, deps, scope) == attrs(scope)
        for var in key:
            assert _scope_closure(key - {var}, deps, scope) != attrs(scope)


# -- first and second forms ------------------------------------------------

def test_gn1nf_holds_on_fixture_graphs():
    for name in ("university", "students", "metrics_example"):
        assert check_gn1nf(fixture_graph(f"{name}.graph.json")).holds


def test_gn1nf_detects_smuggled_compound_value():
    g = Graph()
    g.add_node({"A"}, {"ok": 1}, node_id="n1")
    g.nodes["n1"].props["bad"] = [1, 2]  # bypass the setter on purpose
    with pytest.raises(FormatError):
        check_gn1nf(g)


def test_gn1nf_requires_a_graph_and_gn2nf_is_vacuous():
    with pytest.raises(ValueError):
        check_gn_nf(NormalForm.GN1NF, [])
    assert check_gn_nf(NormalForm.GN1NF, [], graph=Graph()).holds
    report = check_gn_nf(NormalForm.GN2NF, EVENT_DEPS)
    assert report.holds and report.violations == ()
    assert check_scoped(NormalForm.GN2NF, EVENT, EVENT_DEPS).holds
    with pytest.raises(ValueError):
        check_scoped(NormalForm.GN1NF, EVENT, EVENT_DEPS)


# -- third and Boyce-Codd forms --------------------------------------------

def test_event_scope_fails_both_strong_forms():
    r3 = check_scoped(NormalForm.GN3NF, EVENT, EVENT_DEPS)
    assert not r3.holds
    assert {v.dependency for v in r3.violations} == {
        "(e:{Event}:{company,name,time,venue})::e.name=>e.company",
        "(e:{Event}:{company,name,time,venue})::e.company,e.time=>e.venue",
    }
    assert all(v.reason is ViolationReason.NOT_PRIME for v in r3.violations)
    assert not check_scoped(NormalForm.GNBCNF, EVENT, EVENT_DEPS).holds


def test_violations_come_by_left_side_size_then_variables():
    scope = node_pattern("x", {"A"}, {"a", "b", "c", "d", "e"})
    deps = [gofd(scope, [pv("x", "b"), pv("x", "c")], [pv("x", "e")]),
            gofd(scope, [pv("x", "a"), pv("x", "d")], [pv("x", "e")]),
            gofd(scope, [pv("x", "c")], [pv("x", "d")])]
    report = check_scoped(NormalForm.GNBCNF, scope, deps)
    # left sides: unions of {b,c}, {a,d} and {c}, and single variables
    assert [v.dependency.split("::")[1] for v in report.violations] == [
        "x.c=>x.d", "x.a,x.d=>x.e", "x.b,x.c=>x.d", "x.b,x.c=>x.e",
        "x.a,x.c,x.d=>x.e", "x.a,x.b,x.c,x.d=>x.e"]


def test_both_strong_forms_refuse_oversized_scopes():
    wide = node_pattern("x", {"A"}, {f"k{i}" for i in range(12)})
    deps = [gofd(wide, [pv("x", f"k{i}")], [pv("x", f"k{i + 1}")]) for i in (0, 2, 4)]
    for form in (NormalForm.GNBCNF, NormalForm.GN3NF):
        with pytest.raises(SizeLimit):
            check_scoped(form, wide, deps)
        assert not check_scoped(form, wide, deps, max_attrs=13).holds


def random_scope(rng: random.Random):
    def keys(pool: list[str]) -> list[str]:
        return rng.sample(pool, rng.randint(len(pool) // 2, len(pool)))

    shape = rng.choice(("node", "edge", "node-edge"))
    if shape == "node":
        return node_pattern("x", {"A", "B"}, keys(["a", "b", "c", "d", "e"]))
    if shape == "edge":
        return edge_pattern("y", {"R"}, keys(["u", "v", "w", "z"]))
    return node_edge_pattern("x", {"A", "B"}, keys(["a", "b"]), "y", {"R"},
                             keys(["u", "v", "w"]), rng.choice((Direction.OUT, Direction.IN)))


def random_schema_dep(rng: random.Random, source):
    """Mostly property left sides, so that few left sides are keys."""
    pool = sorted(attrs(source), key=lambda v: (v.name, getattr(v, "key", "")))
    props = [v for v in pool if isinstance(v, PropVar)]
    if props and rng.random() < 0.85:
        lhs = rng.sample(props, rng.randint(1, min(2, len(props))))
    else:
        lhs = [rng.choice(pool)]
    rest = [v for v in props if v not in lhs]
    if not rest or rng.random() < 0.15:
        rest = pool
    return gofd(source, lhs, rng.sample(rest, rng.randint(1, min(2, len(rest)))))


def dense_schema_dep(rng: random.Random, source):
    """Right sides that often hold every object variable, so that most unions
    of left sides are superkeys; now and then an empty left side, which the
    parser refuses but ``gofd`` makes."""
    pool = sorted(attrs(source), key=var_sort_key)
    objects = [v for v in pool if isinstance(v, ObjectVar)]
    lhs = [] if rng.random() < 0.1 else rng.sample(pool, rng.randint(1, min(3, len(pool))))
    rhs = objects if rng.random() < 0.6 else rng.sample(pool, rng.randint(1, min(2, len(pool))))
    return gofd(source, lhs, rhs)


def random_schema(rng: random.Random, scope, make_dep, most: int):
    # dependencies come from the scope itself, from patterns that generalize
    # it, and from an unrelated pattern that never applies
    schema = []
    for _ in range(rng.randint(1, most)):
        roll = rng.random()
        if roll < 0.3:
            source = scope
        elif roll < 0.9:
            source = generalize(rng, scope)
        else:
            source = node_pattern("z", {"Z"}, {"a"})
        schema.append(make_dep(rng, source))
    return schema


def assert_agrees_with_oracles(scope, schema):
    for form in (NormalForm.GNBCNF, NormalForm.GN3NF):
        assert check_scoped(form, scope, schema).violations == \
            oracle_check_scoped(form, scope, schema)
    deps = applicable_deps(schema, scope)
    assert candidate_keys(scope, deps) == oracle_candidate_keys(scope, deps)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_check_scoped_and_candidate_keys_agree_with_oracles(seed):
    rng = random.Random(seed)
    scope = random_scope(rng)
    assert_agrees_with_oracles(scope, random_schema(rng, scope, random_schema_dep, 7))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_check_scoped_and_candidate_keys_agree_with_oracles_on_dense_schemas(seed):
    rng = random.Random(seed)
    scope = random_scope(rng)
    assert_agrees_with_oracles(scope, random_schema(rng, scope, dense_schema_dep, 10))


def test_empty_left_sides_agree_with_oracles():
    scope = node_pattern("x", {"A"}, {"a", "b", "c"})
    constant = gofd(scope, [], [pv("x", "a")])  # the empty set is not a superkey
    everything = gofd(scope, [], [ObjectVar("x")])  # the empty set is a superkey
    other = gofd(scope, [pv("x", "b")], [pv("x", "c")])
    for schema in ([constant], [constant, other], [everything], [other, everything]):
        assert_agrees_with_oracles(scope, schema)
    # the empty set is never reported as a key; every single variable is one
    assert candidate_keys(scope, [everything, other]) == tuple(
        frozenset({v}) for v in sorted(attrs(scope), key=var_sort_key))
    report = check_scoped(NormalForm.GNBCNF, scope, [constant])
    assert report.violations[0].dependency == "(x:{A}:{a,b,c})::=>x.a"


def test_normal_form_checks_close_only_left_sides_that_can_violate():
    # every union with one of the seven key left sides is a superkey, {a} | {c}
    # among them: of the 2^10 unions of left sides, few need a closure
    scope = node_pattern("x", {"A"}, {"a", "b", "c", "d", "e"} | {f"k{i}" for i in range(6)})
    deps = [gofd(scope, [pv("x", f"k{i}")], [ObjectVar("x")]) for i in range(6)] + [
        gofd(scope, [pv("x", "a"), pv("x", "c")], [ObjectVar("x")]),
        gofd(scope, [pv("x", "a")], [pv("x", "b")]),
        gofd(scope, [pv("x", "c")], [pv("x", "d")]),
        gofd(scope, [pv("x", "e")], [pv("x", "b")])]
    size = len(attrs(scope))
    keys = candidate_keys(scope, deps)
    assert len(keys) == 8
    closed = {}
    for form in (NormalForm.GNBCNF, NormalForm.GN3NF):
        with runs_of(_fixpoint) as (seeds,):
            assert not check_scoped(form, scope, deps).holds
        # a set already known to be a superkey is never closed
        assert (1 << size) - 1 not in seeds
        closed[form] = len(seeds)
    # each left side and each single variable at most once, and the few
    # unions of left sides that are not keys
    assert closed[NormalForm.GNBCNF] <= len(deps) + size
    # the key search: the empty set, and one shrink per key, which closes
    # at most one set per variable
    assert closed[NormalForm.GN3NF] <= closed[NormalForm.GNBCNF] + 1 + size * len(keys)


def test_all_prime_scope_separates_3nf_from_bcnf():
    assert check_scoped(NormalForm.GN3NF, ALL_PRIME, ALL_PRIME_DEPS).holds
    rb = check_scoped(NormalForm.GNBCNF, ALL_PRIME, ALL_PRIME_DEPS)
    assert not rb.holds
    assert [(v.dependency, v.reason) for v in rb.violations] == [
        ("(x:{A}:{c,s,t})::x.t=>x.c", ViolationReason.NOT_SUPERKEY)]


def test_key_dependencies_put_a_node_scope_in_bcnf():
    scope = node_pattern("x", {"A"}, {"a", "b"})
    key_dep = gofd(scope, [pv("x", "a")], [ObjectVar("x")])
    assert check_scoped(NormalForm.GNBCNF, scope, [key_dep]).holds
    assert check_scoped(NormalForm.GNBCNF, scope, []).holds  # structure alone


def test_node_edge_scope_with_node_properties_fails_structurally():
    ne = node_edge_pattern("x", {"A"}, {"a"}, "y", {"R"}, {"w"}, Direction.OUT)
    rb = check_scoped(NormalForm.GNBCNF, ne, [])
    assert not rb.holds
    assert [v.dependency for v in rb.violations] == [
        "(x:{A}:{a})-[y:{R}:{w}]->()::x=>x.a"]
    assert not check_scoped(NormalForm.GN3NF, ne, []).holds
    bare = node_edge_pattern("x", {"A"}, (), "y", {"R"}, {"w"}, Direction.OUT)
    assert check_scoped(NormalForm.GNBCNF, bare, []).holds


def test_whole_schema_check_visits_each_scope_once():
    other = node_pattern("x", {"Other"}, {"p", "q"})
    fine = gofd(other, [pv("x", "p")], [ObjectVar("x")])
    report = check_gn_nf(NormalForm.GNBCNF, [fine] + ALL_PRIME_DEPS)
    assert not report.holds
    assert {v.scope for v in report.violations} == {"(x:{A}:{c,s,t})"}
    alias = gofd(node_pattern("v", {"A"}, {"s", "t", "c"}),
                 [pv("v", "t")], [pv("v", "c")])
    again = check_gn_nf(NormalForm.GNBCNF, ALL_PRIME_DEPS + [alias])
    assert len(again.violations) == len(report.violations)  # alpha-variant scope not revisited
    assert check_gn_nf(NormalForm.GNBCNF, [fine]).holds


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_whole_schema_violations_are_the_per_scope_lists_in_scope_order(seed):
    # several scopes, the generalized ones often alpha-renamed copies of each other
    rng = random.Random(seed)
    deps = [dep for _ in range(rng.randint(2, 4))
            for dep in random_schema(rng, random_scope(rng), random_schema_dep, 4)]
    scopes = GnSchema(deps).scopes()
    for form in (NormalForm.GNBCNF, NormalForm.GN3NF):
        expected = [violation for scope in scopes
                    for violation in check_scoped(form, scope, deps).violations]
        assert len(set(expected)) == len(expected)
        assert check_gn_nf(form, deps) == NormalFormReport(form, not expected, tuple(expected))
