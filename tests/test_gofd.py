"""Dependencies: satisfaction, restriction, implication, minimal covers."""

from __future__ import annotations

import copy
import json
import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gonorm import (
    DepClass,
    Direction,
    NodeEdgePattern,
    GnSchema,
    Graph,
    ObjectVar,
    PropVar,
    ScopeMismatch,
    UnboundVariable,
    applicable_deps,
    attrs,
    canonicalize,
    classify,
    closure,
    edge_pattern,
    evaluate,
    gofd,
    minimal_cover,
    node_edge_pattern,
    node_pattern,
    rename_map,
    render_pattern,
    restrict,
    satisfies,
    scope_key,
    scope_closure,
    structurally_implied,
)

from gonorm import cli
from gonorm.gofd import ClosureKernel
from gonorm.graph import column_keys, value_key
from gonorm.pattern import var_sort_key

from oracles import (
    PATTERN_SHAPES,
    oracle_attrs,
    oracle_canonical,
    oracle_closure,
    oracle_implies,
    oracle_minimal_cover,
    oracle_render,
    oracle_render_pattern,
    oracle_satisfies,
    oracle_scope_key,
    oracle_witnesses,
    random_graph,
    random_pattern,
)

from conftest import REPR_TRAPS, VALUE_POOLS, Level, SameRepr, runs_of

NODE3 = node_pattern("x", {"A"}, {"a", "b", "c"})


def pv(name: str, key: str) -> PropVar:
    return PropVar(name, key)


# -- construction and identity ---------------------------------------------

def test_render_and_trivial():
    dep = gofd(NODE3, [pv("x", "a")], [pv("x", "b")])
    assert dep.render() == "(x:{A}:{a,b,c})::x.a=>x.b"
    assert not dep.is_trivial()
    assert gofd(NODE3, [pv("x", "a"), pv("x", "b")], [pv("x", "a")]).is_trivial()


def test_canonical_ignores_variable_names():
    scope_v = node_pattern("veryLongName", {"A"}, {"a", "b", "c"})
    a = gofd(NODE3, [pv("x", "a")], [pv("x", "b")])
    b = gofd(scope_v, [pv("veryLongName", "a")], [pv("veryLongName", "b")])
    assert a.canonical() == b.canonical()
    schema = GnSchema([a])
    assert not schema.add(b)  # alpha-variant is a duplicate
    assert len(schema) == 1 and b in schema


# -- text, keys and attributes are derived once per object -----------------

LABEL_SETS = st.frozensets(st.sampled_from(("A", "B", "R")), max_size=2)
KEY_SETS = st.frozensets(st.sampled_from(("a", "b", "w")), max_size=3)
NODE_VARS = st.sampled_from(("x", "n", "y"))


@st.composite
def patterns(draw):
    shape = draw(st.sampled_from(("node", "edge", "node-edge")))
    if shape == "node":
        return node_pattern(draw(NODE_VARS), draw(LABEL_SETS), draw(KEY_SETS))
    edge_var = draw(st.sampled_from(("y", "e", "x", "")))  # "" is the anonymous edge
    if shape == "edge":
        return edge_pattern(edge_var, draw(LABEL_SETS), draw(KEY_SETS))
    return node_edge_pattern(draw(NODE_VARS.filter(lambda name: name != edge_var)),
                             draw(LABEL_SETS), draw(KEY_SETS), edge_var,
                             draw(LABEL_SETS), draw(KEY_SETS),
                             draw(st.sampled_from(list(Direction))))


@st.composite
def dependencies(draw):
    scope = draw(patterns())
    side = st.frozensets(st.sampled_from(sorted(oracle_attrs(scope), key=var_sort_key)),
                         max_size=3)
    return gofd(scope, draw(side), draw(side))


def assert_derived_values_match_oracles(dep) -> None:
    scope = dep.scope
    assert attrs(scope) == oracle_attrs(scope)
    assert render_pattern(scope) == oracle_render_pattern(scope)
    assert scope_key(scope) == oracle_scope_key(scope)
    assert render_pattern(canonicalize(scope)) == oracle_scope_key(scope)
    assert dep.render() == oracle_render(dep)
    assert dep.canonical() == oracle_canonical(dep)


@settings(max_examples=200, deadline=None)
@given(dependencies(), patterns())
def test_memoized_text_keys_and_attributes_match_the_uncached_formulas(dep, other):
    def identity(obj) -> tuple:
        return repr(obj), hash(obj)

    twin = pickle.loads(pickle.dumps(dep))  # an equal object, nothing derived yet
    before = identity(dep), identity(dep.scope)
    assert_derived_values_match_oracles(dep)  # derives and keeps them
    assert (identity(dep), identity(dep.scope)) == before
    assert dep == twin and twin == dep and dep.scope == twin.scope
    assert_derived_values_match_oracles(twin)

    # copies keep what was derived; objects with other fields derive their own
    labels = "node_labels" if isinstance(dep.scope, NodeEdgePattern) else "labels"
    relabelled = replace(dep.scope, **{labels: getattr(dep.scope, labels) | {"Z"}})
    for derived in (copy.copy(dep), pickle.loads(pickle.dumps(dep)),
                    replace(dep, scope=copy.copy(dep.scope)),
                    replace(dep, lhs=dep.rhs, rhs=dep.lhs),
                    replace(dep, scope=relabelled),
                    restrict(dep, canonicalize(dep.scope)),
                    restrict(dep, other)):
        assert_derived_values_match_oracles(derived)
    assert render_pattern(relabelled) != render_pattern(dep.scope)


def test_check_bound_rejects_foreign_variables():
    with pytest.raises(UnboundVariable):
        satisfies(Graph(), gofd(NODE3, [pv("x", "a")], [pv("x", "nope")]))
    with pytest.raises(UnboundVariable):
        classify(gofd(NODE3, [ObjectVar("q")], [pv("x", "a")]))


def test_classify_table():
    ne = node_edge_pattern("x", {"A"}, {"k"}, "y", {"R"}, {"w"}, Direction.OUT)
    assert classify(gofd(NODE3, [pv("x", "a")], [pv("x", "b")])) is DepClass.WITHIN_NODE
    assert classify(gofd(ne, [pv("x", "k")], [ObjectVar("x")])) is DepClass.WITHIN_NODE
    edge = edge_pattern("y", {"R"}, {"u", "v"})
    assert classify(gofd(edge, [pv("y", "u")], [pv("y", "v")])) is DepClass.WITHIN_EDGE
    assert classify(gofd(ne, [pv("y", "w")], [ObjectVar("y")])) is DepClass.WITHIN_EDGE
    assert classify(gofd(ne, [pv("x", "k")], [pv("y", "w")])) is DepClass.BETWEEN
    assert classify(gofd(ne, [ObjectVar("x")], [ObjectVar("y")])) is DepClass.BETWEEN


# -- satisfaction ----------------------------------------------------------

def two_row_graph(val1, val2) -> Graph:
    g = Graph()
    g.add_node({"A"}, {"a": 1, "b": val1, "c": 0}, node_id="n1")
    g.add_node({"A"}, {"a": 1, "b": val2, "c": 0}, node_id="n2")
    return g


def test_satisfies_holds_and_violates():
    dep = gofd(NODE3, [pv("x", "a")], [pv("x", "b")])
    assert satisfies(two_row_graph("same", "same"), dep).holds
    verdict = satisfies(two_row_graph("same", "other"), dep)
    assert not verdict.holds and len(verdict.witnesses) == 1
    # only the last right-side column differs
    g = two_row_graph("same", "same")
    g.set_prop("n2", "c", 1)
    verdict = satisfies(g, gofd(NODE3, [pv("x", "a")], [pv("x", "b"), pv("x", "c")]))
    assert not verdict.holds and len(verdict.witnesses) == 1


def test_witnesses_decode_to_agreeing_lhs_and_differing_rhs():
    dep = gofd(NODE3, [pv("x", "a")], [pv("x", "b")])
    verdict = satisfies(two_row_graph(10, 20), dep)
    index = {v: i for i, v in enumerate(verdict.variables)}
    row1, row2 = verdict.witnesses[0]
    assert row1[index[pv("x", "a")]] == row2[index[pv("x", "a")]]
    assert row1[index[pv("x", "b")]] != row2[index[pv("x", "b")]]
    assert {row1[index[ObjectVar("x")]], row2[index[ObjectVar("x")]]} == {"n1", "n2"}


def test_matches_of_an_alpha_renamed_scope_are_refused():
    g = two_row_graph("same", "same")
    dep = gofd(NODE3, [pv("x", "a")], [pv("x", "b")])
    renamed = node_pattern("v", {"A"}, {"a", "b", "c"})
    with pytest.raises(ScopeMismatch, match="matches were not evaluated for the scope of"):
        satisfies(g, dep, matches=evaluate(renamed, g))
    assert satisfies(g, dep, matches=evaluate(NODE3, g)).holds


def test_max_witnesses_caps_collection():
    g = Graph()
    for i in range(8):
        g.add_node({"A"}, {"a": 1, "b": i, "c": 0})
    dep = gofd(NODE3, [pv("x", "a")], [pv("x", "b")])
    assert len(satisfies(g, dep).witnesses) == 5
    assert len(satisfies(g, dep, max_witnesses=2).witnesses) == 2
    assert len(satisfies(g, dep, max_witnesses=100).witnesses) == 7


def random_dep(rng: random.Random):
    scope = random_pattern(rng)
    pool = sorted(attrs(scope), key=lambda v: (v.name, getattr(v, "key", "")))
    lhs = rng.sample(pool, rng.randint(1, min(2, len(pool))))
    rhs = rng.sample(pool, rng.randint(1, min(2, len(pool))))
    return gofd(scope, lhs, rhs)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_satisfies_agrees_with_pairwise_oracle(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    dep = random_dep(rng)
    assert satisfies(g, dep).holds == oracle_satisfies(g, dep)


def dep_of_shape(rng: random.Random, shape: str):
    """A dependency on a random scope of ``shape``, sides drawn as ``random_dep``'s."""
    scope = random_pattern(rng, shape)
    pool = sorted(attrs(scope), key=var_sort_key)
    lhs = rng.sample(pool, rng.randint(0, min(2, len(pool))))
    rhs = rng.sample(pool, rng.randint(1, min(2, len(pool))))
    return gofd(scope, lhs, rhs)


def as_texts(row: dict) -> dict:
    """A row with each value replaced by its JSON text."""
    return {var: json.dumps(value) for var, value in row.items()}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), VALUE_POOLS, st.one_of(st.none(), st.integers(-1, 4)))
@example(26, REPR_TRAPS, 2)  # one example per scope shape that repr keys get wrong
@example(51, REPR_TRAPS, 2)
@example(81, REPR_TRAPS, 2)
def test_witnesses_agree_with_the_oracle_on_every_scope_shape(seed, values, cap):
    rng = random.Random(seed)
    graph = random_graph(rng, values=values)
    for shape in PATTERN_SHAPES:
        dep = dep_of_shape(rng, shape)
        capped = {} if cap is None else {"max_witnesses": cap}
        verdict = satisfies(graph, dep, **capped)
        names = verdict.variables
        got = [(as_texts(dict(zip(names, a))), as_texts(dict(zip(names, b))))
               for a, b in verdict.witnesses]
        assert got == [(as_texts(a), as_texts(b))
                       for a, b in oracle_witnesses(graph, dep, **capped)]
        assert verdict.holds == oracle_satisfies(graph, dep)


def subclass_graph(first, second) -> Graph:
    g = Graph()
    g.add_node({"C"}, {"k": "k1", "v": first}, node_id="c1")
    g.add_node({"C"}, {"k": "k1", "v": second}, node_id="c2")
    return g


C_K_V = gofd(node_pattern("c", {"C"}, {"k", "v"}), [pv("c", "k")], [pv("c", "v")])


def test_a_str_subclass_is_compared_by_its_json_text_not_its_repr(tmp_path, monkeypatch,
                                                                   capsys):
    x, y = SameRepr("x"), SameRepr("y")
    assert repr(x) == repr(y)
    graph = subclass_graph(x, y)
    verdict = satisfies(graph, C_K_V)
    assert not verdict.holds
    assert verdict.witnesses == ((("c1", "k1", x), ("c2", "k1", y)),)
    schema = tmp_path / "s.gofd"
    schema.write_text("(c:{C}:{k,v}) :: c.k => c.v\n")
    monkeypatch.setattr(cli, "load_graph", lambda path: graph)
    assert cli.main(["check", "--graph", "g.json", "--schema", str(schema),
                     "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is False
    assert report["results"][0]["witnesses"] == [[["c1", "k1", "x"], ["c2", "k1", "y"]]]


def test_an_int_enum_member_is_the_int_its_json_text_says():
    assert satisfies(subclass_graph(Level.ONE, 1), C_K_V).holds
    assert not satisfies(subclass_graph(Level.TWO, 1), C_K_V).holds


@pytest.mark.parametrize("values", [(1, True, "a", "é", 10**20), (1.5, -0.0, 0.0, 1e16)],
                         ids=["mixed", "finite-floats"])
def test_satisfies_makes_no_python_call_per_value(values):
    graph = random_graph(random.Random(7), values=values)
    for shape in PATTERN_SHAPES:
        dep = dep_of_shape(random.Random(shape), shape)
        with runs_of(value_key, json.dumps) as (keyed, dumped):
            verdict = satisfies(graph, dep)
        assert keyed == [] and dumped == []
        assert verdict.holds == oracle_satisfies(graph, dep)


def test_a_failing_check_over_ints_and_floats_dumps_no_value():
    # JSON numbers such as 1 and 1.5 in one key load as exactly this mix
    g = Graph()
    for i in range(1000):
        g.add_node({"C"}, {"k": i % 10, "v": i % 7 if i % 2 else i / 4}, node_id=f"c{i}")
    with runs_of(json.dumps) as (dumped,):
        verdict = satisfies(g, C_K_V)
    assert dumped == []
    assert not verdict.holds and verdict.witnesses
    assert not oracle_satisfies(g, C_K_V)


def test_a_failing_check_encodes_each_descriptor_column_once():
    # a and b determine v but not w, the last right-side column checked
    dep = gofd(node_pattern("c", {"C"}, {"a", "b", "v", "w"}),
               [pv("c", "a"), pv("c", "b")], [pv("c", "v"), pv("c", "w")])
    g = Graph()
    for i in range(40):
        g.add_node({"C"}, {"a": i % 3, "b": "x", "v": i % 3, "w": i}, node_id=f"c{i}")
    with runs_of(column_keys) as (encoded,):
        verdict = satisfies(g, dep, max_witnesses=3)
    assert len(encoded) == 4  # a, b, v and w
    assert not verdict.holds and len(verdict.witnesses) == 3
    assert not oracle_satisfies(g, dep)


# -- restriction -----------------------------------------------------------

Q_GENERAL = node_pattern("c", {"A"}, {"a", "b"})
Q_SPECIFIC = node_edge_pattern("x", {"A", "B"}, {"a", "b"}, "y", {"R"}, {"w"},
                               Direction.OUT)


def test_restrict_renames_positionally():
    dep = gofd(Q_GENERAL, [pv("c", "a")], [pv("c", "b")])
    moved = restrict(dep, Q_SPECIFIC)
    assert moved.scope == Q_SPECIFIC
    assert moved.lhs == frozenset({pv("x", "a")})
    assert moved.rhs == frozenset({pv("x", "b")})


def test_restrict_renames_an_object_variable_positionally():
    dep = gofd(Q_GENERAL, [ObjectVar("c")], [pv("c", "a")])
    moved = restrict(dep, Q_SPECIFIC)
    assert moved.lhs == frozenset({ObjectVar("x")})


def test_restrict_onto_an_equal_scope_returns_the_dependency_itself():
    dep = gofd(Q_SPECIFIC, [pv("x", "a")], [ObjectVar("y")])
    twin = replace(Q_SPECIFIC)  # equal, but another object
    assert twin == Q_SPECIFIC and twin is not Q_SPECIFIC
    with runs_of(rename_map) as (renamed,):
        assert restrict(dep, twin) is dep
        assert restrict(dep, Q_SPECIFIC) is dep
    assert renamed == []
    alpha = node_edge_pattern("n", {"A", "B"}, {"a", "b"}, "e", {"R"}, {"w"}, Direction.OUT)
    moved = restrict(dep, alpha)
    assert moved.lhs == frozenset({pv("n", "a")}) and moved.rhs == frozenset({ObjectVar("e")})
    assert restrict(moved, Q_SPECIFIC) == dep


# -- structural axioms and closures ----------------------------------------

def test_structurally_implied_node_scope():
    implied = structurally_implied(NODE3)
    assert {(next(iter(d.lhs)), next(iter(d.rhs))) for d in implied} == {
        (ObjectVar("x"), pv("x", "a")),
        (ObjectVar("x"), pv("x", "b")),
        (ObjectVar("x"), pv("x", "c")),
    }


def test_structurally_implied_edge_determines_endpoint():
    implied = structurally_implied(Q_SPECIFIC)
    pairs = {(next(iter(d.lhs)), next(iter(d.rhs))) for d in implied}
    assert (ObjectVar("y"), ObjectVar("x")) in pairs
    assert len(implied) == 4  # a, b, w, and the endpoint rule


def test_closure_chains_and_stops():
    deps = [gofd(NODE3, [pv("x", "a")], [pv("x", "b")]),
            gofd(NODE3, [pv("x", "b")], [pv("x", "c")])]
    assert closure([pv("x", "a")], deps) == frozenset(
        {pv("x", "a"), pv("x", "b"), pv("x", "c")})
    assert closure([pv("x", "b")], deps) == frozenset({pv("x", "b"), pv("x", "c")})
    assert closure([pv("x", "c")], deps) == frozenset({pv("x", "c")})


def test_scope_closure_pulls_in_structural_consequences():
    got = scope_closure([ObjectVar("y")], [], Q_SPECIFIC)
    assert got == frozenset({ObjectVar("y"), pv("y", "w"), ObjectVar("x"),
                             pv("x", "a"), pv("x", "b")})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_closure_agrees_with_subset_oracle(seed):
    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(rng.randint(2, 5))]
    scope = node_pattern("x", {"A"}, keys)
    universe = sorted(attrs(scope), key=lambda v: (v.name, getattr(v, "key", "")))
    deps = []
    for _ in range(rng.randint(1, 4)):
        lhs = rng.sample(universe, rng.randint(1, 2))
        rhs = rng.sample(universe, rng.randint(1, 2))
        deps.append(gofd(scope, lhs, rhs))
    seed_vars = rng.sample(universe, rng.randint(1, 2))
    assert closure(seed_vars, deps) == oracle_closure(seed_vars, deps)


def random_node_edge_scope(rng: random.Random):
    return node_edge_pattern("x", {"A"}, rng.sample(["a", "b", "c"], rng.randint(0, 3)),
                             "y", {"R"}, rng.sample(["u", "v"], rng.randint(0, 2)),
                             rng.choice((Direction.OUT, Direction.IN)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_scope_closure_on_node_edge_scopes_agrees_with_oracle(seed):
    # the structural edge => node axiom carries the edge's closure to the node
    rng = random.Random(seed)
    scope = random_node_edge_scope(rng)
    universe = sorted(attrs(scope), key=lambda v: (v.name, getattr(v, "key", "")))
    deps = [gofd(scope, rng.sample(universe, rng.randint(1, 2)),
                 rng.sample(universe, rng.randint(1, 2)))
            for _ in range(rng.randint(0, 3))]
    seed_vars = rng.sample(universe, rng.randint(1, 2))
    if rng.random() < 0.5:
        seed_vars.append(ObjectVar("y"))
    expected = oracle_closure(seed_vars, deps + list(structurally_implied(scope)))
    assert scope_closure(seed_vars, deps, scope) == expected


# -- schema-level reasoning ------------------------------------------------

def course_like() -> tuple:
    q1 = node_pattern("x", {"A"}, {"t", "p", "l"})
    q2 = node_edge_pattern("x", {"A", "B"}, {"t", "p", "l"}, "y", {"R"}, {"u"},
                           Direction.OUT)
    f1 = gofd(q1, [pv("x", "t")], [pv("x", "p")])
    f2 = gofd(q1, [pv("x", "t")], [pv("x", "l")])
    f3 = gofd(q2, [pv("x", "p")], [pv("x", "l")])
    f4 = gofd(q2, [pv("x", "l")], [pv("y", "u")])
    return q1, q2, f1, f2, f3, f4


def test_applicable_deps_gathers_down_the_hierarchy():
    q1, q2, f1, f2, f3, f4 = course_like()
    at_specific = applicable_deps([f1, f2, f3, f4], q2)
    assert len(at_specific) == 4
    assert all(d.scope == q2 for d in at_specific)
    at_general = applicable_deps([f1, f2, f3, f4], q1)
    assert {d.canonical() for d in at_general} == {f1.canonical(), f2.canonical()}


def implies(schema, dep) -> bool:
    """Entailment as the library decides it: one closure on the scope's kernel."""
    kernel = ClosureKernel.for_scope(dep.scope, applicable_deps(schema, dep.scope))
    rhs = kernel.mask(dep.rhs)
    return kernel.close(kernel.mask(dep.lhs)) & rhs == rhs


def test_implies_transitive_and_structural():
    q1, q2, f1, f2, f3, f4 = course_like()
    schema = [f1, f2, f3, f4]
    assert implies(schema, gofd(q2, [pv("x", "t")], [pv("y", "u")]))
    assert implies(schema, gofd(q1, [ObjectVar("x")], [pv("x", "t")]))  # structural
    assert not implies(schema, gofd(q1, [pv("x", "p")], [pv("x", "l")]))  # only on q2
    assert not implies([f1], gofd(q1, [pv("x", "p")], [pv("x", "t")]))


def test_minimal_cover_drops_transitive_member():
    deps = [gofd(NODE3, [pv("x", "a")], [pv("x", "b")]),
            gofd(NODE3, [pv("x", "b")], [pv("x", "c")]),
            gofd(NODE3, [pv("x", "a")], [pv("x", "c")])]
    cover = minimal_cover(deps)
    assert {d.render() for d in cover} == {
        "(x:{A}:{a,b,c})::x.a=>x.b", "(x:{A}:{a,b,c})::x.b=>x.c"}
    for dep in deps:
        assert oracle_implies(cover, dep)


def test_minimal_cover_shrinks_left_sides_and_recombines():
    deps = [gofd(NODE3, [pv("x", "a")], [pv("x", "b")]),
            gofd(NODE3, [pv("x", "a"), pv("x", "b")], [pv("x", "c")])]
    cover = minimal_cover(deps)
    assert [d.render() for d in cover] == ["(x:{A}:{a,b,c})::x.a=>x.b,x.c"]


def test_minimal_cover_drops_structurally_implied_members():
    dep = gofd(NODE3, [ObjectVar("x")], [pv("x", "a")])
    assert minimal_cover([dep]) == ()
    real = gofd(NODE3, [pv("x", "a")], [pv("x", "b")])
    assert [d.render() for d in minimal_cover([dep, real])] == [real.render()]


def test_minimal_cover_identity_subsumes_same_lhs_property_parts():
    # a => x reaches every property of x through the structural axioms
    ident = gofd(NODE3, [pv("x", "a")], [ObjectVar("x")])
    prop = gofd(NODE3, [pv("x", "a")], [pv("x", "b")])
    assert [d.render() for d in minimal_cover([ident, prop])] == [ident.render()]


def test_minimal_cover_aligns_alpha_variant_scopes():
    other = node_pattern("v", {"A"}, {"a", "b", "c"})
    deps = [gofd(NODE3, [pv("x", "a")], [pv("x", "b")]),
            gofd(other, [pv("v", "b")], [pv("v", "c")])]
    cover = minimal_cover(deps)
    assert len(cover) == 2 and all(d.scope == NODE3 for d in cover)


def test_minimal_cover_rejects_mixed_scopes():
    with pytest.raises(ScopeMismatch):
        minimal_cover([gofd(NODE3, [pv("x", "a")], [pv("x", "b")]),
                       gofd(node_pattern("x", {"Z"}, {"a", "b"}),
                            [pv("x", "a")], [pv("x", "b")])])
    assert minimal_cover([]) == ()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_minimal_cover_is_equivalent_to_input(seed):
    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(4)]
    scope = node_pattern("x", {"A"}, keys)
    pool = [pv("x", k) for k in keys]
    deps = []
    for _ in range(rng.randint(1, 5)):
        lhs = rng.sample(pool, rng.randint(1, 2))
        rhs = rng.sample(pool, rng.randint(1, 2))
        deps.append(gofd(scope, lhs, rhs))
    cover = minimal_cover(deps)
    assert cover == oracle_minimal_cover(deps)
    for dep in deps:
        assert oracle_implies(cover, dep)
    for dep in cover:
        assert oracle_implies(deps, dep)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_minimal_cover_on_node_edge_scopes_agrees_with_oracle(seed):
    # object variables on both sides, so the structural axioms take part
    rng = random.Random(seed)
    scope = random_node_edge_scope(rng)
    pool = sorted(attrs(scope), key=lambda v: (v.name, getattr(v, "key", "")))
    deps = [gofd(scope, rng.sample(pool, rng.randint(1, min(3, len(pool)))),
                 rng.sample(pool, rng.randint(1, 2)))
            for _ in range(rng.randint(1, 6))]
    assert minimal_cover(deps) == oracle_minimal_cover(deps)
