"""End-to-end acceptance checks.

Each test covers one numbered criterion and reports a single PASS/FAIL line
in the terminal summary.  Expected values are exact (counts and rationals
compare with ``==``); runtime budgets are asserted where stated.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction

from conftest import FIXTURES, fixture_graph, record_acceptance
from oracles import (
    CASE_KINDS,
    generalize,
    oracle_closure,
    oracle_implies,
    oracle_potentials,
    oracle_satisfies,
    projection,
    random_graph,
    random_pattern,
    random_satisfying_case,
    rows_as_maps,
    specialize,
)

from gonorm import (
    Direction,
    NodePattern,
    NormalForm,
    ObjectVar,
    PropVar,
    attrs,
    build_report,
    check_gn_nf,
    closure,
    dump_graph,
    evaluate,
    full_normalize,
    gofd,
    invert,
    load_schema,
    minimal_cover,
    more_general_than,
    node_edge_pattern,
    node_pattern,
    parse_gofd,
    per_graph_metrics,
    profile,
    rename_map,
    rename_variable,
    render_pattern,
    restrict,
    satisfies,
    scoped_normalize,
    sort_scopes,
    structurally_implied,
    two_decimals,
    verify_lossless,
    Graph,
)


def _criterion(number: str, label: str, budget: float | None, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        record_acceptance(f"criterion {number}: FAIL — {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        record_acceptance(
            f"criterion {number}: FAIL — {label} ({elapsed:.2f}s over {budget:g}s budget)")
        raise AssertionError(
            f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s >= {budget:g}s")
    record_acceptance(f"criterion {number}: PASS — {label} ({elapsed:.2f}s)")


# -- criterion 1: university graph, object-determined edge property -------

def test_criterion_1_university_full_normalize():
    def body():
        graph = fixture_graph("university.graph.json")
        schema = load_schema(str(FIXTURES / "university.schema.gofd")).schema

        before = per_graph_metrics(graph)
        assert (before.node_count, before.edge_count) == (4, 3)
        assert before.avg_node_props == Fraction(5, 4)
        assert before.avg_edge_props == Fraction(2, 1)

        result = full_normalize(graph, schema)
        after = per_graph_metrics(result.graph)
        assert (after.node_count, after.edge_count) == (4, 3)
        assert after.avg_node_props == Fraction(3, 2)
        assert after.avg_edge_props == Fraction(1, 1)

        carriers = [nid for nid in result.graph.nodes
                    if "usingBook" in result.graph.props[nid]]
        assert carriers == ["n1"]
        assert result.graph.props["n1"]["usingBook"] == "Alice"
        assert all("usingBook" not in result.graph.props[eid]
                   for eid in result.graph.edges)

    _criterion("1", "university scenario normalizes onto the course node", 1.0, body)


# -- criterion 2: group-number dependency on the student subgraph ---------

def test_criterion_2_group_dependency_scoped_normalize():
    def body():
        graph = fixture_graph("students.graph.json")
        schema = load_schema(str(FIXTURES / "students.schema.gofd")).schema
        dep = schema.deps[0]

        result = scoped_normalize(graph, schema, dep.scope)
        out = result.graph

        value_nodes = [nid for nid in out.nodes if nid.startswith("sk:val|")]
        assert len(value_nodes) == 1
        val = value_nodes[0]
        assert out.props[val] == {"groupNo": 1, "name": "Heroes"}
        assert out.nodes[val] == {"Sk_InGroupWithGroupNo"}

        reifiers = sorted(nid for nid in out.nodes if nid.startswith("sk:reif|"))
        assert len(reifiers) == 2
        for rid in reifiers:
            assert out.nodes[rid] == {"inGroupWith"}
            assert out.props[rid] == {}

        created = [eid for eid in out.edges if eid.startswith("ske:")]
        assert len(created) == 6
        assert "e4" not in out.edges and "e5" not in out.edges
        assert len(out.edges) == 9  # three takes edges plus the six new ones
        for eid in ("e6", "e7", "e8"):
            assert eid in out.edges

        assert [d.render() for d in result.schema] == [
            "(x:{Sk_InGroupWithGroupNo}:{groupNo,name})::x.groupNo=>x"
        ]
        prof = profile(out, result.schema.deps[0])
        assert prof.group_sizes == (1,)
        assert prof.maximum == 1
        assert prof.average == Fraction(1)
        assert prof.minimality == Fraction(1)

    _criterion("2", "group dependency reifies into one shared value node", 1.0, body)


# -- criterion 3: redundancy metrics on the eight-match example -----------

def test_criterion_3_metrics_eight_match_example():
    def body():
        graph = fixture_graph("metrics_example.graph.json")
        dep = load_schema(str(FIXTURES / "metrics_example.schema.gofd")).schema.deps[0]

        prof = profile(graph, dep)
        assert sorted(prof.group_sizes) == [1, 2, 2, 3]
        assert prof.maximum == 3
        assert prof.average == Fraction(2)
        assert prof.minimality == Fraction(3, 7)
        assert two_decimals(prof.minimality) == 0.43
        assert oracle_potentials(graph, dep) == sorted(prof.group_sizes)

        report = build_report(graph, [dep])
        entry = report["perDependency"][0]
        assert entry["M"] == [2, 2, 3, 1]
        assert entry["max"] == 3
        assert entry["avg"] == 2.0
        assert entry["minimality"] == 0.43

    _criterion("3", "redundancy potentials {2,2,3,1}, max 3, avg 2, minimality 0.43",
               1.0, body)


# -- shared course scopes for criteria 4 and 5 ----------------------------

def _course_scopes():
    q1 = node_pattern("x", {"Course"}, {"title", "program", "language"})
    q2 = node_edge_pattern("x", {"Course", "International"},
                           {"title", "program", "language"},
                           "y", {"teaches"}, {"usingBook"}, Direction.OUT)
    return q1, q2


def _course_deps(q1, q2):
    f1 = gofd(q1, [PropVar("x", "title")], [PropVar("x", "program")])
    f2 = gofd(q1, [PropVar("x", "title")], [PropVar("x", "language")])
    f3 = gofd(q2, [PropVar("x", "program")], [PropVar("x", "language")])
    f4 = gofd(q2, [PropVar("x", "language")], [PropVar("y", "usingBook")])
    return f1, f2, f3, f4


# -- criterion 4: minimal cover drops the transitive dependency -----------

def test_criterion_4_minimal_cover_drops_transitive_dep():
    def body():
        q1, q2 = _course_scopes()
        f1, f2, f3, f4 = _course_deps(q1, q2)
        pool = [restrict(f1, q2), restrict(f2, q2), f3, f4]
        transitive = pool[1]  # title => language follows from the other three

        cover = minimal_cover(pool)
        assert all(dep.canonical() != transitive.canonical() for dep in cover)
        assert not any(PropVar("x", "language") in dep.rhs for dep in cover
                       if dep.lhs == frozenset({PropVar("x", "title")}))
        # Implication-equivalent in both directions.
        assert all(oracle_implies(cover, dep) for dep in pool)
        assert all(oracle_implies(pool, dep) for dep in cover)

    _criterion("4", "minimal cover omits the transitive dependency, equivalently",
               1.0, body)


# -- criterion 5: specialized scope normalizes first ----------------------

def _course_graph() -> Graph:
    graph = Graph()
    for nid in ("i1", "i2"):
        graph.add_node({"Course", "International"},
                       {"title": "Graphs", "program": "CS", "language": "English"},
                       node_id=nid)
    for nid in ("p1", "p2"):
        graph.add_node({"Course"},
                       {"title": "Databases", "program": "IS", "language": "German"},
                       node_id=nid)
    graph.add_node({"Topic"}, {}, node_id="t1")
    graph.add_node({"Topic"}, {}, node_id="t2")
    graph.add_edge("i1", "t1", {"teaches"}, {"usingBook": "Alice"}, edge_id="ei1")
    graph.add_edge("i2", "t2", {"teaches"}, {"usingBook": "Alice"}, edge_id="ei2")
    return graph


def _touched_preexisting(log) -> set[str]:
    touched: set[str] = set()
    for plan in log.transformations:
        for op in plan.ops:
            for attr in ("node", "edge", "source", "target", "obj", "src", "tgt"):
                value = getattr(op, attr, None)
                if isinstance(value, str):
                    touched.add(value)
    return {t for t in touched if not t.startswith(("sk:", "ske:"))}


def test_criterion_5_scope_order_and_phase_deltas():
    def body():
        q1, q2 = _course_scopes()
        assert sort_scopes([q1, q2]) == [q2, q1]
        assert sort_scopes([q2, q1]) == [q2, q1]

        graph = _course_graph()
        result = full_normalize(graph, _course_deps(q1, q2))

        assert [log.scope for log in result.logs] == [render_pattern(q2),
                                                      render_pattern(q1)]
        specialized, general = result.logs

        # Only the international courses (and their teaching edges) move in
        # the first pass; only the plain courses move in the second.
        assert _touched_preexisting(specialized) == {"i1", "i2", "ei1", "ei2"}
        assert _touched_preexisting(general) == {"p1", "p2"}
        assert len(specialized.cover) == 3  # transitive title=>language dropped
        assert len(general.cover) == 1     # recombined title=>{language,program}

        for nid in ("i1", "i2", "p1", "p2"):
            assert result.graph.props[nid] == {}
        assert len(result.schema) == 5
        assert check_gn_nf(NormalForm.GNBCNF, result.schema).holds

    _criterion("5", "specialized course scope runs first; deltas stay disjoint",
               1.0, body)


# -- criteria 6a/6b: randomized transformation corpus ---------------------

@functools.lru_cache(maxsize=1)
def _transformation_corpus():
    cases = []
    for i in range(200):
        rng = random.Random(20_000 + i)
        before, dep = random_satisfying_case(rng, CASE_KINDS[i % len(CASE_KINDS)])
        result = scoped_normalize(before, [dep], dep.scope)
        cases.append((before, dep, result))
    return cases


def test_criterion_6a_random_corpus_is_lossless():
    def body():
        passed = 0
        for before, dep, result in _transformation_corpus():
            plans = [plan for log in result.logs for plan in log.transformations]
            assert plans, dep.render()
            for plan in plans:
                assert verify_lossless(before, result.graph, plan, siblings=plans), \
                    dep.render()
            assert dump_graph(invert(result.graph, plans)) == dump_graph(before), dep.render()
            passed += 1
        assert passed == 200

    _criterion("6a", "200 random strict dependencies normalize losslessly", 60.0, body)


def test_criterion_6b_random_corpus_key_deps_and_bcnf():
    def body():
        passed = 0
        for _before, dep, result in _transformation_corpus():
            key_deps = [d for d in result.schema
                        if isinstance(d.scope, NodePattern)
                        and any(label.startswith("Sk_") for label in d.scope.labels)]
            for key_dep in key_deps:
                prof = profile(result.graph, key_dep)
                assert not prof.empty, key_dep.render()
                assert set(prof.group_sizes) == {1}
                assert prof.maximum == 1
                assert prof.average == Fraction(1)
                assert prof.minimality == Fraction(1)
                assert oracle_satisfies(result.graph, key_dep), key_dep.render()
            assert check_gn_nf(NormalForm.GNBCNF, result.schema).holds, dep.render()
            passed += 1
        assert passed == 200

    _criterion("6b", "emitted key dependencies are strict keys; results are BCNF",
               None, body)


# -- criterion 6c: restriction, structural axioms, closure ----------------

def test_criterion_6c_inference_agrees_with_brute_force():
    def body():
        instances = 0

        # Closure versus the subset-intersection brute force.
        for i in range(200):
            rng = random.Random(31_000 + i)
            keys = [f"k{j}" for j in range(rng.randint(3, 6))]
            scope = node_pattern("x", {"A"}, keys)
            universe = [PropVar("x", k) for k in keys] + [ObjectVar("x")]
            deps = []
            for _ in range(rng.randint(1, 5)):
                lhs = rng.sample(universe, rng.randint(1, 2))
                rhs = rng.sample(universe, rng.randint(1, 2))
                deps.append(gofd(scope, lhs, rhs))
            seed = rng.sample(universe, rng.randint(1, 3))
            assert closure(seed, deps) == oracle_closure(seed, deps)
            instances += 1

        # Restriction: a satisfied dependency stays satisfied on any
        # dominated scope, and the library agrees with the pairwise oracle.
        for i in range(150):
            rng = random.Random(32_000 + i)
            graph, dep = random_satisfying_case(rng)
            assert satisfies(graph, dep).holds and oracle_satisfies(graph, dep)
            narrowed = restrict(dep, specialize(rng, dep.scope))
            assert satisfies(graph, narrowed).holds
            assert oracle_satisfies(graph, narrowed)
            instances += 1

        # Structurally implied dependencies hold on every graph.
        for i in range(150):
            rng = random.Random(33_000 + i)
            graph = random_graph(rng)
            pattern = random_pattern(rng)
            for dep in structurally_implied(pattern):
                assert satisfies(graph, dep).holds, dep.render()
                assert oracle_satisfies(graph, dep), dep.render()
            instances += 1

        assert instances == 500

    _criterion("6c", "restriction, structural axioms, and closure match brute force",
               30.0, body)


# -- criterion 6d: pattern dominance implies projection containment -------

def _projection_contained(general, specific, graph) -> bool:
    mapping = rename_map(general, specific)
    general_rows = [{rename_variable(var, mapping): value for var, value in row.items()}
                    for row in rows_as_maps(evaluate(general, graph))]
    needed = [rename_variable(var, mapping) for var in attrs(general)]
    special_rows = rows_as_maps(evaluate(specific, graph))
    return projection(special_rows, needed) <= projection(general_rows, needed)


def test_criterion_6d_dominance_implies_containment():
    def body():
        passed = 0
        for i in range(500):
            rng = random.Random(41_000 + i)
            specific = random_pattern(rng)
            general = generalize(rng, specific)
            graph = random_graph(rng)
            assert more_general_than(general, specific)
            assert _projection_contained(general, specific, graph), \
                (render_pattern(general), render_pattern(specific))
            passed += 1
        assert passed == 500

    _criterion("6d", "dominating patterns contain every projected match", None, body)


# -- criterion 7: every published minimal-cover declaration round-trips ---

def test_criterion_7_schema_declarations_round_trip():
    def body():
        raw = (FIXTURES / "scenario_corpus.schema.gofd").read_text(encoding="utf-8")
        declarations = [line.split("#", 1)[0].strip() for line in raw.splitlines()]
        declarations = [line for line in declarations if line]
        assert len(declarations) == 45

        passed = 0
        for text in declarations:
            first = parse_gofd(text)
            formatted = first.render()
            second = parse_gofd(formatted)
            assert second == first, text
            assert second.render() == formatted, text
            passed += 1
        assert passed == 45

    _criterion("7", "all 45 published declarations parse/format/re-parse stably",
               1.0, body)
