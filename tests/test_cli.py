"""Command line behavior: verbs, exit codes, output formats, file outputs."""

from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gonorm import (
    Graph,
    build_report,
    dump_graph,
    evaluate,
    format_schema,
    full_normalize,
    load_graph,
    load_schema,
    profile,
    render_pattern,
    satisfies,
    scoped_normalize,
    sort_scopes,
)
from gonorm import cli
from gonorm.cli import main

from conftest import FIXTURES, Level, SameRepr, runs_of

UNI_GRAPH = str(FIXTURES / "university.graph.json")
UNI_SCHEMA = str(FIXTURES / "university.schema.gofd")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- check -----------------------------------------------------------------

def test_check_satisfied_schema(capsys):
    code, out, err = run(capsys, "check", "--graph", UNI_GRAPH,
                         "--schema", UNI_SCHEMA)
    assert code == 0 and err == ""
    assert out.startswith("ok       ()-[t:{TEACHES}:{usingBook}]->(c:{Course}:{})")


def test_check_violation_reports_witnesses(capsys, tmp_path):
    schema = write(tmp_path, "bad.gofd",
                   "(c:{Course}:{})<-[t:{TEACHES}:{at}]-() :: c => t.at\n")
    code, out, err = run(capsys, "check", "--graph", UNI_GRAPH, "--schema", schema)
    assert code == 1
    assert "VIOLATED" in out and "between (" in out and "and (" in out

    code, out, _ = run(capsys, "check", "--graph", UNI_GRAPH, "--schema", schema,
                       "--format", "json", "--max-witnesses", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["holds"] is False
    (entry,) = doc["results"]
    assert entry["holds"] is False and len(entry["witnesses"]) == 1
    first, second = entry["witnesses"][0]
    assert len(first) == len(entry["variables"]) == len(second)


def test_check_scope_filter_can_make_the_run_vacuous(capsys):
    code, out, _ = run(capsys, "check", "--graph", UNI_GRAPH,
                       "--schema", UNI_SCHEMA, "--scope", "(x:{Ghost}:{})",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"holds": True, "results": []}


# -- mincover --------------------------------------------------------------

TRANSITIVE = ("(x:{A}:{a,b,c})::x.a=>x.b\n"
              "(x:{A}:{a,b,c})::x.b=>x.c\n"
              "(x:{A}:{a,b,c})::x.a=>x.c\n")


def test_mincover_drops_redundant_member(capsys, tmp_path):
    schema = write(tmp_path, "transitive.gofd", TRANSITIVE)
    code, out, err = run(capsys, "mincover", "--schema", schema)
    assert code == 0 and err == ""
    assert out == "(x:{A}:{a,b,c})::x.a=>x.b\n(x:{A}:{a,b,c})::x.b=>x.c\n"

    out_path = tmp_path / "cover.gofd"
    code, out, _ = run(capsys, "mincover", "--schema", schema,
                       "--out", str(out_path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["scopes"][0]["cover"] == [
        "(x:{A}:{a,b,c})::x.a=>x.b", "(x:{A}:{a,b,c})::x.b=>x.c"]
    assert len(load_schema(str(out_path)).schema) == 2


def test_mincover_explicit_scope_restricts_general_dependencies(capsys, tmp_path):
    schema = write(tmp_path, "general.gofd", "(x:{A}:{a,b})::x.a=>x.b\n")
    code, out, _ = run(capsys, "mincover", "--schema", schema,
                       "--scope", "(v:{A,B}:{a,b})")
    assert code == 0
    assert out == "(v:{A,B}:{a,b})::v.a=>v.b\n"


# -- metrics ---------------------------------------------------------------

def test_metrics_json_matches_library_report(capsys, tmp_path):
    code, out, err = run(capsys, "metrics", "--graph", UNI_GRAPH,
                         "--schema", UNI_SCHEMA, "--format", "json")
    assert code == 0 and err == ""
    expected = build_report(load_graph(UNI_GRAPH), load_schema(UNI_SCHEMA).schema)
    assert json.loads(out) == expected

    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "metrics", "--graph", UNI_GRAPH,
                       "--schema", UNI_SCHEMA, "--out", str(report_path))
    assert code == 0
    assert "graph: 4 nodes, 3 edges" in out
    assert json.loads(report_path.read_text()) == expected
    assert report_path.read_text().endswith("\n")



def test_check_and_metrics_match_each_scope_once(capsys, tmp_path):
    g = Graph()
    for nid, city, zip_code in (("p1", "Rome", 100), ("p2", "Rome", 100),
                                ("p3", "Oslo", 200), ("p4", "Rome", 101)):
        g.add_node({"Person"}, {"city": city, "zip": zip_code, "area": "EU"}, node_id=nid)
    graph = write(tmp_path, "people.graph.json", dump_graph(g))
    # three dependencies on one scope, and one on an alpha-renamed copy of it
    schema = write(tmp_path, "people.gofd", "".join(
        f"{scope} :: {descriptor}\n" for scope, descriptor in (
            ("(x:{Person}:{area,city,zip})", "x.city => x.zip"),
            ("(x:{Person}:{area,city,zip})", "x.zip => x.area"),
            ("(x:{Person}:{area,city,zip})", "x.city => x.area"),
            ("(n:{Person}:{area,city,zip})", "n.area => n.city"))))
    deps = load_schema(schema).schema.deps
    for verb in ("check", "metrics"):
        with runs_of(evaluate) as (evaluated,):
            code, out, _ = run(capsys, verb, "--graph", graph, "--schema", schema,
                               "--format", "json")
        # matches are shared only within one pattern, never across a renaming
        assert evaluated == [deps[0].scope, deps[3].scope]
        doc = json.loads(out)
        if verb == "check":
            assert code == 1
            expected = [satisfies(g, dep) for dep in deps]
            assert [(entry["holds"], entry["witnesses"]) for entry in doc["results"]] == \
                [(sat.holds, [[list(a), list(b)] for a, b in sat.witnesses]) for sat in expected]
        else:
            assert code == 0
            expected = [profile(g, dep) for dep in deps]
            assert [(entry["M"], entry["max"]) for entry in doc["perDependency"]] == \
                [(list(prof.group_sizes), prof.maximum) for prof in expected]

# -- nf --------------------------------------------------------------------

SEPARATING = ("(x:{A}:{s,t,c})::x.s,x.c=>x\n"
              "(x:{A}:{s,t,c})::x.t=>x.c\n")


def test_nf_separates_third_from_boyce_codd(capsys, tmp_path):
    schema = write(tmp_path, "prime.gofd", SEPARATING)
    code, out, _ = run(capsys, "nf", "--schema", schema, "--form", "3nf")
    assert code == 0 and out.startswith("3nf: holds")
    code, out, _ = run(capsys, "nf", "--schema", schema, "--form", "bcnf")
    assert code == 1
    assert "bcnf: violated (1)" in out and "[lhs-not-superkey]" in out

    code, out, _ = run(capsys, "nf", "--schema", schema, "--format", "json")
    doc = json.loads(out)
    assert doc["form"] == "bcnf" and doc["holds"] is False
    assert doc["violations"] == [{
        "scope": "(x:{A}:{c,s,t})",
        "dependency": "(x:{A}:{c,s,t})::x.t=>x.c",
        "reason": "lhs-not-superkey"}]


def test_nf_first_form_needs_a_graph(capsys, tmp_path):
    schema = write(tmp_path, "prime.gofd", SEPARATING)
    code, _, err = run(capsys, "nf", "--schema", schema, "--form", "1nf")
    assert code == 2 and "needs --graph" in err
    code, out, _ = run(capsys, "nf", "--schema", schema, "--form", "1nf",
                       "--graph", UNI_GRAPH)
    assert code == 0 and out.startswith("1nf: holds")


def test_nf_size_limit_is_an_input_error(capsys, tmp_path):
    # disjoint single left sides: the Boyce-Codd check would list every union
    wide = ",".join(f"k{i}" for i in range(12))
    deps = "".join(f"(x:{{A}}:{{{wide}}})::x.k{i}=>x.k{i + 1}\n" for i in range(0, 12, 2))
    schema = write(tmp_path, "wide.gofd", deps)
    for form in ("bcnf", "3nf"):
        code, out, err = run(capsys, "nf", "--schema", schema, "--form", form)
        assert code == 2 and "attributes" in err and out == ""
        code, out, _ = run(capsys, "nf", "--schema", schema, "--form", form,
                           "--max-attrs", "13")
        assert code == 1 and f"{form}: violated" in out  # computable once raised


@pytest.mark.parametrize("argv, at_zero", [
    (["check", "--graph", UNI_GRAPH, "--schema", UNI_SCHEMA, "--max-witnesses"], (0, "")),
    (["nf", "--schema", UNI_SCHEMA, "--max-attrs"],
     (2, "error: scope has 3 attributes, limit is 0\n")),
], ids=["max-witnesses", "max-attrs"])
def test_a_negative_count_is_an_argument_error(capsys, argv, at_zero):
    with pytest.raises(SystemExit) as caught:
        main([*argv, "-1"])
    captured = capsys.readouterr()
    assert caught.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: argument {argv[-1]}: must be at least 0, got '-1'\n")
    code, _, err = run(capsys, *argv, "0")  # the least count reaches the verb
    assert (code, err) == at_zero


# -- normalize -------------------------------------------------------------

def test_normalize_writes_graph_schema_and_log(capsys, tmp_path):
    base = str(tmp_path / "result")
    code, out, err = run(capsys, "normalize", "--graph", UNI_GRAPH,
                         "--schema", UNI_SCHEMA, "--out", base, "--explain")
    assert code == 0 and err == ""
    assert f"wrote {base}.graph.json" in out and f"wrote {base}.log.json" in out

    expected = full_normalize(load_graph(UNI_GRAPH), load_schema(UNI_SCHEMA).schema)
    assert dump_graph(load_graph(f"{base}.graph.json")) == dump_graph(expected.graph)
    saved_schema = load_schema(f"{base}.schema.gofd")
    assert [d.render() for d in saved_schema.schema] == \
        [d.render() for d in expected.schema]
    log_doc = json.loads((tmp_path / "result.log.json").read_text())
    assert [p["scope"] for p in log_doc["passes"]] == \
        [log.scope for log in expected.logs]
    assert log_doc["passes"][0]["transformations"][0]["ops"]


def test_normalize_json_format_lists_written_files(capsys, tmp_path):
    base = str(tmp_path / "result")
    code, out, _ = run(capsys, "normalize", "--graph", UNI_GRAPH,
                       "--schema", UNI_SCHEMA, "--out", base, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["written"] == [f"{base}.graph.json", f"{base}.schema.gofd"]
    assert {entry["scope"] for entry in doc["passes"]} == \
        {"()-[t:{TEACHES}:{usingBook}]->(c:{Course}:{})"}



def test_explain_report_and_log_hold_the_same_passes_text(capsys, tmp_path):
    base = str(tmp_path / "result")
    code, out, _ = run(capsys, "normalize", "--graph", str(FIXTURES / "shipping.graph.json"),
                       "--schema", str(FIXTURES / "shipping.schema.gofd"), "--out", base,
                       "--explain", "--format", "json")
    assert code == 0
    log = (tmp_path / "result.log.json").read_text(encoding="utf-8")
    head = '{\n  "passes": '
    assert log.startswith(head) and log.endswith("\n}\n")
    passes = log[len(head):-len("\n}\n")]
    assert json.loads(passes) and json.loads(passes)[0]["transformations"][0]["ops"]
    assert out.startswith(f'{head}{passes},\n  "written": [\n')
    for text in (out, log):
        assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
    report = tmp_path / "report.json"  # metrics writes one text to the file and stdout
    code, out, _ = run(capsys, "metrics", "--graph", UNI_GRAPH, "--schema", UNI_SCHEMA,
                       "--out", str(report), "--format", "json")
    assert code == 0 and out == report.read_text(encoding="utf-8")

def test_normalize_refuses_violating_graph_without_writing(capsys, tmp_path):
    schema = write(tmp_path, "bad.gofd",
                   "(c:{Course}:{})<-[t:{TEACHES}:{at}]-() :: c => t.at\n")
    base = tmp_path / "never"
    code, _, err = run(capsys, "normalize", "--graph", UNI_GRAPH,
                       "--schema", schema, "--out", str(base))
    assert code == 1 and "does not satisfy" in err
    assert "between (" in err and "c='n1'" in err  # the first witness pair, by object id
    assert not base.with_suffix(".graph.json").exists()
    assert not (tmp_path / "never.graph.json").exists()


def test_normalize_failure_leaves_no_output_file(capsys, monkeypatch, tmp_path):
    argv = ["normalize", "--graph", UNI_GRAPH, "--schema", UNI_SCHEMA,
            "--out", str(tmp_path / "result"), "--explain"]

    def fail(*args):
        raise RuntimeError("serializer failed")

    with monkeypatch.context() as patch:  # the second of three serializers raises
        patch.setattr(cli, "format_schema", fail)
        with pytest.raises(RuntimeError):
            main(argv)
    assert list(tmp_path.iterdir()) == []

    # writing the second file fails; the first, already written, is removed
    real_open, opened = open, []

    def open_twice(file, *args, **kwargs):
        opened.append(file)
        if len(opened) == 2:
            raise OSError("disk full")
        return real_open(file, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "open", open_twice, raising=False)
        code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "disk full" in err
    assert len(opened) == 2 and list(tmp_path.iterdir()) == []

    # a temp file left by another run is skipped and left as it was
    squatter = tmp_path / "result.schema.gofd.0.tmp"
    squatter.write_text("not ours", encoding="utf-8")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "result.graph.json", "result.log.json", "result.schema.gofd", squatter.name]
    assert squatter.read_text(encoding="utf-8") == "not ours"


@pytest.mark.parametrize("blocked, extra", [("out.schema.gofd", []),
                                            ("out.log.json", ["--explain"])])
def test_normalize_onto_a_directory_writes_no_file(capsys, tmp_path, blocked, extra):
    # the graph file comes first: it must not be renamed into place either
    (tmp_path / blocked).mkdir()
    code, out, err = run(capsys, "normalize", "--graph", UNI_GRAPH, "--schema", UNI_SCHEMA,
                         "--out", str(tmp_path / "out"), *extra)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"Is a directory: '{tmp_path / blocked}'\n" in err
    assert [p.name for p in tmp_path.iterdir()] == [blocked]
    assert list((tmp_path / blocked).iterdir()) == []


def test_normalize_prints_the_warning_of_a_kept_part(capsys, tmp_path):
    graph = write(tmp_path, "mixed.graph.json", json.dumps({
        "nodes": [{"id": "p1", "labels": ["Person"], "properties": {"city": "Rome"}},
                  {"id": "t1", "labels": ["T"]}],
        "edges": [{"id": "e1", "src": "p1", "tgt": "t1", "labels": ["R"],
                   "properties": {"w": 1}}]}))
    schema = write(tmp_path, "mixed.gofd",
                   "(x:{Person}:{city})-[y:{R}:{w}]->() :: x.city, y.w => x\n")
    base = str(tmp_path / "mixed")
    code, out, err = run(capsys, "normalize", "--graph", graph, "--schema", schema,
                         "--out", base)
    assert code == 0 and err == ""
    scope = "(x:{Person}:{city})-[y:{R}:{w}]->()"
    assert out.splitlines() == [
        f"pass {scope}: 0 transformations, 1 kept, 0 key dependencies",
        f"  warning: not transformable, kept as is: {scope}::x.city,y.w=>x "
        "(descriptor side mixes object variables: x, y)",
        f"wrote {base}.graph.json",
        f"wrote {base}.schema.gofd"]


def test_normalize_scope_limits_the_run(capsys, tmp_path):
    base = str(tmp_path / "scoped")
    code, out, _ = run(capsys, "normalize", "--graph", UNI_GRAPH,
                       "--schema", UNI_SCHEMA, "--out", base,
                       "--scope", "(x:{Ghost}:{})", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["passes"]) == 1
    assert doc["passes"][0]["scope"] == "(x:{Ghost}:{})"
    assert doc["passes"][0]["transformations"] == []
    # nothing applied: the output graph equals the input
    assert dump_graph(load_graph(f"{base}.graph.json")) == \
        dump_graph(load_graph(UNI_GRAPH))


@pytest.mark.parametrize("name", ["university", "students", "metrics_example", "shipping"])
def test_normalize_writes_what_the_library_returns_without_copying(capsys, monkeypatch,
                                                                   tmp_path, name):
    graph_path = str(FIXTURES / f"{name}.graph.json")
    schema_path = str(FIXTURES / f"{name}.schema.gofd")
    graph, schema = load_graph(graph_path), load_schema(schema_path).schema
    scope = sort_scopes(dep.scope for dep in schema)[0]
    runs = [([], full_normalize(graph, schema)),
            (["--scope", render_pattern(scope)], scoped_normalize(graph, schema, scope))]
    copies, original = [], Graph.copy
    monkeypatch.setattr(Graph, "copy", lambda self: copies.append(self) or original(self))
    for extra, expected in runs:
        base = tmp_path / "out"
        code, _, err = run(capsys, "normalize", "--graph", graph_path, "--schema", schema_path,
                           "--out", str(base), *extra)
        assert code == 0 and err == ""
        assert (tmp_path / "out.graph.json").read_text(encoding="utf-8") == \
            dump_graph(expected.graph)
        assert (tmp_path / "out.schema.gofd").read_text(encoding="utf-8") == \
            format_schema(expected.schema)
    assert copies == []  # the loaded graph is normalized in place


@pytest.mark.parametrize("extra", [[], ["--scope", "(c:{C}:{k,v})"]], ids=["full", "scope"])
def test_normalize_refused_by_the_executor_exits_two_without_writing(capsys, tmp_path, extra):
    graph = write(tmp_path, "squatted.graph.json", json.dumps({"nodes": [
        {"id": "c1", "labels": ["C"], "properties": {"k": "x", "v": 1}},
        {"id": "c2", "labels": ["C"], "properties": {"k": "x", "v": 1}},
        {"id": 'sk:val|C|k="x"', "labels": ["Squatter"]}], "edges": []}))
    schema = write(tmp_path, "values.gofd", VALUE_SCHEMA)
    out = tmp_path / "out"
    out.mkdir()
    code, printed, err = run(capsys, "normalize", "--graph", graph, "--schema", schema,
                             "--out", str(out / "norm"), "--explain", *extra)
    assert code == 2 and printed == ""
    assert err == "error: generated node id 'sk:val|C|k=\"x\"' already taken\n"
    assert list(out.iterdir()) == []


# -- convert ---------------------------------------------------------------

def test_convert_canonicalizes_graph_and_schema(capsys, tmp_path):
    code, out, err = run(capsys, "convert", "--graph", UNI_GRAPH)
    assert code == 0 and err == ""
    assert out == dump_graph(load_graph(UNI_GRAPH))

    messy = write(tmp_path, "messy.gofd",
                  "( x : {B,A} : {b,a} ) :: x.b , x.a ⇒ x\n"
                  "(v:{A,B}:{a,b})::v.a,v.b=>v\n")
    code, out, err = run(capsys, "convert", "--schema", messy)
    assert code == 0
    assert out == "(x:{A,B}:{a,b})::x.a,x.b=>x\n"
    assert "duplicate dependency ignored" in err  # alpha-variant second line

    out_path = tmp_path / "canonical.gofd"
    code, out, _ = run(capsys, "convert", "--schema", messy, "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text() == "(x:{A,B}:{a,b})::x.a,x.b=>x\n"


def test_convert_needs_exactly_one_input(capsys):
    code, _, err = run(capsys, "convert")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "convert", "--graph", UNI_GRAPH,
                       "--schema", UNI_SCHEMA)
    assert code == 2 and "exactly one" in err


# -- failure modes and plumbing --------------------------------------------

TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)  # control characters too
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(2**70), st.floats(),
    st.sampled_from([float("nan"), -0.0, float("inf"), Level.ONE, Level.TWO]),
    TEXT, TEXT.map(SameRepr))
JSON_DOCS = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.one_of(TEXT, TEXT.map(SameRepr)),
                                                 inner, max_size=4)), max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(JSON_DOCS)
def test_report_text_is_json_dumps_with_an_indent_of_two(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2, ensure_ascii=False)
    assert cli._json_text([doc], 1) == json.dumps({"a": [doc]}, indent=2,
                                                  ensure_ascii=False)[9:-2]


# -- property values: identity by JSON text ------------------------------------

VALUE_SCHEMA = "(c:{C}:{k,v})::c.k=>c.v\n"


def value_files(tmp_path, *props: str) -> tuple[str, str]:
    """A graph of ``C`` nodes with the given JSON property texts, and VALUE_SCHEMA."""
    nodes = ", ".join(f'{{"id": "n{i}", "labels": ["C"], "properties": {text}}}'
                      for i, text in enumerate(props, 1))
    return (write(tmp_path, "values.graph.json", f'{{"nodes": [{nodes}], "edges": []}}'),
            write(tmp_path, "values.gofd", VALUE_SCHEMA))


def test_check_tells_one_from_true(capsys, tmp_path):
    graph, schema = value_files(tmp_path, '{"k": 1, "v": "p"}', '{"k": true, "v": "q"}')
    code, out, _ = run(capsys, "check", "--graph", graph, "--schema", schema)
    assert code == 0 and out.startswith("ok")


def test_normalize_refuses_one_against_one_point_zero(capsys, tmp_path):
    graph, schema = value_files(tmp_path, '{"k": "x", "v": 1}', '{"k": "x", "v": 1.0}')
    code, _, err = run(capsys, "normalize", "--graph", graph, "--schema", schema,
                       "--out", str(tmp_path / "out"))
    assert code == 1 and "does not satisfy" in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["values.gofd",
                                                               "values.graph.json"]


@pytest.mark.parametrize("first, second", [("1", "1.0"), ("0.0", "-0.0")])
def test_key_dependency_holds_on_values_python_equality_merges(capsys, tmp_path,
                                                               first, second):
    graph, schema = value_files(tmp_path, f'{{"k": {first}, "v": "p"}}',
                                f'{{"k": {second}, "v": "p"}}')
    out = tmp_path / "out"
    code, _, _ = run(capsys, "normalize", "--graph", graph, "--schema", schema,
                     "--out", str(out))
    assert code == 0
    assert "(x:{Sk_CK}:{k,v})::x.k=>x" in (tmp_path / "out.schema.gofd").read_text()
    code, _, _ = run(capsys, "check", "--graph", f"{out}.graph.json",
                     "--schema", f"{out}.schema.gofd")
    assert code == 0
    result = load_graph(f"{out}.graph.json")
    values = [result.props[nid]["k"] for nid, labels in result.nodes.items() if "Sk_CK" in labels]
    assert sorted(map(json.dumps, values)) == sorted([first, second])


def test_integer_beyond_float_range_round_trips(capsys, tmp_path):
    huge = str(10**400)
    graph, schema = value_files(tmp_path, f'{{"k": {huge}, "v": "p"}}',
                                f'{{"k": {huge}, "v": "p"}}', '{"k": 1, "v": "q"}')
    code, _, _ = run(capsys, "check", "--graph", graph, "--schema", schema)
    assert code == 0
    out = tmp_path / "out"
    code, _, _ = run(capsys, "normalize", "--graph", graph, "--schema", schema,
                     "--out", str(out))
    assert code == 0
    result = load_graph(f"{out}.graph.json")
    assert [result.props[nid] for nid in result.nodes if result.props[nid].get("k") == 10**400] \
        == [{"k": 10**400, "v": "p"}]
    assert f'"k": {huge},' in (tmp_path / "out.graph.json").read_text()


def one_node_graph(value: str) -> bytes:
    """``value`` at line 2, column 73, after a number that loads and a string
    that holds refused literals too."""
    return ('{"nodes": [{"id": "n1",\n'
            '  "properties": {"big": 1e308, "note": "NaN \\"-1e999\\" -Infinity", '
            f'"k": {value}}}}}], "edges": []}}').encode()


def deep_graph(depth: int = 100_000) -> bytes:
    """Arrays ``depth`` deep at line 2 from column 36, after strings that hold
    brackets: the deepest level opens at column 100035 for the default."""
    return ('{"nodes": [{"id": "[[{n1", "labels": ["]]"]},\n'
            '  {"id": "n2", "properties": {"k": ' + "[" * depth + "]" * depth
            + '}}], "edges": []}').encode()


# bad file -> (its bytes, or None for no file; a piece of the error line)
BAD_GRAPHS = {
    "missing": (None, "No such file or directory"),
    "broken": (b"{not json", "Expecting property name enclosed in double quotes "
                             "at line 1, column 2"),
    "nan": (one_node_graph("NaN"), "non-finite number NaN is not JSON at line 2, column 73"),
    "inf": (one_node_graph("Infinity"),
            "non-finite number Infinity is not JSON at line 2, column 73"),
    "minus_inf": (one_node_graph("-Infinity"),
                  "non-finite number -Infinity is not JSON at line 2, column 73"),
    "overflow": (one_node_graph("1e999"),
                 "non-finite number 1e999 is not JSON at line 2, column 73"),
    "minus_overflow": (one_node_graph("-1e999"),
                       "non-finite number -1e999 is not JSON at line 2, column 73"),
    "long_int": (one_node_graph("9" * 5000), "digits; use sys.set_int_max_str_digits() "
                                             "to increase the limit at line 2, column 73"),
    "latin1": ('{"nodes": [\n  {"id": "caf\xe9"}], "edges": []}'.encode("latin-1"),
               "byte 0xe9 is not UTF-8 at line 2, column 14"),
    "latin1_first_line": ('{"nodes": [{"id": "caf\xe9"}], "edges": []}'.encode("latin-1"),
                          "byte 0xe9 is not UTF-8 at line 1, column 23"),
    "latin1_line_start": ('{"nodes": [\n\xe9]}'.encode("latin-1"),
                          "byte 0xe9 is not UTF-8 at line 2, column 1"),
    "deep": (deep_graph(), "arrays and objects nested 100004 deep are too deep to load "
                           "at line 2, column 100035"),
}
BAD_SCHEMAS = {
    "missing": (None, "No such file or directory"),
    "broken": (b"(x:{A}:{k}::x.k=>x\n", "unexpected '::' at line 1, column 11"),
    "latin1": ("(x:{A}:{k})::x.k=>x\n(x:{Caf\xe9}:{k})::x.k=>x\n".encode("latin-1"),
               "byte 0xe9 is not UTF-8 at line 2, column 8"),
    "latin1_first_line": ("(x:{Caf\xe9}:{k})::x.k=>x\n".encode("latin-1"),
                          "byte 0xe9 is not UTF-8 at line 1, column 8"),
    "latin1_line_start": ("(x:{A}:{k})::x.k=>x\n\xe9\n".encode("latin-1"),
                          "byte 0xe9 is not UTF-8 at line 2, column 1"),
}
# each verb that reads the file, writing what it writes under {out}
GRAPH_VERBS = ["check --graph {graph} --schema {schema}",
               "metrics --graph {graph} --schema {schema} --out {out}/report.json",
               "nf --form 1nf --graph {graph} --schema {schema}",
               "normalize --graph {graph} --schema {schema} --out {out}/norm --explain",
               "convert --graph {graph} --out {out}/graph.json"]
SCHEMA_VERBS = ["check --graph {graph} --schema {schema}",
                "mincover --schema {schema} --out {out}/cover.gofd",
                "metrics --graph {graph} --schema {schema} --out {out}/report.json",
                "nf --schema {schema}",
                "normalize --graph {graph} --schema {schema} --out {out}/norm --explain",
                "convert --schema {schema} --out {out}/schema.gofd"]
BAD_INPUTS = ([("graph", name, verb) for name in BAD_GRAPHS for verb in GRAPH_VERBS]
              + [("schema", name, verb) for name in BAD_SCHEMAS for verb in SCHEMA_VERBS])


@pytest.mark.parametrize("role, name, verb", BAD_INPUTS,
                         ids=[f"{role}-{name}-{verb.split()[0]}"
                              for role, name, verb in BAD_INPUTS])
def test_unusable_inputs_exit_two(capsys, tmp_path, role, name, verb):
    content, message = (BAD_GRAPHS if role == "graph" else BAD_SCHEMAS)[name]
    bad = tmp_path / (f"{name}.graph.json" if role == "graph" else f"{name}.gofd")
    if content is not None:
        bad.write_bytes(content)
    out = tmp_path / "out"
    out.mkdir()
    paths = {"graph": UNI_GRAPH, "schema": UNI_SCHEMA, role: str(bad), "out": str(out)}
    code, printed, err = run(capsys, *(arg.format(**paths) for arg in verb.split()))
    assert code == 2 and printed == "" and "Traceback" not in err
    assert err.startswith("error: ") and message in err
    assert list(out.iterdir()) == []


# line 1 holds an escaped backslash before "ud800" and a valid pair; line 2,
# one unpaired surrogate escape at the given column
SURROGATE_LINES = {
    "id": ('  {"id": "n1{}", "labels": ["C"], "properties": {"k": "x", "v": "q"}}', 13),
    "label": ('  {"id": "n1", "labels": ["B", "C{}"], "properties": {"k": "x", "v": "q"}}', 34),
    "key": ('  {"id": "n1", "labels": ["C"], "properties": {"k": "x", "v": "q", "w{}": 1}}', 70),
    "value": ('  {"id": "n1", "labels": ["C"], "properties": {"k": "x", "v": "q{}"}}', 65),
}


def surrogate_graph(tmp_path, line: str) -> str:
    return write(tmp_path, "surrogate.graph.json",
                 '{"nodes": [{"id": "n0", "labels": ["C"], '
                 '"properties": {"k": "\\\\ud800 \\ud83d\\ude00", "v": "p"}},\n'
                 + line + '], "edges": []}')


@pytest.mark.parametrize("escape", ["\\ud800", "\\udbff", "\\udc00", "\\udfff"])
@pytest.mark.parametrize("place", SURROGATE_LINES)
def test_unpaired_surrogate_escape_exits_two_when_written(capsys, tmp_path, place, escape):
    line, column = SURROGATE_LINES[place]
    graph = surrogate_graph(tmp_path, line.replace("{}", escape))
    schema = write(tmp_path, "values.gofd", VALUE_SCHEMA)
    out = tmp_path / "out"
    out.mkdir()
    for verb in (f"convert --graph {graph}", f"convert --graph {graph} --out {out}/graph.json",
                 f"normalize --graph {graph} --schema {schema} --out {out}/norm --explain"):
        code, printed, err = run(capsys, *verb.split())
        assert (code, printed) == (2, "")
        assert err == ("error: unpaired surrogate escape cannot be written as UTF-8 "
                       f"at line 2, column {column}\n")
        assert list(out.iterdir()) == []
    # a verb that writes none of the graph's text still succeeds
    code, _, err = run(capsys, "metrics", "--graph", graph, "--schema", schema)
    assert code == 0 and err == ""


def test_surrogate_pair_escape_round_trips(capsys, tmp_path):
    line, _ = SURROGATE_LINES["value"]
    graph = surrogate_graph(tmp_path, line.replace("{}", "\\ud83d\\ude00"))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(capsys, "convert", "--graph", graph, "--out", str(first))[0] == 0
    assert run(capsys, "convert", "--graph", str(first), "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    assert '"k": "\\\\ud800 \U0001f600"'.encode() in first.read_bytes()
    assert load_graph(str(first)).props["n1"]["v"] == "q\U0001f600"
    code, printed, _ = run(capsys, "convert", "--graph", graph)
    assert code == 0 and printed == first.read_text(encoding="utf-8")


@pytest.mark.parametrize("form", ["json", "human"])
def test_normalize_writes_no_file_when_stdout_cannot_hold_its_report(capsys, monkeypatch,
                                                                     tmp_path, form):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.chdir(tmp_path)
    code = main(["normalize", "--graph", UNI_GRAPH, "--schema", UNI_SCHEMA, "--out", "café",
                 "--format", form])
    stdout.flush()
    assert code == 2 and stdout.buffer.getvalue() == b""
    assert capsys.readouterr().err.startswith(
        "error: 'ascii' codec can't encode character '\\xe9'")
    assert list(tmp_path.iterdir()) == []  # no café.* and no *.tmp


def test_shared_node_and_edge_variable_exits_two(capsys, tmp_path):
    schema = write(tmp_path, "shared.gofd", "(x:{A}:{k})-[x:{R}:{k}]->() :: x.k => x\n")
    code, out, err = run(capsys, "check", "--graph", UNI_GRAPH, "--schema", schema)
    assert code == 2 and out == ""
    assert "both bind variable 'x' at line 1, column 14" in err


def test_missing_required_argument_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["check", "--graph", UNI_GRAPH])
    assert caught.value.code == 2
    capsys.readouterr()


MAIN = "import sys; from gonorm.cli import main; sys.exit(main(sys.argv[1:]))"


def test_calls_sharing_the_parser_answer_as_in_a_fresh_process(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to this width in both processes
    assert cli.build_parser() is cli.build_parser()
    calls = [["check", "--graph", UNI_GRAPH], ["--help"]]
    for verb in (["check", "--graph", UNI_GRAPH, "--schema", UNI_SCHEMA],
                 ["mincover", "--schema", UNI_SCHEMA]):
        calls += [verb, [*verb, "--format", "json"]]
    codes = []
    for argv in calls:
        try:
            codes.append(main(argv))
        except SystemExit as caught:
            codes.append(caught.code)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-c", MAIN, *argv],
                               capture_output=True, text=True)
        assert (codes[-1], captured.out, captured.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert codes == [2, 0, 0, 0, 0, 0]


def test_reserved_seed_variable_does_not_change_output(capsys, monkeypatch):
    _, baseline, _ = run(capsys, "metrics", "--graph", UNI_GRAPH,
                         "--schema", UNI_SCHEMA, "--format", "json")
    monkeypatch.setenv("GONORM_SEED", "12345")
    code, seeded, _ = run(capsys, "metrics", "--graph", UNI_GRAPH,
                          "--schema", UNI_SCHEMA, "--format", "json")
    assert code == 0 and seeded == baseline


def test_installed_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-c", MAIN, "check", "--graph", UNI_GRAPH, "--schema", UNI_SCHEMA],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok")
