"""The dependency text format: grammar, positions, round-trips."""

from __future__ import annotations

import importlib.util
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gonorm import (
    ANON_EDGE_VAR,
    Direction,
    Graph,
    ObjectVar,
    ParseError,
    PropVar,
    attrs,
    edge_pattern,
    format_schema,
    full_normalize,
    gofd,
    load_schema,
    node_edge_pattern,
    node_pattern,
    parse_gofd,
    parse_pattern_text,
    parse_schema,
    save_schema,
    scope_key,
)

from conftest import FIXTURES, runs_of
from gonorm.parser import _declarations, _Parser, _tokenize

from oracles import oracle_tokenize, random_pattern


def pv(name: str, key: str) -> PropVar:
    return PropVar(name, key)


# -- pattern grammar -------------------------------------------------------

def test_node_pattern_forms():
    assert parse_pattern_text("(c:{Course}:{title,year})") == \
        node_pattern("c", {"Course"}, {"title", "year"})
    assert parse_pattern_text("(c)") == node_pattern("c")
    assert parse_pattern_text("(c:{}:{})") == node_pattern("c")
    assert parse_pattern_text("(c:∅:∅)") == node_pattern("c")
    assert parse_pattern_text("( c : {A} : {k} )") == node_pattern("c", {"A"}, {"k"})


def test_edge_pattern_forms():
    assert parse_pattern_text("()-[t:{R}:{p}]->()") == edge_pattern("t", {"R"}, {"p"})
    anon = parse_pattern_text("()-[:{R}:{}]->()")
    assert anon == edge_pattern("", {"R"}, ())
    assert anon.var == ANON_EDGE_VAR
    assert parse_pattern_text("()-[]->()") == edge_pattern("")
    assert parse_pattern_text("()<-[t:{R}:{p}]-()") == edge_pattern("t", {"R"}, {"p"})


def test_node_edge_pattern_forms_and_mirrored_spelling():
    out = parse_pattern_text("(x:{A}:{k})-[y:{R}:{w}]->()")
    assert out == node_edge_pattern("x", {"A"}, {"k"}, "y", {"R"}, {"w"},
                                    Direction.OUT)
    spelled_left = parse_pattern_text("(c:{A}:{})<-[t:{R}:{u}]-()")
    spelled_right = parse_pattern_text("()-[t:{R}:{u}]->(c:{A}:{})")
    assert spelled_left == spelled_right
    assert spelled_left.direction is Direction.IN
    inverted = parse_pattern_text("()<-[t:{R}:{u}]-(c:{A}:{})")
    assert inverted.direction is Direction.OUT


def test_descriptor_parses_into_variable_sets():
    dep = parse_gofd("(c:{Course}:{title,year})::c.title,c.year=>c")
    assert dep.lhs == frozenset({pv("c", "title"), pv("c", "year")})
    assert dep.rhs == frozenset({ObjectVar("c")})
    fancy = parse_gofd("(c:{Course}:{title,year}) :: c.title, c.year ⇒ c")
    assert fancy == dep


def test_comments_and_blank_lines_are_skipped():
    doc = parse_schema(
        "# header comment\n"
        "\n"
        "(x:{A}:{k})::x.k=>x  # trailing note\n"
        "   \n")
    assert len(doc.schema) == 1 and doc.warnings == []


def test_duplicate_declarations_warn_even_across_renaming():
    doc = parse_schema(
        "(x:{A}:{k})::x.k=>x\n"
        "(v:{A}:{k})::v.k=>v\n")
    assert len(doc.schema) == 1
    assert doc.warnings == [
        "line 2: duplicate dependency ignored: (v:{A}:{k})::v.k=>v"]


def test_equal_scopes_share_one_object_and_derive_their_values_once():
    text = ("(x:{A}:{a,b,c})::x.a=>x.b\n"
            "(x:{A,B}:{a,b,c,d})::x.c=>x.d\n"
            "(x:{A}:{c,b,a})::x.b=>x.c\n"  # the first scope, written another way
            "(n:{A}:{a,b,c})::n.c=>n\n"  # an alpha variant stays apart
            "(x:{B,A}:{a,b,c,d})::x.d=>x.a\n"
            "(x:{A}:{a,b,c})::x.c=>x.a\n")
    with runs_of(attrs, scope_key) as (attributed, keyed):
        deps = list(parse_schema(text).schema)
        full_normalize(Graph(), deps)
    firsts = [next(i for i, d in enumerate(deps) if d.scope is dep.scope) for dep in deps]
    assert firsts == [0, 1, 0, 3, 1, 0]
    assert len(attributed) == len(keyed) == 3


def test_parse_gofd_wants_exactly_one_declaration():
    with pytest.raises(ParseError):
        parse_gofd("# nothing here\n")
    with pytest.raises(ParseError):
        parse_gofd("(x:{A}:{k})::x.k=>x\n(y:{B}:{k})::y.k=>y\n")


# -- error positions -------------------------------------------------------

def expect_error(text: str, fragment: str, line: int, column: int) -> None:
    with pytest.raises(ParseError) as caught:
        parse_gofd(text)
    err = caught.value
    assert fragment in err.message
    assert (err.line, err.column) == (line, column)


def test_error_positions():
    expect_error("(c:{A$}:{})::c=>c", "unexpected character '$'", 1, 6)
    expect_error("(c:{A}:{t})::c.q=>c", "not bound by the pattern", 1, 14)
    expect_error("(a)-[t:{R}:{}]->(b)::t=>t", "at most one endpoint", 1, 20)
    expect_error("()::t=>t", "must bind a variable", 1, 3)
    expect_error("(x:{A}:{k})-[x:{R}:{k}]->() :: x.k => x", "both bind variable 'x'", 1, 14)
    expect_error("()-[x:{R}:{}]->(x:{A}:{}) :: x => x", "both bind variable 'x'", 1, 17)
    expect_error("(_e:{A}:{})-[:{R}:{}]->() :: _e => _e", "both bind variable '_e'", 1, 2)
    with pytest.raises(ParseError) as caught:
        parse_gofd("(c:{A}:{t}) c.t=>c")
    assert caught.value.expected == ("::",)
    with pytest.raises(ParseError) as caught:
        parse_gofd("\n\n(c:{A}:{t})::c.t=>")
    assert caught.value.line == 3


def test_error_message_carries_location_text():
    with pytest.raises(ParseError) as caught:
        parse_schema("(x:{A}:{k})::x.k=>x\n(x:{A}:{k})::x.k=>$\n")
    assert "line 2" in str(caught.value)


# -- one parse per scope text -----------------------------------------------

def each_line_alone(text: str) -> list:
    """``_declarations(text)`` as ``parse_gofd`` gives it line by line."""
    return [(parse_gofd(line), number) for number, line in enumerate(text.splitlines(), 1)
            if line.split("#")[0].strip()]


# 8 distinct texts before "::": indentation, spacing, ∅ and {} count apart
REPEATED_SCOPES = """\
(x:{A}:{a,b,c})::x.a=>x.b
  (x:{A}:{a,b,c})::x.b=>x.c   # indented, with a comment
(x:{A}:{a,b,c}) :: x.c ⇒ x.a
(x:{A}:{a,b,c})::x.a=>x.b
(x:∅:{a})::x.a=>x
(x:{}:{a})::x.a=>x
\t(x:∅:{a})  ::  x.a => x # again
(x:{A}:{k})-[y:{R}:{w}]->()::x.k=>y.w
()-[y:{R}:{w}]->(x:{A}:{k})::y.w=>x.k
(x:{A}:{k})-[y:{R}:{w}]->()::y.w⇒x

# (x:{A}:{a,b,c})::x.q=>x  a comment that would not parse
(x:{A}:{k})-[y:{R}:{w}]->():: x.k=>y.w
(x:{A}:{a,b,c})::x.c=>x #:: a second arrow, in the comment
"""


def test_each_scope_text_is_parsed_once_and_as_on_its_own_line():
    with runs_of(_Parser.pattern) as (patterns,):
        declared = _declarations(REPEATED_SCOPES)
        doc = parse_schema(REPEATED_SCOPES)
    assert declared == each_line_alone(REPEATED_SCOPES)
    assert len(patterns) == 2 * 8
    assert list(doc.schema) == list(dict.fromkeys(dep for dep, _ in declared))
    assert doc.warnings == [
        "line 4: duplicate dependency ignored: (x:{A}:{a,b,c})::x.a=>x.b",
        "line 6: duplicate dependency ignored: (x:{}:{a})::x.a=>x",
        "line 7: duplicate dependency ignored: (x:{}:{a})::x.a=>x",
        "line 13: duplicate dependency ignored: (x:{A}:{k})-[y:{R}:{w}]->()::x.k=>y.w"]


@pytest.mark.parametrize("head", ["(x:{A}:{a,b})", "  (x:{A}:{a,b}) ",
                                  "()-[x:{R}:{a,b}]->()"])
@pytest.mark.parametrize("rest, fragment", [
    ("x.a=>x.q", "not bound by the pattern"),
    ("x.a=>x.b$x", "unexpected character '$'"),
    ("x.a x.b", "unexpected 'x'"),
    ("x.a,=>x.b", "unexpected '=>'"),
    ("x.a=>", "unexpected 'end of line'"),
    ("x.a=>  ", "unexpected 'end of line'"),
], ids=["unbound", "bad-character", "no-arrow", "dangling-comma", "empty-rhs",
        "empty-rhs-spaces"])
def test_errors_after_a_parsed_scope_keep_line_and_column(head, rest, fragment):
    bad = f"{head}::{rest}"
    with pytest.raises(ParseError) as alone:
        parse_gofd(bad)
    with runs_of(_Parser.pattern) as (patterns,), pytest.raises(ParseError) as caught:
        parse_schema(f"{head}::x.a=>x.b\n\n{bad}\n")
    assert len(patterns) == 1  # the bad line reused the first line's scope
    assert fragment in alone.value.message
    assert (caught.value.message, caught.value.expected) == (alone.value.message,
                                                             alone.value.expected)
    assert (caught.value.line, caught.value.column) == (3, alone.value.column)


def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", FIXTURES.parents[1] / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_schemas_parse_as_each_line_alone(seed):
    for generate in _benchmark_workloads().GENERATORS.values():
        text = generate(seed)["schema.gofd"]
        assert _declarations(text) == each_line_alone(text)


# Token pieces, each spelling of a token, and characters that are none: a
# lone "-", "<", "]" or "=", a digit first, non-ASCII letters, Unicode spaces.
_PIECES = ("::", "]->", "<-[", "-[", "]-", "=>", "⇒", "∅", "(", ")", "{", "}", ":",
           ",", ".", "x", "_e", "Course9", " ", "\t", "\u00a0", "\u2028", "\x1c",
           "-", "<", "]", "=", ">", "[", "$", "#", "7", "é", "ß", "\u0130", "\n")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_PIECES), st.characters()), max_size=30),
       st.integers(1, 99))
def test_tokenizer_agrees_with_character_scan(pieces, line):
    text = "".join(pieces)
    try:
        expected = oracle_tokenize(text, line)
    except ParseError as error:
        with pytest.raises(ParseError) as caught:
            _tokenize(text, line)
        assert (caught.value.message, caught.value.line, caught.value.column) == \
            (error.message, error.line, error.column)
    else:
        assert [tuple(token) for token in _tokenize(text, line)] == expected


# -- round-trips -----------------------------------------------------------

CANONICAL = [
    "(x:{A}:{a,b})::x.a=>x.b",
    "(c:{Course}:{title,year})::c.title,c.year=>c",
    "()-[t:{R}:{p,q}]->()::t.p=>t.q",
    "()-[t:{TRANSFER}:{price}]->()::t.price=>t",
    "(x:{A,B}:{k})-[y:{R,S}:{w}]->()::x.k=>y.w",
    "()-[y:{R}:{w}]->(x:{A}:{})::y.w=>x",
]


def test_parse_format_parse_is_stable():
    for text in CANONICAL:
        dep = parse_gofd(text)
        assert dep.render() == text
        assert parse_gofd(dep.render()) == dep


def test_non_canonical_spellings_format_canonically():
    dep = parse_gofd("( x : {B,A} : {b,a} ) :: x.b , x.a ⇒ x")
    assert dep.render() == "(x:{A,B}:{a,b})::x.a,x.b=>x"
    anon = parse_gofd("(v:{A}:∅)-[:{R}:{w}]->() :: v ⇒ v")
    assert anon.render() == "(v:{A}:{})-[:{R}:{w}]->()::v=>v"


def test_underscored_identifiers_parse():
    dep = parse_gofd("(s:{Stop_Point}:{valid_until})::s.valid_until=>s")
    assert dep.lhs == frozenset({pv("s", "valid_until")})


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_random_dependency_round_trip(seed):
    rng = random.Random(seed)
    scope = random_pattern(rng)
    pool = sorted(attrs(scope), key=lambda v: (v.name, getattr(v, "key", "")))
    dep = gofd(scope, rng.sample(pool, rng.randint(1, min(3, len(pool)))),
               rng.sample(pool, rng.randint(1, min(2, len(pool)))))
    assert parse_gofd(dep.render()) == dep


# -- files -----------------------------------------------------------------

def test_save_and_load_schema_round_trip(tmp_path):
    deps = [parse_gofd(text) for text in CANONICAL]
    buffer = io.StringIO()
    save_schema(deps, buffer)
    assert buffer.getvalue() == format_schema(deps)
    assert buffer.getvalue().endswith("\n")
    reloaded = parse_schema(buffer.getvalue())
    assert [d.render() for d in reloaded.schema] == [d.render() for d in deps]

    path = tmp_path / "schema.gofd"
    save_schema(deps, str(path))
    doc = load_schema(str(path))
    assert [d.render() for d in doc.schema] == [d.render() for d in deps]
    assert doc.warnings == []


def test_published_declaration_corpus_counts():
    doc = load_schema(str(FIXTURES / "scenario_corpus.schema.gofd"))
    assert len(doc.schema) == 36
    assert len(doc.warnings) == 9
    assert all("duplicate dependency ignored" in w for w in doc.warnings)
