"""Seeded input generators for the benchmark workloads.

Each generator turns a seed into the two input files a workload runs on: a
graph in gonorm's JSON format and a schema in its declaration syntax.  The
same seed gives the same bytes.

Sizes, group counts and group sizes are fixed per workload; the seed only
chooses the values and which object falls into which group.  The work a
verb does therefore barely depends on the seed, so runs at different seeds
can be compared, while no two seeds give the same input.
"""
from __future__ import annotations

import json
import random
import string

WORKLOADS = ("teaching", "orders", "reasoning")

def _word(rng: random.Random, length: int = 7) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def _graph_text(nodes: list[dict], edges: list[dict]) -> str:
    return json.dumps({"nodes": nodes, "edges": edges}, indent=2, ensure_ascii=False) + "\n"


def _with_changes(nodes: list[dict], edges: list[dict], changes) -> str:
    """Graph text with properties changed: ``(kind, index, key, value)`` each,
    ``kind`` being "nodes" or "edges".  The given lists are left as they are."""
    doc = {"nodes": list(nodes), "edges": list(edges)}
    for kind, index, key, value in changes:
        obj = doc[kind][index]
        doc[kind][index] = {**obj, "properties": {**obj["properties"], key: value}}
    return _graph_text(doc["nodes"], doc["edges"])


def _balanced(rng: random.Random, groups: int, total: int) -> list[int]:
    """Group index of each of ``total`` items, every group the same size."""
    assignment = [i % groups for i in range(total)]
    rng.shuffle(assignment)
    return assignment


# -- teaching -------------------------------------------------------------

COURSES = 450
TEACHERS_PER_COURSE = 3
COURSES_PER_TITLE = 3

TEACHING_SCHEMA = """\
# a course title fixes the language it is taught in
(c:{Course}:{title,language}) :: c.title => c.language
# the semester of a teaching assignment fixes its term; reifies those edges
()-[t:{TEACHES}:{semester,term}]->() :: t.semester => t.term
# one course uses one book, whoever teaches it
(c:{Course}:{})<-[t:{TEACHES}:{usingBook}]-() :: c => t.usingBook
"""


def teaching(seed: int) -> dict[str, str]:
    """University-shaped graph: courses, teachers, one TEACHES edge per teacher.

    Every course is taught by TEACHERS_PER_COURSE teachers; the first of
    its edges carries a semester and term, so the edge-only scope reifies
    one edge per course and the node-edge scope keeps the others.  In
    ``violating.graph.json`` one course and one edge break all three
    dependencies.
    """
    rng = random.Random(f"teaching:{seed}")
    languages = [_word(rng, 5) for _ in range(6)]
    titles = [f"{_word(rng)} {_word(rng, 5)}" for _ in range(COURSES // COURSES_PER_TITLE)]
    title_language = {title: rng.choice(languages) for title in titles}
    books = [f"{_word(rng, 9)} vol {rng.randint(1, 9)}" for _ in range(COURSES // 2)]
    terms = {semester: rng.choice(("fall", "spring", "summer")) for semester in range(1, 9)}

    nodes: list[dict] = []
    edges: list[dict] = []
    title_of = _balanced(rng, len(titles), COURSES)
    for c in range(COURSES):
        title = titles[title_of[c]]
        nodes.append({"id": f"c{c:05d}", "labels": ["Course"], "properties": {
            "title": title, "language": title_language[title],
            "credits": rng.randint(1, 10), "elective": rng.random() < 0.5}})
    teacher_course = _balanced(rng, COURSES, COURSES * TEACHERS_PER_COURSE)
    first_edge: set[int] = set()
    course_book = [rng.choice(books) for _ in range(COURSES)]
    for t, c in enumerate(teacher_course):
        tid = f"t{t:05d}"
        nodes.append({"id": tid, "labels": ["Teacher"], "properties": {
            "name": f"{_word(rng, 6).title()} {_word(rng, 8).title()}",
            "age": rng.randint(28, 67), "tenured": rng.random() < 0.4}})
        props: dict = {"usingBook": course_book[c], "hours": rng.randint(1, 6)}
        if c not in first_edge:
            first_edge.add(c)
            semester = rng.randint(1, 8)
            props.update(semester=semester, term=terms[semester])
        edges.append({"id": f"e{t:05d}", "src": tid, "tgt": f"c{c:05d}",
                      "labels": ["TEACHES"], "properties": props})
    # edge 0 is its course's first, so it carries a semester
    broken = [("nodes", 0, "language", "none"), ("edges", 0, "usingBook", "none"),
              ("edges", 0, "term", "winter")]
    return {"graph.json": _graph_text(nodes, edges), "schema.gofd": TEACHING_SCHEMA,
            "violating.graph.json": _with_changes(nodes, edges, broken)}


# -- orders ---------------------------------------------------------------

ORDERS = 2400
CUSTOMERS = 240
STATIONS = 500
CONNECTIONS = 1000
LINES = 20

ORDERS_SCHEMA = """\
# Northwind orders: the customer fixes the shipping address
(o:{Order}:{orderID}) :: o.orderID => o
(o:{Order}:{orderID,orderDate,customerID,shipCity,shipPostalCode,shipCountry,shipAddress,shipRegion}) :: o.customerID => o.shipCity,o.shipPostalCode,o.shipCountry,o.shipAddress,o.shipRegion
# London transport: a line fixes its colour and type
()-[c:{CONNECTED_THROUGH}:{line,color,type}]->() :: c.line => c.color,c.type
"""


def orders(seed: int) -> dict[str, str]:
    """Northwind orders beside a transport network; node and edge-only scopes only.

    In ``violating.graph.json`` two orders and one connection break all
    three dependencies.
    """
    rng = random.Random(f"orders:{seed}")
    countries = [_word(rng, 6).title() for _ in range(8)]
    customer_rows = []
    for _ in range(CUSTOMERS):
        customer_rows.append({
            "customerID": _word(rng, 5).upper(),
            "shipCity": _word(rng, 8).title(),
            "shipPostalCode": f"{rng.randint(10000, 99999)}",
            "shipCountry": rng.choice(countries),
            "shipAddress": f"{rng.randint(1, 999)} {_word(rng, 9).title()} St.",
            "shipRegion": _word(rng, 2).upper(),
        })
    nodes: list[dict] = []
    edges: list[dict] = []
    customer_of = _balanced(rng, CUSTOMERS, ORDERS)
    for o in range(ORDERS):
        props = dict(customer_rows[customer_of[o]])
        props.update(orderID=10248 + o,
                     orderDate=f"199{rng.randint(6, 8)}-{rng.randint(1, 12):02d}-"
                               f"{rng.randint(1, 28):02d}",
                     freight=rng.randint(1, 100_000), shipped=rng.random() < 0.8)
        nodes.append({"id": f"o{o:05d}", "labels": ["Order"], "properties": props})
    for s in range(STATIONS):
        nodes.append({"id": f"s{s:05d}", "labels": ["Station"], "properties": {
            "name": f"{_word(rng, 8).title()} Road", "zone": rng.randint(1, 9),
            "accessible": rng.random() < 0.3}})
    line_rows = [(f"{_word(rng, 6).title()} line", _word(rng, 5),
                  rng.choice(("tube", "overground", "dlr", "tram")))
                 for _ in range(LINES)]
    line_of = _balanced(rng, LINES, CONNECTIONS)
    for e in range(CONNECTIONS):
        line, color, kind = line_rows[line_of[e]]
        src, tgt = rng.sample(range(STATIONS), 2)
        edges.append({"id": f"x{e:05d}", "src": f"s{src:05d}", "tgt": f"s{tgt:05d}",
                      "labels": ["CONNECTED_THROUGH"], "properties": {
                          "line": line, "color": color, "type": kind,
                          "distance": rng.randint(200, 5000), "night": rng.random() < 0.2}})
    broken = [("nodes", 0, "shipCity", "Nowhere"), ("nodes", 1, "orderID", 10248),
              ("edges", 0, "color", "none")]
    return {"graph.json": _graph_text(nodes, edges), "schema.gofd": ORDERS_SCHEMA,
            "violating.graph.json": _with_changes(nodes, edges, broken)}


# -- reasoning ------------------------------------------------------------

# (shape, [(node keys, edge keys) per chain level]); a level adds one label
# and the listed number of keys to the level before it, so each scope
# generalizes every deeper one in its chain
CHAINS = (
    ("node", ((7, 0), (9, 0), (11, 0))),
    ("node", ((6, 0), (8, 0), (10, 0))),
    ("node-edge", ((3, 4), (4, 6))),
    ("node-edge", ((3, 3), (5, 5))),
)
DEPS_PER_SCOPE = 12


def _sorted_words(rng: random.Random, count: int, length: int) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        words.add(_word(rng, length))
    return sorted(words)


def _chain_scopes(labels: list[str], keys: list[str], shape: str,
                  levels: tuple[tuple[int, int], ...]) -> list[tuple[str, list[str]]]:
    """Pattern text and variable names of each scope of one chain.

    ``labels`` holds one label per level plus the edge label, ``keys`` 24
    keys.  Variables are listed in a fixed positional order (object
    variable, then keys in the order they were added), so a dependency
    structure given as positions means the same whatever the names are.
    """
    node_pool, edge_pool = keys[:12], keys[12:24]
    out = []
    for depth, (n_keys, e_keys) in enumerate(levels):
        node = f"(x:{{{','.join(labels[:depth + 1])}}}:{{{','.join(sorted(node_pool[:n_keys]))}}})"
        variables = ["x"] + [f"x.{k}" for k in node_pool[:n_keys]]
        if shape == "node-edge":
            edge = f"-[y:{{{labels[-1]}}}:{{{','.join(sorted(edge_pool[:e_keys]))}}}]->()"
            node += edge
            variables += ["y"] + [f"y.{k}" for k in edge_pool[:e_keys]]
        out.append((node, variables))
    return out


def reasoning(seed: int) -> dict[str, str]:
    """Schema-only workload: scopes in generalization chains, many dependencies each.

    The graph is empty, so no dependency can fail on it and there is no
    ``violating.graph.json``; and ``check``, ``metrics`` and ``normalize`` do only
    schema work (parsing, restriction, minimal covers).  Which positions each
    dependency relates is drawn once, from a fixed seed; the workload seed
    picks every label and key name and the declaration order.  Names are
    handed out in sorted order, so every sort the program does visits the
    scopes and variables in the same order whatever the seed.  Random
    structures would move the exponential key and left-side enumerations of
    ``nf`` by a quarter from one seed to the next, and random name order
    by a tenth.
    """
    structure = random.Random("reasoning:structure")
    names = random.Random(f"reasoning:{seed}")
    labels = [w.title() for w in _sorted_words(names, sum(len(lv) + 1 for _, lv in CHAINS), 6)]
    keys = _sorted_words(names, 24 * len(CHAINS), 5)
    lines: list[str] = []
    for shape, levels in CHAINS:
        chain_labels, labels = labels[:len(levels) + 1], labels[len(levels) + 1:]
        chain_keys, keys = keys[:24], keys[24:]
        for scope, variables in _chain_scopes(chain_labels, chain_keys, shape, levels):
            props = [v for v in variables if "." in v]
            for _ in range(DEPS_PER_SCOPE):
                lhs = structure.sample(props, structure.choice((1, 1, 2, 2, 3)))
                rest = [v for v in variables if v not in lhs]
                rhs = structure.sample(rest, structure.choice((1, 2)))
                lines.append(f"{scope} :: {','.join(lhs)} => {','.join(rhs)}")
    names.shuffle(lines)
    return {"graph.json": _graph_text([], []), "schema.gofd": "\n".join(lines) + "\n"}


GENERATORS = {"teaching": teaching, "orders": orders, "reasoning": reasoning}

# one line per workload, kept in step with BENCHMARK.json
SIZES = {
    "teaching": f"{COURSES} courses, {COURSES * TEACHERS_PER_COURSE} teachers, "
                f"{COURSES * TEACHERS_PER_COURSE} TEACHES edges "
                f"({COURSES * (1 + 2 * TEACHERS_PER_COURSE)} objects); 3 scopes",
    "orders": f"{ORDERS} orders, {CUSTOMERS} customers, {STATIONS} stations, "
              f"{CONNECTIONS} CONNECTED_THROUGH edges "
              f"({ORDERS + STATIONS + CONNECTIONS} objects); 3 scopes",
    "reasoning": f"empty graph; {sum(len(levels) for _, levels in CHAINS)} scopes, "
                 f"{DEPS_PER_SCOPE} own dependencies each, in generalization chains up to "
                 f"{max(len(levels) for _, levels in CHAINS)} deep, at most "
                 f"{max(n + e + (2 if e else 1) for _, levels in CHAINS for n, e in levels)}"
                 f" attributes per scope",
}
