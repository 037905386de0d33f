"""Redundancy metrics for graphs and dependency sets.

The per-dependency profile groups the scope's matches by the descriptor
values: a group of size s stores the same determined combination s times,
so anything above 1 is repetition.  Minimality relates the number of groups
to the number of matches; 1.0 means no repetition at all, approaching 0
means the same values are repeated everywhere.  All ratios are exact
fractions internally and rounded half-up to two decimals for reports.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import Iterable, Union

from .gofd import DepClass, GoFd, check_bound, classify, map_per_scope, scope_matches
from .graph import Graph, column_texts, value_keys
from .pattern import Relation, var_sort_key


@dataclass(frozen=True)
class GraphMetrics:
    node_count: int
    edge_count: int
    avg_node_props: Fraction
    avg_edge_props: Fraction


def per_graph_metrics(graph: Graph) -> GraphMetrics:
    nodes = len(graph.nodes)
    edges = len(graph.edges)
    node_props = sum(len(graph.props[n]) for n in graph.nodes)
    edge_props = sum(len(graph.props[e]) for e in graph.edges)
    return GraphMetrics(
        nodes, edges,
        Fraction(node_props, nodes) if nodes else Fraction(0),
        Fraction(edge_props, edges) if edges else Fraction(0),
    )


@dataclass(frozen=True)
class DepProfile:
    group_sizes: tuple[int, ...]
    maximum: int
    average: Fraction
    minimality: Fraction
    empty: bool


def profile(graph: Graph, dep: GoFd, *, matches: Relation | None = None) -> DepProfile:
    """Group sizes and minimality of one dependency on one graph.

    Matches are grouped by the ``value_key``s of all descriptor variables,
    left and right side together, object identities included.  Groups are
    ordered by ``json.dumps`` of their values as a list, which is the keys
    joined as ``"[" + ", ".join(keys) + "]"``, so the order is stable
    across runs.  ``matches`` may pass the scope's already evaluated
    matches on ``graph``.
    """
    check_bound(dep)
    relation = scope_matches(graph, dep, matches)
    if not relation.rows:
        return DepProfile((), 0, Fraction(0), Fraction(1), True)
    index = {v: i for i, v in enumerate(relation.variables)}
    cols = [index[v] for v in sorted(dep.lhs | dep.rhs, key=var_sort_key)]
    groups = Counter(value_keys(relation.rows, cols, column_texts))
    texts = [f"[{', '.join(keys)}]" for keys in groups]
    sizes = tuple(count for _, count in sorted(zip(texts, groups.values())))
    total = sum(sizes)
    minimality = Fraction(1) if total <= 1 else Fraction(len(sizes) - 1, total - 1)
    return DepProfile(sizes, max(sizes), Fraction(total, len(sizes)), minimality, False)


def redundancy_potentials(graph: Graph,
                          schema: Iterable[GoFd]) -> list[tuple[GoFd, DepProfile]]:
    deps = list(schema)
    return list(zip(deps, map_per_scope(graph, deps, lambda d, m: profile(graph, d, matches=m))))


@dataclass(frozen=True)
class SchemaCounts:
    total: int
    within_node: int
    within_edge: int
    between: int


def schema_counts(schema: Iterable[GoFd]) -> SchemaCounts:
    tallies = {cls: 0 for cls in DepClass}
    total = 0
    for dep in schema:
        tallies[classify(dep)] += 1
        total += 1
    return SchemaCounts(total, tallies[DepClass.WITHIN_NODE],
                        tallies[DepClass.WITHIN_EDGE], tallies[DepClass.BETWEEN])


def two_decimals(value: Union[Fraction, int]) -> float:
    """Round half-up to two decimal places, as a float for JSON output."""
    frac = Fraction(value)
    dec = Decimal(frac.numerator) / Decimal(frac.denominator)
    return float(dec.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def build_report(graph: Graph, schema: Iterable[GoFd]) -> dict:
    """JSON-ready redundancy report: graph shape, schema mix, per-dependency profiles."""
    deps = list(schema)
    shape = per_graph_metrics(graph)
    counts = schema_counts(deps)
    per_dep = []
    for dep, prof in redundancy_potentials(graph, deps):
        entry = {
            "gofd": dep.render(),
            "M": list(prof.group_sizes),
            "max": prof.maximum,
            "avg": two_decimals(prof.average),
            "minimality": two_decimals(prof.minimality),
        }
        if prof.empty:
            entry["empty"] = True
        per_dep.append(entry)
    return {
        "graph": {
            "nodeCount": shape.node_count,
            "edgeCount": shape.edge_count,
            "avgNodePropCount": two_decimals(shape.avg_node_props),
            "avgEdgePropCount": two_decimals(shape.avg_edge_props),
        },
        "schema": {
            "total": counts.total,
            "withinNode": counts.within_node,
            "withinEdge": counts.within_edge,
            "between": counts.between,
        },
        "perDependency": per_dep,
    }
