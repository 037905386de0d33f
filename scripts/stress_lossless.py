#!/usr/bin/env python3
"""Randomized stress run: normalize generated graphs, verify losslessness.

Builds random graphs that satisfy a random strict dependency of each
redundancy shape (sharing the case builders with the test suite), normalizes
them, and verifies that the output is the one the test suite's row oracle
writes running each pass's plans one row at a time, that the executor
runs each pass's plans in reverse order as the row oracle runs them in
that order, that inverting the
output with its plans rebuilds the input byte for byte, also with every
plan rebuilt from its rows (``Transformation(dependency, kind,
match_count, plan.rows, key_dependency, pass_index)``), and that every
emitted key dependency holds, by the library's check and by the brute-force
oracle of the test suite.  The ``multi`` kind normalizes a graph in three
passes with ``full_normalize`` and inverts it with the plans in execution
order and reversed.  Prints a
per-kind tally, how many ``multi`` cases wrote a slot again that an earlier
pass had emptied, and timing.
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

from gonorm import (GonormError, Transformation, dump_graph, execute_plans, full_normalize,
                    invert, satisfies, scoped_normalize, verify_lossless)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import (CASE_KINDS, MULTI_PASS_DEPS, oracle_execute,  # noqa: E402
                     oracle_satisfies, random_multi_pass_case, random_satisfying_case)

KINDS = CASE_KINDS + ("multi",)


def rewrites_an_emptied_slot(plans) -> bool:
    """Whether a pass moves a value onto a slot an earlier pass moved one off;
    ``plans`` are in execution order."""
    emptied: dict[tuple[str, str], int] = {}  # slot -> first pass that moved it off
    for plan in plans:
        for row in plan.rows:
            if row[0] == "move-prop":
                emptied.setdefault((row[1], row[2]), plan.pass_index)
    return any(row[0] == "move-prop" and emptied.get((row[3], row[2]), plan.pass_index)
               < plan.pass_index for plan in plans for row in plan.rows)


def run_passes(run, graph, logs, step: int = 1) -> str:
    """The dump of what ``run`` makes of each pass's plans in turn, taken
    with ``step`` (-1: reversed), or the message it refuses them with."""
    try:
        for log in logs:
            graph = run(graph, log.transformations[::step])
    except GonormError as exc:
        return f"refused: {exc}"
    return dump_graph(graph)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    tally: Counter[str] = Counter()
    failures = rewrites = 0
    started = time.perf_counter()
    for i in range(args.cases):
        rng = random.Random(args.seed * 1_000_003 + i)
        kind = KINDS[i % len(KINDS)]
        if kind == "multi":
            graph = random_multi_pass_case(rng)
            result = full_normalize(graph, MULTI_PASS_DEPS)
            plans = [plan for log in result.logs for plan in log.transformations]
            rewrites += rewrites_an_emptied_slot(plans)
            what = f"{len(plans)} plans"
        else:
            graph, dep = random_satisfying_case(rng, kind)
            result = scoped_normalize(graph, [dep], dep.scope)
            plans = result.logs[0].transformations
            what = dep.render()
        ok = bool(plans) or kind == "multi"
        ok = ok and run_passes(oracle_execute, graph, result.logs) == dump_graph(result.graph)
        ok = ok and (run_passes(execute_plans, graph, result.logs, -1)
                     == run_passes(oracle_execute, graph, result.logs, -1))
        by_rows = [Transformation(plan.dependency, plan.kind, plan.match_count, plan.rows,
                                  plan.key_dependency, plan.pass_index) for plan in plans]
        for order in (plans, plans[::-1], by_rows):
            ok = ok and dump_graph(invert(result.graph, order)) == dump_graph(graph)
        for plan in plans:
            others = [p for p in plans if p is not plan]
            ok = ok and verify_lossless(graph, result.graph, plan, others)
            if plan.key_dependency is not None:
                ok = (ok and satisfies(result.graph, plan.key_dependency).holds
                      and oracle_satisfies(result.graph, plan.key_dependency))
        tally[kind] += 1
        if not ok:
            failures += 1
            print(f"FAIL case {i} ({kind}): {what}")
    elapsed = time.perf_counter() - started

    for kind in KINDS:
        print(f"{kind:>8}: {tally[kind]} cases")
    print(f"{rewrites} multi cases wrote a slot again that an earlier pass emptied")
    print(f"{args.cases} cases in {elapsed:.2f}s, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
