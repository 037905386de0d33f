#!/usr/bin/env python3
"""Randomized stress run: normalize generated graphs, verify losslessness.

Builds random graphs that satisfy a random strict dependency of each
redundancy shape (sharing the case builder with the test suite), normalizes
them, and verifies that inverting the output with its plans rebuilds the
input byte for byte and that every emitted key dependency holds, by the
library's check and by the brute-force oracle of the test suite.  Prints a
per-shape tally and timing.
"""
from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

from gonorm import dump_graph, invert, satisfies, scoped_normalize, verify_lossless

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import CASE_KINDS, oracle_satisfies, random_satisfying_case  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    tally: Counter[str] = Counter()
    failures = 0
    started = time.perf_counter()
    for i in range(args.cases):
        rng = random.Random(args.seed * 1_000_003 + i)
        kind = CASE_KINDS[i % len(CASE_KINDS)]
        graph, dep = random_satisfying_case(rng, kind)
        result = scoped_normalize(graph, [dep], dep.scope)
        plans = result.logs[0].transformations
        ok = bool(plans) and dump_graph(invert(result.graph, plans)) == dump_graph(graph)
        for plan in plans:
            others = [p for p in plans if p is not plan]
            ok = ok and verify_lossless(graph, result.graph, plan, others)
            if plan.key_dependency is not None:
                ok = (ok and satisfies(result.graph, plan.key_dependency).holds
                      and oracle_satisfies(result.graph, plan.key_dependency))
        tally[kind] += 1
        if not ok:
            failures += 1
            print(f"FAIL case {i} ({kind}): {dep.render()}")
    elapsed = time.perf_counter() - started

    for kind in CASE_KINDS:
        print(f"{kind:>8}: {tally[kind]} cases")
    print(f"{args.cases} cases in {elapsed:.2f}s, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
