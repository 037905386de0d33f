#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload: two traced runs at seed SEED must both be correct and
report identical counts (``pattern.rows``, ``transform.ops.*``,
``graph.bytes_*`` and every other count) and identical output digests; the
generator must give the same files for the same seed and different files
for another seed.  Run from the root of a checkout; exits 1 on any mismatch.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import GENERATORS, WORKLOADS  # noqa: E402  (HERE is on sys.path)

SEED = 3


def traced_run(workload: str, seed: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = ROOT / ".perfbench" / f"results-{workload}-{seed}-trace1.json"
    return json.loads(path.read_text(encoding="utf-8"))


def counts(result: dict) -> dict:
    return {key: entry["value"] for key, entry in result["metrics"].items()
            if entry["unit"] in ("count", "bytes", "ratio")}


def main() -> int:
    problems: list[str] = []
    for workload in WORKLOADS:
        generate = GENERATORS[workload]
        if generate(SEED) != generate(SEED):
            problems.append(f"{workload}: seed {SEED} gives different inputs twice")
        if generate(SEED) == generate(SEED + 1):
            problems.append(f"{workload}: seeds {SEED} and {SEED + 1} give the same inputs")

        first, second = traced_run(workload, SEED), traced_run(workload, SEED)
        for name, result in (("first", first), ("second", second)):
            if not result["correct"]:
                problems.append(f"{workload}: {name} run is not correct")
        if first["digests"] != second["digests"]:
            problems.append(f"{workload}: output digests differ between runs")
        a, b = counts(first), counts(second)
        for key in sorted(a):
            if a[key] != b.get(key):
                problems.append(f"{workload}: {key} is {a[key]} then {b.get(key)}")
        print(f"{workload}: {len(a)} counts and {len(first['digests'])} digests compared")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
