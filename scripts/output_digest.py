#!/usr/bin/env python3
"""Digest what every verb writes, so two trees can be shown to write the same bytes.

Runs every verb with each output option through ``gonorm.cli.main`` on the
four bundled fixtures and, unless ``--fixtures-only``, on the ``teaching``,
``orders`` and ``reasoning`` benchmark inputs at seeds 1 and 2, generated by
``perfbench/workloads.py`` (imported, never changed); ``check`` also runs
on each workload's ``violating.graph.json``.  Each input sits in its own
temporary directory and every call runs there with relative paths, so the
output does not depend on where the tree is checked out.  A call's digest
covers its exit code, stdout, stderr, the bytes of every file it wrote
and the ``gonorm`` logger's records at level ``DEBUG``.  Prints one
``sha256  input  argv`` line per call, then the digest of all those lines.

    python scripts/output_digest.py [--fixtures-only]
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gonorm.cli import main as gonorm_main

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
FIXTURE_NAMES = ("university", "students", "metrics_example", "shipping")
WORKLOADS = ("teaching", "orders", "reasoning")
SEEDS = (1, 2)
FORMATS = (["--format", "human"], ["--format", "json"])
GRAPH, SCHEMA = ["--graph", "graph.json"], ["--schema", "schema.gofd"]


def calls(violating: bool) -> list[list[str]]:
    """Every argv run on one input; ``violating``: also check the broken graph."""
    argvs = [["check", *GRAPH, *SCHEMA, *fmt] for fmt in FORMATS]
    if violating:
        argvs += [["check", "--graph", "violating.graph.json", *SCHEMA, *fmt] for fmt in FORMATS]
    argvs += [["mincover", *SCHEMA, *fmt] for fmt in FORMATS]
    argvs.append(["mincover", *SCHEMA, "--out", "cover.gofd"])
    argvs += [["metrics", *GRAPH, *SCHEMA, *fmt] for fmt in FORMATS]
    argvs.append(["metrics", *GRAPH, *SCHEMA, "--out", "report.json"])
    for form in ("1nf", "2nf", "3nf", "bcnf"):
        graph = GRAPH if form == "1nf" else []
        argvs += [["nf", *SCHEMA, *graph, "--form", form, *fmt] for fmt in FORMATS]
    for explain in ([], ["--explain"]):
        argvs += [["normalize", *GRAPH, *SCHEMA, "--out", "out", *explain, *fmt]
                  for fmt in FORMATS]
    argvs += [["convert", *GRAPH], ["convert", *SCHEMA],
              ["convert", *GRAPH, "--out", "converted.json"],
              ["convert", *SCHEMA, "--out", "converted.gofd"]]
    return argvs


class Records(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.lines: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.lines.append(f"{record.levelname} {record.getMessage()}")


def run_call(argv: list[str]) -> str:
    """The digest of one call, run in the current directory."""
    before = set(os.listdir("."))
    stdout, stderr, records = io.StringIO(), io.StringIO(), Records()
    logger = logging.getLogger("gonorm")
    level = logger.level
    logger.addHandler(records)
    logger.setLevel(logging.DEBUG)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            outcome = gonorm_main(argv)
    except (Exception, SystemExit) as exc:  # a traceback or an argparse exit is an outcome too
        outcome = f"raised {type(exc).__name__}: {exc}"
    finally:
        logger.removeHandler(records)
        logger.setLevel(level)
    files = {}
    for name in sorted(set(os.listdir(".")) - before):
        files[name] = hashlib.sha256(Path(name).read_bytes()).hexdigest()
        os.remove(name)
    doc = [outcome, stdout.getvalue(), stderr.getvalue(), files, records.lines]
    return hashlib.sha256(json.dumps(doc, ensure_ascii=False).encode("utf-8")).hexdigest()


def inputs(fixtures_only: bool):
    """``(name, {file name: bytes})`` of every input."""
    for name in FIXTURE_NAMES:
        yield name, {"graph.json": (FIXTURES / f"{name}.graph.json").read_bytes(),
                     "schema.gofd": (FIXTURES / f"{name}.schema.gofd").read_bytes()}
    if fixtures_only:
        return
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import GENERATORS

    for workload in WORKLOADS:
        for seed in SEEDS:
            yield f"{workload}@{seed}", {file_name: text.encode("utf-8") for file_name, text
                                         in GENERATORS[workload](seed).items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures-only", action="store_true",
                        help="run only on the bundled fixtures")
    args = parser.parse_args(argv)

    lines: list[str] = []
    cwd = os.getcwd()
    for name, files in inputs(args.fixtures_only):
        with tempfile.TemporaryDirectory() as folder:
            for file_name, data in files.items():
                Path(folder, file_name).write_bytes(data)
            os.chdir(folder)
            try:
                for call in calls("violating.graph.json" in files):
                    lines.append(f"{run_call(call)}  {name}  {' '.join(call)}")
                    print(lines[-1])
            finally:
                os.chdir(cwd)
    total = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    print(f"{total}  {len(lines)} calls")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
