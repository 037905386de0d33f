#!/usr/bin/env python3
"""Bad-input fuzz: every verb on broken graph and schema files, in-process.

A case is one input file: a seeded byte mutation of a bundled graph or
schema fixture, or one of the structural cases, which always run: arrays
nested 10^5 deep at the root, in an entry and in a property; an unpaired
high surrogate escape, an unpaired low one and a valid pair, each in an id,
a label, a key and a value; ``NaN``, ``1e999`` and a 5,000-digit integer.
Each verb that reads the file (``check``, ``metrics``, ``normalize``,
``nf``, ``mincover``, ``convert``) runs on it through ``gonorm.cli.main``,
beside the fixture's other, good file.  Standard output goes through a
strict UTF-8 ``TextIOWrapper``, as a file or pipe would encode it; a
``StringIO`` would take text no file can hold.

Every call must let no exception escape and exit 0, 1 or 2.  When loading
the file, or writing the graph it holds, raises ``ParseError``, that error
must name a line, and so must every exit-2 error of a call on the file.  No
call may leave a ``*.tmp`` file.  Prints the exit codes per kind of case and
every failure; exits 1 if there is one.
"""
from __future__ import annotations

import argparse
import io
import json
import random
import tempfile
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gonorm import ParseError, dump_graph, load_graph, load_schema
from gonorm.cli import main as gonorm_main
from gonorm.graph import unpaired_surrogate

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"
PAIRS = ("university", "shipping", "students", "metrics_example")
DEPTH = 10**5

# the verbs that read the file of a role; {graph} and {schema} are the files
VERBS = {
    "graph": ["check --graph {graph} --schema {schema} --format json",
              "metrics --graph {graph} --schema {schema}",
              "normalize --graph {graph} --schema {schema} --out {out}/norm --explain "
              "--format json",
              "nf --form 1nf --graph {graph} --schema {schema}",
              "convert --graph {graph}",
              "convert --graph {graph} --out {out}/graph.json"],
    "schema": ["check --graph {graph} --schema {schema}",
               "metrics --graph {graph} --schema {schema} --out {out}/report.json",
               "normalize --graph {graph} --schema {schema} --out {out}/norm",
               "mincover --schema {schema} --out {out}/cover.gofd",
               "nf --form 3nf --schema {schema}",
               "nf --form bcnf --schema {schema} --format json",
               "convert --schema {schema}"],
}


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three edits: change a byte, delete, insert or duplicate a span
    of bytes, or insert a token of the graph or schema syntax."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        span = rng.randint(1, 8)
        edit = rng.choice(("flip", "delete", "insert", "duplicate", "token"))
        if edit == "flip" and at < len(data):
            data[at] = rng.randrange(256)
        elif edit == "delete":
            del data[at:at + span]
        elif edit == "insert":
            data[at:at] = bytes(rng.randrange(256) for _ in range(span))
        elif edit == "duplicate":
            data[at:at] = data[at:at + span]
        else:
            data[at:at] = rng.choice((b"[", b"{", b"]", b'"', b"\\", b"\\u", b"\\ud800",
                                      b"-", b"1e999", b"NaN", b"::", b"=>", b"\xff"))
    return bytes(data)


def structural_cases() -> list[tuple[str, str, str, bytes]]:
    """(kind, role, fixture, bytes) of every structural case."""
    deep = "[" * DEPTH + "]" * DEPTH
    cases = [("deep", "graph", "university", text.encode()) for text in (
        deep,
        '{"nodes": [' + deep + '], "edges": []}',
        '{"nodes": [{"id": "n1", "properties": {"k": ' + deep + '}}], "edges": []}')]
    doc = json.loads((FIXTURES / "university.graph.json").read_text(encoding="utf-8"))
    for escape in ("\ud800", "\udc00", "\U0001f600"):  # high, low, and a valid pair
        for place in ("id", "label", "key", "value"):
            node = {"id": "x" + escape * (place == "id"),
                    "labels": ["Course" + escape * (place == "label")],
                    "properties": {"title" + escape * (place == "key"):
                                   "t" + escape * (place == "value")}}
            extended = {**doc, "nodes": doc["nodes"] + [node]}
            # ensure_ascii writes every non-ASCII character as escapes
            cases.append(("surrogate", "graph", "university",
                          json.dumps(extended, indent=2).encode()))
    for literal in ("NaN", "1e999", "7" * 5000):
        cases.append(("literal", "graph", "university",
                      ('{"nodes": [{"id": "n1", "properties": {"k": %s}}], "edges": []}'
                       % literal).encode()))
    return cases


def expected_parse_error(role: str, path: str) -> ParseError | None:
    """The ``ParseError`` of loading the file, or of writing the graph it holds."""
    try:
        if role == "schema":
            load_schema(path)
        else:
            dump_graph(load_graph(path)).encode("utf-8")
    except ParseError as err:
        return err
    except UnicodeEncodeError as err:
        return unpaired_surrogate(path) or ParseError(f"no unpaired surrogate escape: {err}")
    except Exception:  # refused otherwise, e.g. a duplicate id; checked by the calls
        pass
    return None


def call(argv: list[str]) -> tuple[int | str, str]:
    """The exit code of one in-process run, or the escaped exception; and stderr."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict", newline="")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace",
                           newline="")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code: int | str = gonorm_main(argv)
            out.flush()
    except Exception:
        code = traceback.format_exc().strip().splitlines()[-1]
    err.flush()
    return code, err.buffer.getvalue().decode("utf-8")


def run_case(role: str, fixture: str, data: bytes, work: Path) -> tuple[list[str], Counter]:
    """Failures and exit codes of every verb on one case."""
    path = work / ("case.graph.json" if role == "graph" else "case.gofd")
    path.write_bytes(data)
    out = work / "out"
    out.mkdir()
    files = {"graph": str(FIXTURES / f"{fixture}.graph.json"),
             "schema": str(FIXTURES / f"{fixture}.schema.gofd"),
             role: str(path), "out": str(out)}
    failures, codes = [], Counter()
    parse_error = expected_parse_error(role, str(path))
    if parse_error is not None and parse_error.line is None:
        failures.append(f"loading or writing gives a parse error without a line: {parse_error}")
    for verb in VERBS[role]:
        argv = [arg.format(**files) for arg in verb.split()]
        code, err = call(argv)
        codes[code if isinstance(code, int) else "escaped"] += 1
        name = verb.split(" --")[0]
        if not isinstance(code, int):
            failures.append(f"{name}: escaped {code}")
        elif code not in (0, 1, 2):
            failures.append(f"{name}: exit {code}")
        elif code == 2 and parse_error is not None and " at line " not in err:
            failures.append(f"{name}: parse error without a line: {err.strip()[:200]}")
        left = [p.name for p in work.rglob("*.tmp")]
        if left:
            failures.append(f"{name}: left {left}")
        for written in out.iterdir():
            written.unlink()
    out.rmdir()
    path.unlink()
    return failures, codes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=200, help="byte-mutation cases")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    cases = structural_cases()
    for _ in range(args.cases):
        fixture, role = rng.choice(PAIRS), rng.choice(("graph", "schema"))
        name = f"{fixture}.graph.json" if role == "graph" else f"{fixture}.schema.gofd"
        cases.append(("mutation", role, fixture, mutate((FIXTURES / name).read_bytes(), rng)))

    tally: dict[str, Counter] = {}
    failed = 0
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="gonorm-fuzz-") as work:
        for i, (kind, role, fixture, data) in enumerate(cases):
            failures, codes = run_case(role, fixture, data, Path(work))
            tally.setdefault(f"{kind} {role}", Counter()).update(codes)
            if failures:
                failed += 1
                print(f"FAIL case {i} ({kind} {role} of {fixture}):")
                for failure in failures:
                    print(f"  {failure}")
    elapsed = time.perf_counter() - started

    for name, codes in sorted(tally.items()):
        print(f"{name:>16}: " + ", ".join(f"exit {code} x{count}"
                                          for code, count in sorted(codes.items(), key=str)))
    print(f"{len(cases)} cases in {elapsed:.2f}s, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
