"""Byte-for-byte golden outputs of the CLI on the bundled fixtures.

For each fixture schema, ``mincover``, ``nf --form bcnf`` and ``nf --form
3nf`` run with ``--format json``; where the fixture also has a graph,
``check``, ``metrics`` and ``normalize --explain`` run too.  Their stdout,
their exit codes (``exit_codes.json``) and the files ``normalize`` writes
must equal the files under ``tests/fixtures/golden/<fixture>/`` exactly, so
a speed-up or refactor cannot change any output unnoticed.

Regenerate the golden files (only for an intended output change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from gonorm.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = FIXTURES / "golden"
PAIRS = ("university", "students", "metrics_example", "shipping")
SCHEMAS = PAIRS + ("scenario_corpus",)
OUT = "out"  # basename for normalize, relative so the log's paths are stable


def run_verbs(name: str, workdir: Path) -> dict[str, bytes]:
    """Every golden output of one fixture, by file name."""
    graph = str(FIXTURES / f"{name}.graph.json")
    schema = str(FIXTURES / f"{name}.schema.gofd")
    verbs = {
        "mincover": ["mincover", "--schema", schema],
        "nf_bcnf": ["nf", "--schema", schema, "--form", "bcnf"],
        "nf_3nf": ["nf", "--schema", schema, "--form", "3nf"],
    }
    if name in PAIRS:
        verbs.update({
            "check": ["check", "--graph", graph, "--schema", schema],
            "metrics": ["metrics", "--graph", graph, "--schema", schema],
            "normalize": ["normalize", "--graph", graph, "--schema", schema,
                          "--out", OUT, "--explain"],
        })
    outputs: dict[str, bytes] = {}
    exit_codes: dict[str, int] = {}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for verb, argv in verbs.items():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), \
                    contextlib.redirect_stderr(io.StringIO()):
                exit_codes[verb] = main(argv + ["--format", "json"])
            outputs[f"{verb}.stdout.json"] = buffer.getvalue().encode("utf-8")
        if name in PAIRS:
            for suffix in (".graph.json", ".schema.gofd", ".log.json"):
                outputs[OUT + suffix] = (workdir / (OUT + suffix)).read_bytes()
    finally:
        os.chdir(here)
    outputs["exit_codes.json"] = (json.dumps(exit_codes, indent=2, sort_keys=True)
                                  + "\n").encode("utf-8")
    return outputs


@pytest.mark.parametrize("name", SCHEMAS)
def test_cli_outputs_match_golden_bytes(name, tmp_path):
    outputs = run_verbs(name, tmp_path)
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(outputs) == expected
    for filename, data in outputs.items():
        assert data == (GOLDEN / name / filename).read_bytes(), f"{name}/{filename}"


if __name__ == "__main__":
    import tempfile

    for fixture in SCHEMAS:
        target = GOLDEN / fixture
        target.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as scratch:
            for filename, data in run_verbs(fixture, Path(scratch)).items():
                (target / filename).write_bytes(data)
        print(f"wrote {target}", file=sys.stderr)
