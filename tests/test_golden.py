"""Byte-for-byte golden outputs of the CLI on the bundled fixtures.

For each fixture pair, ``check``, ``metrics`` and ``normalize --explain``
run with ``--format json``.  Their stdout and the files ``normalize`` writes
must equal the files under ``tests/fixtures/golden/<fixture>/`` exactly, so
a speed-up or refactor cannot change any output unnoticed.

Regenerate the golden files (only for an intended output change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from gonorm.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = FIXTURES / "golden"
PAIRS = ("university", "students", "metrics_example")
OUT = "out"  # basename for normalize, relative so the log's paths are stable


def run_verbs(name: str, workdir: Path) -> dict[str, bytes]:
    """Every golden output of one fixture pair, by file name."""
    graph = str(FIXTURES / f"{name}.graph.json")
    schema = str(FIXTURES / f"{name}.schema.gofd")
    verbs = {
        "check.stdout.json": ["check", "--graph", graph, "--schema", schema],
        "metrics.stdout.json": ["metrics", "--graph", graph, "--schema", schema],
        "normalize.stdout.json": ["normalize", "--graph", graph, "--schema", schema,
                                  "--out", OUT, "--explain"],
    }
    outputs: dict[str, bytes] = {}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for filename, argv in verbs.items():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                main(argv + ["--format", "json"])
            outputs[filename] = buffer.getvalue().encode("utf-8")
        for suffix in (".graph.json", ".schema.gofd", ".log.json"):
            outputs[OUT + suffix] = (workdir / (OUT + suffix)).read_bytes()
    finally:
        os.chdir(here)
    return outputs


@pytest.mark.parametrize("name", PAIRS)
def test_cli_outputs_match_golden_bytes(name, tmp_path):
    outputs = run_verbs(name, tmp_path)
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(outputs) == expected
    for filename, data in outputs.items():
        assert data == (GOLDEN / name / filename).read_bytes(), f"{name}/{filename}"


if __name__ == "__main__":
    import tempfile

    for pair in PAIRS:
        target = GOLDEN / pair
        target.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as scratch:
            for filename, data in run_verbs(pair, Path(scratch)).items():
                (target / filename).write_bytes(data)
        print(f"wrote {target}", file=sys.stderr)
