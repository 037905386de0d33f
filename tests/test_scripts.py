"""The bundled scripts run in-process, so they cannot rot unnoticed."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_stress_lossless_runs_clean(capsys, monkeypatch):
    assert load_script(monkeypatch, "stress_lossless").main(["--cases", "30"]) == 0
    assert "30 cases in" in capsys.readouterr().out.splitlines()[-1]


def test_demo_fixtures_walks_every_scenario(capsys, monkeypatch, tmp_path):
    assert load_script(monkeypatch, "demo_fixtures").main(["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("== ") == 3
    assert len(list(tmp_path.glob("*.graph.json"))) == 3
