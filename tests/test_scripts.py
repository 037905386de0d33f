"""The bundled scripts run in-process, so they cannot rot unnoticed."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(monkeypatch, name: str, folder: Path = SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
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


def test_every_traced_name_resolves_in_gonorm(monkeypatch):
    # the benchmark's tracer wraps these by name; a deleted one would break
    # ``perfbench/run.py --trace 1`` and ``perfbench/selftest.py`` silently
    traced = load_script(monkeypatch, "tracing", ROOT / "perfbench").TRACED
    assert traced
    for module_name, names in traced.items():
        module = importlib.import_module(module_name)
        for name in names:
            owner, _, attr = name.rpartition(".")
            # a method is wrapped where its class defines it, as the tracer does
            found = vars(getattr(module, owner)).get(attr) if owner else getattr(module, name, None)
            assert callable(found), f"{module_name}.{name}"
