"""The bundled scripts run in-process, so they cannot rot unnoticed."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import re
import sys
from collections import Counter
from pathlib import Path

import gonorm
from gonorm import build_plans, gofd, load_graph, load_schema
from gonorm.pattern import var_sort_key

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


def test_fuzz_inputs_runs_clean(capsys, monkeypatch):
    # the structural cases always run: deep nesting, unpaired surrogates, refused numbers
    assert load_script(monkeypatch, "fuzz_inputs").main(["--cases", "20", "--seed", "1"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("38 cases in") and last.endswith(", 0 failed")  # 18 structural


def test_output_digest_is_the_same_on_a_second_run(capsys, monkeypatch):
    script = load_script(monkeypatch, "output_digest")
    outputs = []
    for _ in range(2):
        assert script.main(["--fixtures-only"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert lines[-1].endswith(f"  {len(lines) - 1} calls") and len(lines) > 4 * 20


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


def test_every_gonorm_name_the_benchmark_imports_resolves():
    # no tier-1 test imports ``perfbench/checks.py``: a deleted name would
    # only show as a failed benchmark run
    imported = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.partition(".")[0] == "gonorm":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported.append(f"{path.name}: {node.module}.{alias.name}")
                    assert hasattr(module, alias.name), imported[-1]
    assert any(name.startswith("checks.py: gonorm.") for name in imported)


def test_every_gonorm_export_has_a_caller_outside_the_tests():
    # a name counts as used where it occurs as a word, except on its own
    # ``def`` or ``class`` line and in the package's export list
    sources = [path for path in sorted((ROOT / "src" / "gonorm").glob("*.py"))
               if path.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    sources.append(ROOT / "README.md")
    used: set[str] = set()
    for path in sources:
        for line in path.read_text(encoding="utf-8").splitlines():
            words = set(re.findall(r"\w+", line))
            defined = re.match(r"\s*(?:def|class)\s+(\w+)", line)
            if defined:
                words.discard(defined.group(1))
            used |= words
    assert sorted(set(gonorm.__all__) - used) == []


def test_tracer_counts_the_ops_of_each_kind_from_the_plans(monkeypatch):
    # ``transform.ops.*`` are benchmark metrics: an op the tracer cannot name
    # would be counted as ``transform.ops.tuple`` and the kinds would read 0
    tracer = load_script(monkeypatch, "tracing", ROOT / "perfbench").Tracer()
    fixtures = ROOT / "tests" / "fixtures"
    graph = load_graph(str(fixtures / "shipping.graph.json"))
    parts = [gofd(dep.scope, dep.lhs, [var])
             for dep in load_schema(str(fixtures / "shipping.schema.gofd")).schema
             for var in sorted(dep.rhs - dep.lhs, key=var_sort_key)]
    result = build_plans(graph, parts)
    counts = Counter()
    tracer._observe_build_plans(counts, 0, (graph, parts), result)
    rows = [row for plan in result[0] for row in plan.rows]
    expected = Counter("transform.ops." + row[0].replace("-", "_") for row in rows)
    assert len(expected) == 4
    expected["transform.value_nodes"] = len({row[1] for row in rows if row[0] == "new-node"
                                             and row[1].startswith("sk:val|")})
    expected["transform.edges_reified"] = len({row[1] for row in rows if row[0] == "del-edge"})
    assert counts == expected


def test_size_sweep_records_every_field_of_a_measured_size(capsys, monkeypatch, tmp_path):
    out = tmp_path / "sweep.json"
    assert load_script(monkeypatch, "size_sweep").main(
        ["--workloads", "teaching", "--scales", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert {"git_sha", "python", "nproc"} <= doc.keys() and doc["nproc"] >= 1
    [size] = doc["workloads"]["teaching"]
    assert (size["scale"], size["objects"], size["status"]) == (1, 3150, "measured")
    assert list(size["verbs"]) == ["check", "metrics", "normalize", "normalize --explain"]
    for verb in size["verbs"].values():
        assert verb["exit"] == 0 and len(verb["sha256"]) == 64
        assert {"median_s", "us_per_object", "min_gc_off_s"} <= verb.keys()
        assert len(verb["gc"]["collections"]) == len(verb["gc"]["s"]) == 3
    assert size["invert"]["rebuilt"] is True and size["invert"]["plans"] > 0
    assert {"rss_after_import_mb", "rss_growth_mb"} <= size.keys()


def test_size_sweep_refuses_a_broken_input_and_skips_past_the_budget(capsys, monkeypatch,
                                                                      tmp_path):
    script = load_script(monkeypatch, "size_sweep")
    # the generator's violating graph breaks its own schema on purpose
    files = load_script(monkeypatch, "workloads", ROOT / "perfbench").GENERATORS["teaching"](1)
    (tmp_path / "graph.json").write_text(files["violating.graph.json"], encoding="utf-8")
    (tmp_path / "schema.gofd").write_text(files["schema.gofd"], encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # ``measure`` works in the input's folder
    size = script.measure(str(tmp_path), 3150)
    assert size["status"] == "refused" and "verbs" not in size
    assert size["reason"].startswith("check exited 1: VIOLATED (")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["graph.json", "schema.gofd"]
    out = tmp_path / "sweep.json"
    monkeypatch.setattr(script, "BUDGET_S", 0.001)
    assert script.main(["--workloads", "teaching", "--scales", "4", "1", "--out", str(out)]) == 0
    sizes = json.loads(out.read_text(encoding="utf-8"))["workloads"]["teaching"]
    assert sizes == [{"scale": 1, "status": "skipped", "reason": "over the 0.001 s budget"},
                     {"scale": 4, "status": "skipped", "reason": "×1 ran over a budget"}]
