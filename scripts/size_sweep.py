#!/usr/bin/env python3
"""Time the verbs on the benchmark inputs at growing sizes, one process per size.

Generates the ``teaching`` and ``orders`` inputs of ``perfbench/workloads.py``
(imported, never changed) with their size constants multiplied by each
scale: ``COURSES`` for ``teaching``; ``ORDERS``, ``CUSTOMERS``, ``STATIONS``
and ``CONNECTIONS`` for ``orders``, whose ``LINES`` stay fixed.  Each size
runs in fresh child processes, one to generate the input and one to time
it, within a time budget of ``BUDGET_S``, and each child within an
address-space budget of ``MEMORY_MB`` (``RLIMIT_AS``); a size that runs
over either is recorded as skipped, and the larger sizes of its workload
are not run.

The timing child runs ``check`` first and times nothing more when the input
breaks its own schema.  Otherwise it runs ``check``, ``metrics``,
``normalize`` and ``normalize --explain`` through ``gonorm.cli.main``,
``REPEATS`` times each with the collector on and as often with it off,
then one ``invert`` over all plans of a ``full_normalize``.  Per verb it
records the exit code, the median time and microseconds per object with
the collector on, the collections and collector time per generation over
those runs (``gc.callbacks``), the minimum time with the collector off, and
a sha256 of exit code, stdout, stderr and written files, which every run
must repeat.  Per size it also records the peak RSS growth over the value
right after import, how many objects the collector tracks more than
before ``load_graph`` once the graph is loaded and once it went through
``full_normalize`` (``len(gc.get_objects())`` after a full collection, a
count that does not drift with the machine), and whether ``invert``
rebuilt the input's bytes as ``dump_graph`` writes them.  Writes the results as JSON with the git sha,
the Python version and the number of usable CPUs.

    python scripts/size_sweep.py [--workloads teaching orders] [--scales 1 4 16 32]
                                 [--seed 1] [--out FILE]
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import gonorm
from gonorm import dump_graph, full_normalize, invert, load_graph, load_schema
from gonorm.cli import main as gonorm_main

ROOT = Path(__file__).resolve().parents[1]
# the constants each scale multiplies, per workload
SCALED = {"teaching": ("COURSES",), "orders": ("ORDERS", "CUSTOMERS", "STATIONS", "CONNECTIONS")}
INPUTS = ("graph.json", "schema.gofd")
REPEATS = 3  # timed runs per verb, with the collector on and again off
MEMORY_MB = 2560  # address space of each child; ``orders`` ×16 grows about 1.5 GB
BUDGET_S = 300.0  # seconds for one size, generation included
FILES = ["--graph", "graph.json", "--schema", "schema.gofd"]
VERBS = {"check": ["check", *FILES],
         "metrics": ["metrics", *FILES],
         "normalize": ["normalize", *FILES, "--out", "out"],
         "normalize --explain": ["normalize", *FILES, "--out", "out", "--explain"]}


# -- child: generate ---------------------------------------------------------

def generate(workload: str, scale: int, seed: int, folder: str) -> dict:
    """Write the scaled input into ``folder``; its object count."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name in SCALED[workload]:
        setattr(workloads, name, getattr(workloads, name) * scale)
    files = workloads.GENERATORS[workload](seed)
    for name in INPUTS:
        Path(folder, name).write_text(files[name], encoding="utf-8")
    doc = json.loads(files["graph.json"])
    return {"objects": len(doc["nodes"]) + len(doc["edges"])}


# -- child: measure ----------------------------------------------------------

class Collections:
    """Collections and seconds per generation, fed by ``gc.callbacks``."""

    def __init__(self) -> None:
        self.counts = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.counts[info["generation"]] += 1
            self.seconds[info["generation"]] += time.perf_counter() - self._start

    def to_dict(self) -> dict:
        return {"collections": self.counts, "s": [round(s, 6) for s in self.seconds]}


def run_verb(argv: list[str], collections: Collections | None = None
             ) -> tuple[int, float, str, str]:
    """Exit code, seconds, digest, and stderr then stdout of one call, run in
    the current directory; the files it wrote are hashed and removed.
    ``collections`` sees the collector's work during the timed call only."""
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    if collections:
        gc.callbacks.append(collections)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            start = time.perf_counter()
            code = gonorm_main(argv)
            seconds = time.perf_counter() - start
    finally:
        if collections:
            gc.callbacks.remove(collections)
    written = {}
    for name in sorted(set(os.listdir(".")) - set(INPUTS)):
        written[name] = hashlib.sha256(Path(name).read_bytes()).hexdigest()
        os.remove(name)
    doc = [code, stdout.getvalue(), stderr.getvalue(), written]
    digest = hashlib.sha256(json.dumps(doc, ensure_ascii=False).encode("utf-8")).hexdigest()
    return code, seconds, digest, stderr.getvalue() + stdout.getvalue()


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(folder: str, objects: int) -> dict:
    """Time every verb on the input in ``folder``, or refuse an input whose
    ``check`` fails."""
    rss_after_import = max_rss_mb()
    os.chdir(folder)
    code, _, _, text = run_verb(VERBS["check"])
    if code != 0:
        failed = next((line for line in text.splitlines() if not line.startswith("ok ")), "")
        return {"status": "refused", "reason": f"check exited {code}: {failed}"}
    verbs = {}
    for verb, argv in VERBS.items():
        collections = Collections()
        timed = [run_verb(argv, collections) for _ in range(REPEATS)]
        gc.disable()
        try:
            untimed = [run_verb(argv) for _ in range(REPEATS)]
        finally:
            gc.enable()
        outcomes = {(code, digest) for code, _, digest, _ in timed + untimed}
        if len(outcomes) != 1:
            raise RuntimeError(f"{verb} gave {len(outcomes)} outcomes over {2 * REPEATS} runs")
        [(code, digest)] = outcomes
        median = statistics.median(seconds for _, seconds, _, _ in timed)
        verbs[verb] = {"exit": code, "median_s": round(median, 6),
                       "us_per_object": round(median / objects * 1e6, 3),
                       "min_gc_off_s": round(min(seconds for _, seconds, _, _ in untimed), 6),
                       "gc": collections.to_dict(), "sha256": digest}
    schema = load_schema("schema.gofd").schema
    gc.collect()
    before = len(gc.get_objects())
    graph = load_graph("graph.json")
    gc.collect()
    loaded = len(gc.get_objects()) - before
    result = full_normalize(graph, schema)
    plans = [plan for log in result.logs for plan in log.transformations]
    gc.collect()
    normalized = len(gc.get_objects()) - before
    start = time.perf_counter()
    rebuilt = invert(result.graph, plans)
    seconds = time.perf_counter() - start
    return {"status": "measured", "verbs": verbs,
            "invert": {"s": round(seconds, 6), "plans": len(plans),
                       "rebuilt": dump_graph(rebuilt) == dump_graph(graph)},
            "tracked_objects": {"load": loaded, "normalize": normalized},
            "rss_after_import_mb": round(rss_after_import, 2),
            "rss_growth_mb": round(max_rss_mb() - rss_after_import, 2)}


def child(job: dict) -> int:
    """Run one job of ``sweep_size`` within its address-space budget."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_MB * 2**20, hard))
    try:
        if job["task"] == "generate":
            doc = generate(job["workload"], job["scale"], job["seed"], job["folder"])
        else:
            doc = measure(job["folder"], job["objects"])
    except MemoryError:
        doc = {"status": "skipped", "reason": f"over the {MEMORY_MB} MB memory budget"}
    print(json.dumps(doc))
    return 0


# -- parent ------------------------------------------------------------------

def _run_child(job: dict, deadline: float) -> dict:
    """The JSON a child prints; raises ``TimeoutExpired`` past the deadline."""
    env = dict(os.environ)  # the child imports the gonorm this process imports
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(gonorm.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, __file__, "--child", json.dumps(job)], env=env,
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 0.001))
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines() or [f"exit {done.returncode}"]
        raise RuntimeError(lines[-1])
    return json.loads(done.stdout.splitlines()[-1])


def sweep_size(workload: str, scale: int, seed: int) -> dict:
    """One size: generate it, then time it, in two children within the budgets."""
    deadline = time.monotonic() + BUDGET_S
    with tempfile.TemporaryDirectory() as folder:
        job = {"workload": workload, "scale": scale, "seed": seed, "folder": folder}
        size = _run_child({**job, "task": "generate"}, deadline)
        if "status" not in size:
            size.update(_run_child({**job, "task": "measure", "objects": size["objects"]},
                                   deadline))
    return size


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child(json.loads(argv[1]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=tuple(SCALED), default=list(SCALED))
    parser.add_argument("--scales", nargs="+", type=int, default=[1, 4, 16, 32])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / "BENCH_sweep.json"))
    args = parser.parse_args(argv)

    status = _git("status", "--porcelain", "--", "src", "scripts", "perfbench")
    doc = {"git_sha": _git("rev-parse", "HEAD"), "git_dirty": bool(status),
           "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "seed": args.seed, "repeats": REPEATS, "budget_s": BUDGET_S,
           "memory_mb": MEMORY_MB, "workloads": {}}
    for workload in args.workloads:
        sizes = doc["workloads"][workload] = []
        over = None  # the first scale over a budget; larger ones are not run
        for scale in sorted(args.scales):
            if over is not None:
                size = {"status": "skipped", "reason": f"×{over} ran over a budget"}
            else:
                try:
                    size = sweep_size(workload, scale, args.seed)
                except subprocess.TimeoutExpired:
                    size = {"status": "skipped", "reason": f"over the {BUDGET_S:g} s budget"}
                except RuntimeError as exc:
                    size = {"status": "failed", "reason": str(exc)}
                if size["status"] == "skipped":
                    over = scale
            sizes.append({"scale": scale, **size})
            print(f"{workload} ×{scale}: {size['status']}"
                  + (f" ({size['reason']})" if "reason" in size else ""), flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n",
                              encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
