#!/usr/bin/env python3
"""Benchmark of the gonorm command-line verbs, run in-process.

    python3 perfbench/run.py --workload teaching --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` and
the oracles from ``tests/``.  The workload's input files are generated from
the seed under ``.perfbench/`` and removed afterwards.  Each verb call goes
through ``gonorm.cli.main(argv)`` and reads its inputs from disk, as the
command line does.  The loop is closed: one client, one process, no extra
threads; the next call starts when the last one returns.

``--trace 0`` times the verbs untraced and prints the end-to-end metrics.
A verb's time is the median over the run of its wall time per call, scaled
to a reference machine speed measured beside each call (``Speedometer``),
because this kind of shared machine changes speed by up to 2x over minutes;
the raw wall-time medians are printed beside the scaled ones.
``--trace 1`` first times a few untraced cycles, then wraps the traced
functions (see ``tracing.py``) and reports per-module metrics, the tracing
overhead, and a per-verb table of module self times; its spans are written
to ``.perfbench/trace-<workload>-<seed>.jsonl``.  Both modes check every
verb's output (``checks.py``) outside the timed region.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPS = 5
MIN_CYCLES = 3
# per cycle, a verb faster than this is called again until it has used it
SLICE_S = 0.2
MAX_REPS = 100
# share of --seconds a traced run spends on untraced cycles, the overhead baseline
UNTRACED_SHARE = 0.4

VERBS = {
    "check": ["check", "--graph", "graph.json", "--schema", "schema.gofd", "--format", "json"],
    "metrics": ["metrics", "--graph", "graph.json", "--schema", "schema.gofd", "--format", "json"],
    "normalize": ["normalize", "--graph", "graph.json", "--schema", "schema.gofd",
                  "--out", "out", "--format", "json"],
    "mincover": ["mincover", "--schema", "schema.gofd", "--format", "json"],
    "nf_bcnf": ["nf", "--schema", "schema.gofd", "--form", "bcnf", "--format", "json"],
    "nf_3nf": ["nf", "--schema", "schema.gofd", "--form", "3nf", "--format", "json"],
}
WRITES = {"normalize": ("out.graph.json", "out.schema.gofd")}
# run once per invocation in the correctness step, on a graph that breaks the dependencies
VIOLATING_CHECK = ["check", "--graph", "violating.graph.json", "--schema", "schema.gofd",
                   "--format", "json"]


def import_program():
    """Import gonorm from this checkout's ``src``; exit non-zero if it is not there."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        gonorm = importlib.import_module("gonorm")
        importlib.import_module("oracles")
    except ImportError as exc:
        sys.exit(f"error: cannot import the program from {ROOT}: {exc}")
    if Path(gonorm.__file__).resolve().parent != ROOT / "src" / "gonorm":
        sys.exit(f"error: gonorm was imported from {gonorm.__file__}, not from {ROOT / 'src'}")


# -- one verb call ----------------------------------------------------------------

def call_verb(verb: str, tracer=None, argv: list[str] | None = None):
    """Run one verb through ``gonorm.cli.main`` with ``argv``, by default the
    verb's entry in VERBS; returns its Output and wall time."""
    from checks import Output

    cli = importlib.import_module("gonorm.cli")
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin(verb)
    started = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv or VERBS[verb]))
    except Exception:  # a crash is a failed call, not the end of the run
        code = -1
        err.write(traceback.format_exc())
    elapsed = perf_counter() - started
    if tracer is not None:
        tracer.end()
    files = {}
    for name in WRITES.get(verb, ()):
        try:
            with open(name, "rb") as fh:
                files[name] = fh.read()
        except FileNotFoundError:
            pass  # the call failed before writing; its digest shows it
    return Output(code, out.getvalue(), err.getvalue(), files), elapsed


def digest(output) -> str:
    h = hashlib.sha256()
    h.update(f"{output.code}\0{output.stdout}\0{output.stderr}\0".encode("utf-8"))
    for name in sorted(output.files):
        h.update(name.encode("utf-8") + b"\0" + output.files[name] + b"\0")
    return h.hexdigest()


# -- set-up -------------------------------------------------------------------------

def write_inputs(workload: str, seed: int) -> None:
    from workloads import GENERATORS

    for name, text in GENERATORS[workload](seed).items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)


def load_inputs() -> float:
    """Load the written inputs once with the program; returns the wall time."""
    from gonorm import load_graph, load_schema

    started = perf_counter()
    load_graph("graph.json")
    load_schema("schema.gofd")
    return perf_counter() - started


# -- machine speed ------------------------------------------------------------------

# Wall time of reference_work() on an idle core of the machine the seed
# numbers in NOTES.md come from (2 vCPUs, Xeon at 2.0 GHz, Python 3.11).
REFERENCE_S = 0.0085


def reference_work() -> int:
    """A fixed computation in the program's two styles, in equal parts:
    records, hashing, sorting and JSON as in the graph verbs, and subset
    tests in a fixpoint loop as in the closures of the schema verbs."""
    rng = random.Random(7)
    rows = [(rng.randrange(60), f"v{rng.randrange(500)}") for _ in range(750)]
    groups: dict[tuple, set] = {}
    for i, (key, tag) in enumerate(rows):
        groups.setdefault((key, tag[:2]), set()).add(f"n{i}")
    ordered = sorted(rows, key=lambda row: (row[0], row[1]))
    text = json.dumps([{"k": key, "t": tag} for key, tag in ordered], indent=2)
    total = len(text) + len(groups) + len(json.loads(text))

    universe = [f"a{i}" for i in range(14)]
    fds = [(frozenset(rng.sample(universe, rng.choice((1, 2, 3)))),
            frozenset(rng.sample(universe, 1))) for _ in range(30)]
    for mask in range(1, 600):
        closed = {name for i, name in enumerate(universe) if mask >> i & 1}
        changed = True
        while changed:
            changed = False
            for lhs, rhs in fds:
                if lhs <= closed and not rhs <= closed:
                    closed |= rhs
                    changed = True
        total += len(closed)
    return total


class Speedometer:
    """Scales wall times to the machine speed measured just before and after them.

    The machine's speed drifts by up to 2x over minutes when other tenants
    load it, and a pure-Python program slows with it.  ``reference_work``
    runs twice on each side of a timed stretch; the stretch's wall time is
    scaled by REFERENCE_S over the median of those four times.
    """

    def __init__(self) -> None:
        self.before = self._probe()

    @staticmethod
    def _probe() -> list[float]:
        times = []
        for _ in range(2):
            started = perf_counter()
            reference_work()
            times.append(perf_counter() - started)
        return times

    def scale(self, elapsed: float) -> float:
        after = self._probe()
        factor = REFERENCE_S / statistics.median(self.before + after)
        self.before = after
        return elapsed * factor


# -- timed cycles -------------------------------------------------------------------

class Samples:
    """Per verb: time per call of each batch, scaled and raw, and mismatched calls."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {verb: [] for verb in VERBS}
        self.raw: dict[str, list[float]] = {verb: [] for verb in VERBS}
        self.calls: dict[str, int] = {verb: 0 for verb in VERBS}
        self.mismatched: dict[str, int] = {verb: 0 for verb in VERBS}
        self.cycles = 0


def run_cycles(samples: Samples, reference: dict[str, str], reps: dict[str, int],
               seconds: float, tracer=None) -> None:
    """Closed loop: cycles of every verb until ``seconds`` have passed.

    Within a cycle each verb runs as one batch of ``reps[verb]`` calls; a
    batch's mean wall time per call is one sample.
    """
    deadline = perf_counter() + seconds
    while samples.cycles < MIN_CYCLES or perf_counter() < deadline:
        gc.collect()
        speed = Speedometer()
        for verb in VERBS:
            busy = 0.0
            for _ in range(reps[verb]):
                output, elapsed = call_verb(verb, tracer)
                busy += elapsed
                if digest(output) != reference[verb]:
                    samples.mismatched[verb] += 1
            samples.calls[verb] += reps[verb]
            samples.raw[verb].append(busy / reps[verb])
            samples.times[verb].append(speed.scale(busy / reps[verb]))
        samples.cycles += 1


# -- traced run ---------------------------------------------------------------------

def layer_metrics(tracer, cycles: int, verify_lossless_s: float, overhead_s: float,
                  traced_times: dict[str, list[float]]) -> tuple[dict[str, float], list[str]]:
    """Per-cycle per-layer metrics (medians over traced cycles) and a per-verb table."""
    from tracing import MODULES

    by_module, by_span, roots = tracer.self_times()
    verbs = list(VERBS)
    per_cycle: list[dict[str, float]] = []
    for cycle in range(cycles):
        ids = range(cycle * len(verbs), (cycle + 1) * len(verbs))
        span = {}
        counts = {}
        for i in ids:
            for key, value in by_span[i].items():
                span[key] = span.get(key, 0.0) + value
            for key, value in tracer.counts[i].items():
                counts[key] = counts.get(key, 0) + value
        wall = sum(traced_times[tracer.calls[i]][cycle] for i in ids)
        normalize_call = ids[verbs.index("normalize")]

        def calls(prefix: str) -> int:
            return sum(v for k, v in counts.items() if k.startswith(prefix + "@"))

        norm_evals = sum(v for k, v in tracer.counts[normalize_call].items()
                         if k.startswith("pattern.evaluate@"))
        passes = tracer.scope_passes(normalize_call)
        row = {
            "pattern.evaluate_s": span.get("pattern.evaluate", 0.0),
            "pattern.evaluate_calls": calls("pattern.evaluate"),
            "pattern.rows": counts.get("pattern.rows", 0),
            "pattern.evaluate_per_scope_pass": norm_evals / passes if passes else 0.0,
            "graph.load_s": span.get("graph.load_graph", 0.0),
            "graph.dump_s": span.get("graph.dump_graph", 0.0),
            "graph.copy_s": span.get("graph.copy", 0.0),
            "graph.bytes_in": counts.get("graph.bytes_in", 0),
            "graph.bytes_out": counts.get("graph.bytes_out", 0),
            "graph.remove_object_calls": counts.get("graph.remove_object", 0),
            "parser.load_schema_s": span.get("parser.load_schema", 0.0),
            "parser.decls": counts.get("parser.decls", 0),
            "gofd.satisfies_s": span.get("gofd.satisfies:self", 0.0),
            "gofd.applicable_deps_s": span.get("gofd.applicable_deps", 0.0),
            "gofd.minimal_cover_s": span.get("gofd.minimal_cover", 0.0),
            "gofd.closure_calls": calls("gofd.closure"),
            "normalform.check_s": span.get("normalform.check_gn_nf", 0.0),
            "normalform.candidate_keys_s": span.get("normalform.candidate_keys", 0.0),
            "normalform.closures": counts.get("gofd.scope_closure@normalform", 0),
            "transform.build_plans_s": span.get("transform.build_plans:self", 0.0),
            "transform.execute_plans_s": span.get("transform.execute_plans", 0.0),
            "transform.value_nodes": counts.get("transform.value_nodes", 0),
            "transform.edges_reified": counts.get("transform.edges_reified", 0),
            "metrics.build_report_s": span.get("metrics.build_report:self", 0.0),
            "trace.wall_s": wall,
            "trace.residual_s": wall - sum(roots[i] for i in ids),
            "trace.spans": sum(1 for s in tracer.spans if s[4] in ids),
        }
        for op in ("new_node", "new_edge", "move_prop", "del_edge"):
            row[f"transform.ops.{op}"] = counts.get(f"transform.ops.{op}", 0)
        for module in MODULES:
            row[f"{module}.self_s"] = sum(by_module[i].get(module, 0.0) for i in ids)
        per_cycle.append(row)

    metrics = {key: statistics.median(row[key] for row in per_cycle) for key in per_cycle[0]}
    metrics["transform.verify_lossless_s"] = verify_lossless_s
    metrics["trace.overhead_s"] = overhead_s

    # per verb: median over its traced calls of wall time and each module's self time
    table = [f"  {'verb':<10}{'wall_s':>9}" + "".join(f"{m:>11}" for m in MODULES)
             + f"{'residual':>10}"]
    for position, verb in enumerate(verbs):
        ids = [cycle * len(verbs) + position for cycle in range(cycles)]
        walls = traced_times[verb][:cycles]
        selfs = {m: statistics.median(by_module[i].get(m, 0.0) for i in ids) for m in MODULES}
        residual = statistics.median(walls[k] - sum(by_module[i].values())
                                     for k, i in enumerate(ids))
        table.append(f"  {verb:<10}{statistics.median(walls):>9.4f}"
                     + "".join(f"{selfs[m]:>11.4f}" for m in MODULES) + f"{residual:>10.5f}")
    return metrics, table


# -- the run ------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One invocation; returns the result document (see the module docstring)."""
    import checks
    from gonorm import load_schema
    from tracing import Tracer
    from workloads import SIZES

    lines = [f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}",
             f"  inputs: {SIZES[workload]}"]
    write_inputs(workload, seed)
    speed = Speedometer()
    setups = [speed.scale(load_inputs()) for _ in range(SETUP_REPS)]

    # warm-up cycle: untimed; its outputs are the reference every timed call must repeat
    warm: dict[str, object] = {}
    reps: dict[str, int] = {}
    for verb in VERBS:
        warm[verb], elapsed = call_verb(verb)
        reps[verb] = 1 if trace else max(1, min(MAX_REPS, int(SLICE_S / max(elapsed, 1e-6))))
    reference = {verb: digest(output) for verb, output in warm.items()}

    samples = Samples()
    tracer = None
    layer: dict[str, float] = {}
    table: list[str] = []
    if trace:
        untraced = Samples()
        run_cycles(untraced, reference, reps, seconds * UNTRACED_SHARE)
        tracer = Tracer()
        tracer.install()
        try:
            run_cycles(samples, reference, reps, seconds * (1 - UNTRACED_SHARE), tracer)
        finally:
            tracer.uninstall()
    else:
        run_cycles(samples, reference, reps, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    violating = None
    if os.path.exists("violating.graph.json"):
        violating, _ = call_verb("check", argv=VIOLATING_CHECK)
    report = checks.run_checks("graph.json", load_schema("schema.gofd").schema, warm,
                               "violating.graph.json", violating)
    if trace:
        # speed-scaled, so that drift between the two stretches does not count as overhead
        overhead_s = (statistics.median(samples.times["normalize"])
                      - statistics.median(untraced.times["normalize"]))
        layer, table = layer_metrics(tracer, samples.cycles, report.verify_lossless_s,
                                     overhead_s, samples.raw)
        tracer.write(str(ROOT / ".perfbench" / f"trace-{workload}-{seed}.jsonl"))

    attempted = sum(samples.calls.values())
    failed = 0
    for verb, calls in samples.calls.items():
        # every call repeated the reference bytes unless counted in mismatched,
        # so a reference that fails a check fails all the others too
        failed += calls if verb in report.problems else samples.mismatched[verb]

    metrics = {"setup_s": (statistics.median(setups), "s")}
    lines.append(f"  {'setup_s':<20}{statistics.median(setups):>10.4f} s   "
                 f"median of {SETUP_REPS} loads of the inputs")
    for verb, times in samples.times.items():
        q1, med, q3 = statistics.quantiles(times, n=4)  # at least MIN_CYCLES samples
        metrics[f"{verb}_s"] = (med, "s")
        lines.append(f"  {verb + '_s':<20}{med:>10.4f} s   q1={q1:.4f} q3={q3:.4f} "
                     f"n={len(times)} batches of {reps[verb]}; "
                     f"raw wall median {statistics.median(samples.raw[verb]):.4f} s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["stored_bytes_ratio"] = (report.stored_bytes_ratio, "ratio")
    lines.append(f"  {'peak_rss_mb':<20}{peak_rss_mb:>10.1f} MB")
    lines.append(f"  {'stored_bytes_ratio':<20}{report.stored_bytes_ratio:>10.4f}")
    lines.append(f"  {'failed_frac':<20}{failed / attempted:>10.4f}   "
                 f"{failed} of {attempted} calls, {samples.cycles} cycles")
    lines.append(f"  checks: {'ok' if not report.problems else 'FAILED'}; "
                 f"{report.plans_verified} plans verified lossless in "
                 f"{report.verify_lossless_s:.3f} s")
    for verb, problems in report.problems.items():
        lines.extend(f"    {verb}: {text}" for text in problems[:5])
    lines.extend(f"  sha256 {verb:<10}{reference[verb]}" for verb in VERBS)
    if trace:
        lines.append("  module self time per verb call, s (median over traced cycles):")
        lines.extend(table)

    if trace:
        units = {key: ("count" if not key.endswith("_s") else "s") for key in layer}
        units["pattern.evaluate_per_scope_pass"] = "ratio"
        units["graph.bytes_in"] = units["graph.bytes_out"] = "bytes"
        shown = {key: {"value": value, "unit": units[key]} for key, value in layer.items()}
        lines.extend(f"  {key:<36}{value:>14.6g} {units[key]}" for key, value in layer.items())
    else:
        shown = {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}
    return {
        "lines": lines,
        "digests": reference,
        "result": {"correct": not report.problems and failed == 0,
                   "attempted": attempted, "failed": failed, "metrics": shown},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("teaching", "orders", "reasoning"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".perfbench")
    home = os.getcwd()
    os.chdir(work)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    results = ROOT / ".perfbench" / f"results-{args.workload}-{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "digests": outcome["digests"], **outcome["result"]},
                                  indent=2) + "\n", encoding="utf-8")
    print("\n".join(outcome["lines"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
