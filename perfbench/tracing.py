"""Spans and counts at gonorm's module boundaries, recorded from outside.

``Tracer.install`` replaces each function listed in ``TRACED`` at every name
a caller resolves it through: a module that did ``from .pattern import
evaluate`` holds its own binding, so each gonorm module's namespace is
searched for the original object and every binding is wrapped (methods are
wrapped on their class).  Modules are found with ``importlib.import_module``
because ``gonorm.gofd`` as a package attribute is the ``gofd()`` constructor,
not the module.  ``uninstall`` puts every original back.

A wrapper records a span (name, start, end, parent, verb-call id) only
while a verb call is open, keeps spans in memory, and counts work where it
happens.  The bookkeeping a wrapper does after the wrapped call returns is
itself recorded as a span of the pseudo-module ``trace``, so every layer's
self time excludes it.
"""
from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

# module -> public functions traced there; "Class.method" wraps on the class
TRACED = {
    "gonorm.cli": ("main",),
    "gonorm.normalize": ("full_normalize", "scoped_normalize"),
    "gonorm.metrics": ("build_report",),
    "gonorm.normalform": ("check_gn_nf", "candidate_keys"),
    "gonorm.transform": ("build_plans", "execute_plans", "verify_lossless"),
    "gonorm.gofd": ("satisfies", "applicable_deps", "minimal_cover", "scope_closure", "closure"),
    "gonorm.parser": ("load_schema", "save_schema"),
    "gonorm.graph": ("load_graph", "save_graph", "dump_graph", "Graph.copy", "Graph.remove_object"),
    "gonorm.pattern": ("evaluate",),
}
MODULES = tuple(name.split(".")[1] for name in TRACED) + ("trace",)
OP_NAMES = {"NewNode": "new_node", "NewEdge": "new_edge", "MoveProp": "move_prop",
            "DelEdge": "del_edge"}


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, call id]
        self.spans: list[list] = []
        self.calls: list[str] = []          # verb of each call id
        self.counts: list[Counter] = []     # per call id
        self._stack: list[int] = []
        self._call: int | None = None
        self._restore: list[tuple[object, str, object]] = []
        # ids are never reused, even after a graph is garbage-collected
        self._graph_ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next_graph_id = itertools.count(1)
        self._scope_passes: list[set] = []  # per call id: distinct (scope, graph)

    # -- verb calls -------------------------------------------------------------

    def begin(self, verb: str) -> None:
        self._call = len(self.calls)
        self.calls.append(verb)
        self.counts.append(Counter())
        self._scope_passes.append(set())

    def end(self) -> None:
        self._call = None

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if (name == "gonorm" or name.startswith("gonorm.")) and mod is not None]
        for module_name, names in TRACED.items():
            home = importlib.import_module(module_name)
            short = module_name.split(".")[1]
            for name in names:
                observe = getattr(self, "_observe_" + name.replace(".", "_").lower(), None)
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    self._bind(cls, method, self._wrap(f"{short}.{method}", original, observe))
                    continue
                original = getattr(home, name)
                for module in modules:
                    site = module.__name__.rpartition(".")[2]
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            wrapper = self._wrap(f"{short}.{name}", original, observe, site)
                            self._bind(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _bind(self, owner: object, attr: str, wrapper: object) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, span_name: str, fn, observe, site: str = ""):
        spans, stack = self.spans, self._stack
        count_key = f"{span_name}@{site}" if site else span_name

        def wrapper(*args, **kwargs):
            call = self._call
            if call is None:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [span_name, perf_counter(), 0.0, parent, call]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts = self.counts[call]
            counts[count_key] += 1
            if observe is not None:
                observe(counts, call, args, result)
                spans.append(["trace.observe", span[2], perf_counter(), parent, call])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        return wrapper

    # -- counts taken from arguments and results ---------------------------------

    def _graph_id(self, graph) -> int:
        if graph not in self._graph_ids:
            self._graph_ids[graph] = next(self._next_graph_id)
        return self._graph_ids[graph]

    def _observe_evaluate(self, counts, call, args, result) -> None:
        counts["pattern.rows"] += len(result.rows)
        self._scope_passes[call].add((args[0], self._graph_id(args[1])))

    def _observe_load_graph(self, counts, call, args, result) -> None:
        if isinstance(args[0], str):
            counts["graph.bytes_in"] += os.path.getsize(args[0])

    def _observe_dump_graph(self, counts, call, args, result) -> None:
        counts["graph.bytes_out"] += len(result.encode("utf-8"))

    def _observe_load_schema(self, counts, call, args, result) -> None:
        counts["parser.decls"] += len(result.schema)

    def _observe_build_plans(self, counts, call, args, result) -> None:
        plans, _ = result
        value_nodes: set[str] = set()
        reified: set[str] = set()
        for plan in plans:
            reified |= plan.deleted_edges
            for op in plan.ops:
                kind = type(op).__name__
                counts["transform.ops." + OP_NAMES.get(kind, kind)] += 1
                if kind == "NewNode" and op.node.startswith("sk:val|"):
                    value_nodes.add(op.node)
        counts["transform.value_nodes"] += len(value_nodes)
        counts["transform.edges_reified"] += len(reified)

    # -- reports ------------------------------------------------------------------

    def self_times(self) -> tuple[list[dict[str, float]], list[dict[str, float]], list[float]]:
        """Per call id: self time by module, inclusive time by span name, root duration."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        by_module = [defaultdict(float) for _ in self.calls]
        by_span = [defaultdict(float) for _ in self.calls]
        roots = [0.0] * len(self.calls)
        for i, (name, start, end, parent, call) in enumerate(self.spans):
            duration = end - start
            module = name.split(".")[0]
            by_module[call][module] += duration - child[i]
            by_span[call][name] += duration
            by_span[call][name + ":self"] += duration - child[i]
            if parent < 0:
                roots[call] += duration
        return by_module, by_span, roots

    def scope_passes(self, call: int) -> int:
        return len(self._scope_passes[call])

    def write(self, path: str) -> None:
        """All spans, one JSON array per line, after a header naming the calls."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"calls": self.calls,
                                 "fields": ["name", "start", "end", "parent", "call"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

