"""Command line front end.

Verbs: ``check`` (do the dependencies hold), ``mincover`` (minimal covers
per scope), ``metrics`` (redundancy report), ``nf`` (normal-form check),
``normalize`` (apply the transformations and write the results), and
``convert`` (re-emit a graph or schema file in canonical form).

Exit codes: 0 when the requested check passes or the work is done, 1 when a
check fails (violated dependency, normal-form violation), 2 for unusable
input or arguments.  All JSON output is byte-stable across runs.
"""
from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import os
import sys
from typing import Iterable

from .errors import GonormError, UnsatisfiedDependency
from .gofd import GnSchema, GoFd, applicable_deps, map_per_scope, minimal_cover, satisfies
from .graph import dump_graph, load_graph, unpaired_surrogate
from .metrics import build_report
from .normalform import DEFAULT_MAX_ATTRS, NormalForm, check_gn_nf
from .normalize import _full_normalize, _normalize_scope
from .parser import format_schema, load_schema, parse_pattern_text
from .pattern import Variable, render_pattern, render_var


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False)


def _print_json(doc: dict) -> None:
    print(_json_text(doc))


def _create_beside(path: str):
    """A new file ``<path>.<n>.tmp`` for the first free ``n``, opened exclusively.

    Unlike ``mkstemp``'s owner-only files, it gets the mode ``open`` gives.
    """
    for n in itertools.count():
        try:
            return open(f"{path}.{n}.tmp", "x", encoding="utf-8")
        except FileExistsError:
            pass


def _write_files(texts: dict[str, str]) -> None:
    """Write each text to its path, so that a failure leaves no partial file.

    Every text goes to a new temporary file beside its path first; only when
    all are written are they renamed into place; a directory path is refused first.
    """
    for path in texts:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    temps: list[str] = []
    try:
        for path, text in texts.items():
            with _create_beside(path) as fh:
                temps.append(fh.name)
                fh.write(text)
        for temp, path in zip(temps, texts):
            os.replace(temp, path)
    finally:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)


def _load_schema(path: str) -> GnSchema:
    """The schema in the file at ``path``, its warnings printed to stderr."""
    doc = load_schema(path)
    for line in doc.warnings:
        print(f"warning: {line}", file=sys.stderr)
    return doc.schema


def _render_row(variables: tuple[Variable, ...], row: tuple) -> str:
    return ", ".join(f"{render_var(v)}={value!r}" for v, value in zip(variables, row))


def _print_witness(variables: tuple[Variable, ...], pair: tuple, file=None) -> None:
    first, second = pair
    print(f"  between ({_render_row(variables, first)})", file=file)
    print(f"      and ({_render_row(variables, second)})", file=file)


def _scope_filter(deps: Iterable[GoFd], scope_text: str | None) -> list[GoFd]:
    deps = list(deps)
    if scope_text is None:
        return deps
    return list(applicable_deps(deps, parse_pattern_text(scope_text)))


def cmd_check(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    deps = _scope_filter(_load_schema(args.schema), args.scope)
    results = list(zip(deps, map_per_scope(graph, deps, lambda dep, matches: satisfies(
        graph, dep, max_witnesses=args.max_witnesses, matches=matches))))
    holds = all(outcome.holds for _, outcome in results)
    if args.format == "json":
        _print_json({
            "holds": holds,
            "results": [
                {
                    "gofd": dep.render(),
                    "holds": outcome.holds,
                    "variables": [render_var(v) for v in outcome.variables],
                    "witnesses": [[list(a), list(b)] for a, b in outcome.witnesses],
                }
                for dep, outcome in results
            ],
        })
    else:
        for dep, outcome in results:
            print(f"{'ok       ' if outcome.holds else 'VIOLATED '}{dep.render()}")
            for pair in outcome.witnesses:
                _print_witness(outcome.variables, pair)
    return 0 if holds else 1


def cmd_mincover(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    if args.scope is not None:
        scopes = [parse_pattern_text(args.scope)]
    else:
        scopes = schema.scopes()
    covers = [(scope, minimal_cover(applicable_deps(schema, scope)))
              for scope in scopes]
    flattened = [dep for _, cover in covers for dep in cover]
    if args.out:
        _write_files({args.out: format_schema(flattened)})
    if args.format == "json":
        _print_json({
            "scopes": [
                {"scope": render_pattern(scope),
                 "cover": [dep.render() for dep in cover]}
                for scope, cover in covers
            ],
        })
    else:
        print(format_schema(flattened), end="")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    report = build_report(graph, _load_schema(args.schema))
    if args.out:
        _write_files({args.out: _json_text(report) + "\n"})
    if args.format == "json":
        _print_json(report)
    else:
        g = report["graph"]
        s = report["schema"]
        print(f"graph: {g['nodeCount']} nodes, {g['edgeCount']} edges, "
              f"avg props {g['avgNodePropCount']:.2f} per node, "
              f"{g['avgEdgePropCount']:.2f} per edge")
        print(f"schema: {s['total']} dependencies ({s['withinNode']} within-node, "
              f"{s['withinEdge']} within-edge, {s['between']} between)")
        for entry in report["perDependency"]:
            tag = "  (no matches)" if entry.get("empty") else ""
            print(f"minimality {entry['minimality']:.2f}  max {entry['max']}  "
                  f"avg {entry['avg']:.2f}  {entry['gofd']}{tag}")
    return 0


def cmd_nf(args: argparse.Namespace) -> int:
    schema = _load_schema(args.schema)
    graph = load_graph(args.graph) if args.graph else None
    form = NormalForm(args.form)
    if form is NormalForm.GN1NF and graph is None:
        print("error: checking 1nf needs --graph", file=sys.stderr)
        return 2
    report = check_gn_nf(form, schema, graph=graph, max_attrs=args.max_attrs)
    if args.format == "json":
        _print_json({
            "form": report.form.value,
            "holds": report.holds,
            "violations": [
                {"scope": v.scope, "dependency": v.dependency, "reason": v.reason.value}
                for v in report.violations
            ],
        })
    else:
        state = "holds" if report.holds else f"violated ({len(report.violations)})"
        print(f"{report.form.value}: {state}")
        for violation in report.violations:
            print(f"  {violation.dependency}  [{violation.reason.value}]")
    return 0 if report.holds else 1


def cmd_normalize(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)  # normalized in place: nothing else holds it
    schema = _load_schema(args.schema)
    if args.scope is not None:
        result = _normalize_scope(graph, schema, parse_pattern_text(args.scope))
    else:
        result = _full_normalize(graph, schema)
    texts = {f"{args.out}.graph.json": dump_graph(result.graph),
             f"{args.out}.schema.gofd": format_schema(result.schema)}
    passes = [log.to_dict(explain=args.explain) for log in result.logs]
    if args.explain:
        texts[f"{args.out}.log.json"] = _json_text({"passes": passes}) + "\n"
    written = list(texts)
    if args.format == "json":
        lines = [_json_text({"passes": passes, "written": written})]
    else:
        lines = []
        for log in result.logs:
            lines.append(f"pass {log.scope}: {len(log.transformations)} transformations, "
                         f"{len(log.kept)} kept, {len(log.key_dependencies)} key dependencies")
            lines += [f"  warning: {warning}" for warning in log.warnings]
        lines += [f"wrote {path}" for path in written]
    report = "".join(line + "\n" for line in lines)
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding:  # a report stdout cannot hold fails before any file is written
        report.encode(encoding, getattr(sys.stdout, "errors", None) or "strict")
    _write_files(texts)
    sys.stdout.write(report)
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    if bool(args.graph) == bool(args.schema):
        print("error: convert needs exactly one of --graph or --schema",
              file=sys.stderr)
        return 2
    if args.graph:
        text = dump_graph(load_graph(args.graph))
    else:
        text = format_schema(_load_schema(args.schema))
    if args.out:
        _write_files({args.out: text})
    else:
        print(text, end="")
    return 0


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("human", "json"), default="human",
                     help="output style (default: human)")


def _count(text: str) -> int:
    """An integer of at least 0, the type of the options that bound a count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Every verb's parser, built once per process, when ``set_defaults``
    binds each verb's ``cmd_*`` function; parsing changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="gonorm",
        description="Dependency-guided normalization of labeled property graphs.")
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="test whether the graph satisfies the schema")
    check.add_argument("--graph", required=True)
    check.add_argument("--schema", required=True)
    check.add_argument("--scope", help="restrict to dependencies applicable to this pattern")
    check.add_argument("--max-witnesses", type=_count, default=5)
    _add_format(check)
    check.set_defaults(func=cmd_check)

    mincover = commands.add_parser("mincover", help="minimal cover per scope")
    mincover.add_argument("--schema", required=True)
    mincover.add_argument("--scope")
    mincover.add_argument("--out", help="write the cover as a schema file")
    _add_format(mincover)
    mincover.set_defaults(func=cmd_mincover)

    metrics = commands.add_parser("metrics", help="redundancy report for graph and schema")
    metrics.add_argument("--graph", required=True)
    metrics.add_argument("--schema", required=True)
    metrics.add_argument("--out", help="also write the JSON report here")
    _add_format(metrics)
    metrics.set_defaults(func=cmd_metrics)

    nf = commands.add_parser("nf", help="normal-form check")
    nf.add_argument("--schema", required=True)
    nf.add_argument("--graph", help="needed only for --form 1nf")
    nf.add_argument("--form", choices=("1nf", "2nf", "3nf", "bcnf"), default="bcnf")
    nf.add_argument("--max-attrs", type=_count, default=DEFAULT_MAX_ATTRS,
                    help="refuse scopes with more attributes than this")
    _add_format(nf)
    nf.set_defaults(func=cmd_nf)

    normalize = commands.add_parser("normalize", help="apply the transformations")
    normalize.add_argument("--graph", required=True)
    normalize.add_argument("--schema", required=True)
    normalize.add_argument("--scope", help="normalize only this scope")
    normalize.add_argument("--out", required=True,
                           help="basename for <out>.graph.json and <out>.schema.gofd")
    normalize.add_argument("--explain", action="store_true",
                           help="also write <out>.log.json with full action plans")
    _add_format(normalize)
    normalize.set_defaults(func=cmd_normalize)

    convert = commands.add_parser("convert", help="canonicalize a graph or schema file")
    convert.add_argument("--graph")
    convert.add_argument("--schema")
    convert.add_argument("--out")
    convert.set_defaults(func=cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsatisfiedDependency as err:
        print(f"error: {err}", file=sys.stderr)
        for pair in err.witnesses[:1]:
            _print_witness(err.variables, pair, file=sys.stderr)
        return 1
    except (GonormError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except UnicodeEncodeError as err:  # text that the output's encoding cannot hold
        graph = getattr(args, "graph", None)
        print(f"error: {graph and unpaired_surrogate(graph) or err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
