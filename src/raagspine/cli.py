"""Command-line interface.

Subcommands: analyze, partitions, max-set, conditions, retract, verify,
apply-aut, gen.  Graph files use the line-oriented text format in UTF-8;
``-`` reads the graph from stdin.  Exit codes: 0 success, 2 parse or usage
error, 3 cap exceeded.  All JSON output carries a schema_version field.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import families
from .compat import compatibility_graph
from .conditions import condition_report, is_spiky
from .graph import GraphError, GraphParseError, SimplicialGraph, graph_to_text, mask_iter, parse_graph
from .hugging import (
    HugError,
    verify_hug_compat,
    verify_oversize_hugged,
    verify_replacement,
)
from .partitions import enumerate_partitions, render_word, whitehead_images
from .report import SCHEMA_VERSION, analyze
from .retraction import build_star, crosscheck_survivors, retract
from .search import CapExceededError, max_compatible

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3

logger = logging.getLogger("raagspine")


def _read_graph(path: str) -> SimplicialGraph:
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GraphParseError("graph text is not valid UTF-8", line) from None
    return parse_graph(text)


def _emit(payload: dict, as_json: bool, text: str | None = None) -> None:
    if as_json or text is None:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text + "\n")


def _signed_ids(g: SimplicialGraph, text: str) -> list[int]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.endswith("^-1"):
            out.append(2 * g.vertex_id(token[:-3]) + 1)
        else:
            out.append(2 * g.vertex_id(token))
    return out


def _vertex_names(g: SimplicialGraph, text: str) -> frozenset[int]:
    """Vertex ids of comma-separated names; spaces around a name are ignored."""
    return frozenset(g.vertex_id(v.strip()) for v in text.split(","))


def _vertex_set(g: SimplicialGraph, args) -> frozenset[int]:
    if args.all:
        return frozenset(range(g.n))
    if args.principal:
        return g.classify_vertices().principal
    if args.vertices is not None:
        return _vertex_names(g, args.vertices)
    return frozenset(range(g.n))


def cmd_analyze(args) -> int:
    g = _read_graph(args.graph)
    for warning in g.validation_warnings():
        logger.warning("%s", warning)
    cg = compatibility_graph(g)
    retraction_stats = None
    if args.with_retraction:
        star = build_star(cg, cap=args.cap)
        trace = retract(star, warn_and_proceed=True)
        retraction_stats = trace.to_dict()
    report = analyze(g, cg, retraction=retraction_stats)
    _emit(report.to_dict(cg), args.json, report.to_text())
    return EXIT_OK


def cmd_partitions(args) -> int:
    g = _read_graph(args.graph)
    if args.base:
        parts = enumerate_partitions(g, g.vertex_id(args.base))
    else:
        from .partitions import all_partitions

        parts = all_partitions(g)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "count": len(parts),
        "partitions": [p.render(g) for p in parts],
    }
    text = "\n".join(
        "{} | {} | link {}".format(
            ",".join(r["sideA"]), ",".join(r["sideB"]), ",".join(r["link"])
        )
        for r in payload["partitions"]
    )
    _emit(payload, args.json, f"{payload['count']} partitions\n{text}" if text else "0 partitions")
    return EXIT_OK


def cmd_max_set(args) -> int:
    g = _read_graph(args.graph)
    cg = compatibility_graph(g)
    wanted = _vertex_set(g, args)
    result = max_compatible(cg, wanted)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "restricted_to": sorted(g.names[v] for v in wanted),
        "size": result.size,
        "witness": [cg.nodes[i].render(g) for i in sorted(result.witness)],
    }
    _emit(payload, args.json, f"M = {result.size}")
    return EXIT_OK


def cmd_conditions(args) -> int:
    g = _read_graph(args.graph)
    report = condition_report(g)
    payload = {"schema_version": SCHEMA_VERSION, **report.to_dict(g)}
    text = "\n".join(
        [
            f"condition 1: {'holds' if report.condition1 else 'fails'}",
            f"condition 2: {'holds' if report.condition2 else 'fails'}",
            f"spiky: {report.spiky}",
            f"barbed: {report.barbed}",
            f"P(k): k = {report.p_k}",
        ]
    )
    _emit(payload, args.json, text)
    return EXIT_OK


def cmd_retract(args) -> int:
    g = _read_graph(args.graph)
    if not args.warn_and_proceed and not is_spiky(g):
        raise GraphError("graph is not spiky; pass --warn-and-proceed to collapse anyway")
    cg = compatibility_graph(g)
    star = build_star(cg, cap=args.cap)
    trace = retract(star, warn_and_proceed=args.warn_and_proceed)
    check = crosscheck_survivors(star, trace)
    payload = {
        "schema_version": SCHEMA_VERSION,
        **trace.to_dict(),
        "crosscheck_matches_characterization": check.ok,
    }
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(payload, fh, indent=2)
    text = (
        f"dimension {trace.initial_stats.dimension} -> {trace.final_stats.dimension}, "
        f"euler {trace.initial_stats.euler_characteristic} -> "
        f"{trace.final_stats.euler_characteristic}, {len(trace.events)} events, "
        f"{len(trace.skipped)} blocked"
    )
    _emit(payload if not args.trace else {"schema_version": SCHEMA_VERSION, "written": args.trace}, args.json, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    cg = compatibility_graph(g)
    if args.lemma == "oversize":
        verdict = verify_oversize_hugged(cg, budget=args.budget)
    elif args.lemma == "cond1-conclusion":
        verdict = verify_hug_compat(cg, budget=args.budget)
    elif args.lemma == "cond2-conclusion":
        verdict = verify_replacement(
            cg,
            budget=args.budget,
            q_bases=_vertex_names(g, args.q_bases) if args.q_bases is not None else None,
            r_bases=_vertex_names(g, args.r_bases) if args.r_bases is not None else None,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.lemma)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "lemma": args.lemma,
        "status": verdict.status,
        "checked": verdict.checked,
        "detail": verdict.detail,
    }
    _emit(payload, args.json, f"{args.lemma}: {verdict.status} ({verdict.checked} configurations)")
    return EXIT_OK


def cmd_apply_aut(args) -> int:
    g = _read_graph(args.graph)
    negative = args.base.endswith("^-1")
    base_vertex = g.vertex_id(args.base[:-3] if negative else args.base)
    base_signed = 2 * base_vertex + (1 if negative else 0)
    side = set(_signed_ids(g, args.side))
    for p in enumerate_partitions(g, base_vertex):
        if set(mask_iter(p.side_a)) == side or set(mask_iter(p.side_b)) == side:
            images = whitehead_images(g, p, base_signed)
            payload = {
                "schema_version": SCHEMA_VERSION,
                "partition": p.render(g),
                "images": {
                    g.names[v]: render_word(g, w) for v, w in sorted(images.items())
                },
            }
            text = "\n".join(
                f"{g.names[v]} -> {render_word(g, w)}" for v, w in sorted(images.items())
            )
            _emit(payload, args.json, text)
            return EXIT_OK
    raise GraphError(f"no partition based at {args.base} has side {args.side}")


def cmd_gen(args) -> int:
    family = args.family
    if family not in families.FAMILIES:
        raise GraphError(f"unknown family {family!r}; choose from {sorted(families.FAMILIES)}")
    builder = families.FAMILIES[family]
    try:
        if family == "rake":
            g = builder(args.d)
        elif family == "rake-like":
            if not args.inner:
                raise GraphError("rake-like needs --inner <graph file>")
            g = builder(args.d, _read_graph(args.inner))
        elif family in ("path", "cycle", "complete", "edgeless"):
            g = builder(args.n)
        else:
            g = builder()
    except ValueError as exc:  # out-of-range family parameters
        raise GraphError(str(exc)) from exc
    sys.stdout.write(graph_to_text(g))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raagspine",
        description="Whitehead-partition analysis of RAAG defining graphs",
    )
    parser.add_argument("--verbose", action="store_true", help="log at info level")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, graph=True):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if graph:
            p.add_argument("graph", help="graph file, or - for stdin")

    p = sub.add_parser("analyze", help="full report: classification, M(L), M(V), conditions, vcd")
    add_common(p)
    p.add_argument("--with-retraction", action="store_true")
    p.add_argument("--cap", type=int, default=200000, help="compatible-set cap")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("partitions", help="enumerate partitions")
    add_common(p)
    p.add_argument("--base", help="restrict to one base vertex")
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("max-set", help="maximum compatible set size")
    add_common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--vertices", help="comma-separated base vertices")
    group.add_argument("--principal", action="store_true", help="principal rank M(L)")
    group.add_argument("--all", action="store_true", help="spine dimension M(V)")
    p.set_defaults(func=cmd_max_set)

    p = sub.add_parser("conditions", help="condition report")
    add_common(p)
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("retract", help="build the star complex and retract it")
    add_common(p)
    p.add_argument("--cap", type=int, default=200000, help="compatible-set cap")
    p.add_argument("--trace", help="write the full trace JSON to this file")
    p.add_argument(
        "--warn-and-proceed",
        action="store_true",
        help="run on non-spiky graphs, collapsing only where faces are free",
    )
    p.set_defaults(func=cmd_retract)

    p = sub.add_parser("verify", help="brute-force verification of the key statements")
    add_common(p)
    p.add_argument(
        "--lemma",
        required=True,
        choices=["oversize", "cond1-conclusion", "cond2-conclusion"],
    )
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--q-bases", help="restrict hugged partitions' bases (cond2-conclusion)")
    p.add_argument("--r-bases", help="restrict the principal partition's bases")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("apply-aut", help="generator images of a Whitehead automorphism")
    add_common(p)
    p.add_argument("--side", required=True, help="comma-separated signed vertices of one side")
    p.add_argument("--base", required=True, help="base letter, e.g. a1 or a1^-1")
    p.set_defaults(func=cmd_apply_aut)

    p = sub.add_parser("gen", help="emit a generated family graph")
    p.add_argument("--family", required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--inner", help="inner graph file for rake-like")
    p.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        for flag in ("cap", "budget"):
            if getattr(args, flag, 0) < 0:
                raise GraphError(f"--{flag} must not be negative")
        return args.func(args)
    except (GraphError, HugError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
