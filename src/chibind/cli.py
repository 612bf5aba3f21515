"""Command-line surface: verify, color, analyze, and gen subcommands.

Exit codes for single-graph commands: 0 on success, 2 when the input is
malformed, unreadable or fails a pipeline precondition, 1 when an internal
structural assertion fails (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from .enumeration import decode_graph6, encode_graph6, representatives
from .colorers import COLORERS
from .errors import PreconditionError, StructureAssertionError
from .graphs import Graph, GraphError, from_edge_list, is_connected
from .harness import analyze_one, color_one, verify
from .patterns import parse_pattern_list


def _parse_edges(text: str, n: int | None) -> Graph:
    pairs = []
    top = -1
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        a, sep, b = chunk.partition("-")
        if not sep:
            raise GraphError(f"edge {chunk!r} is not of the form u-v")
        try:
            u, v = int(a), int(b)
        except ValueError:
            raise GraphError(f"edge {chunk!r} has a non-integer endpoint") from None
        pairs.append((u, v))
        top = max(top, u, v)
    count = n if n is not None else top + 1
    return from_edge_list(count, pairs)


def _load_graph(args) -> Graph:
    if args.g6:
        return decode_graph6(args.g6)
    if args.edges:
        return _parse_edges(args.edges, args.n)
    raise GraphError("provide a graph via --g6 or --edges")


def _cmd_verify(args) -> int:
    report = verify(args.target, n_max=args.n, source=args.infile,
                    keep_rows=args.csv is not None, connected=args.connected)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(include_timing=args.timing))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    print(report.summary())
    for g6, detail in report.violations:
        print(f"  violation {g6}: {detail}")
    if report.extremes:
        print(f"  extremes: ratio {report.extremes['max_ratio']} at {report.extremes['witness']}")
    return 1 if report.violations else 0


def _cmd_color(args) -> int:
    g = _load_graph(args)
    payload = color_one(g, args.pipeline)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_analyze(args) -> int:
    g = _load_graph(args)
    print(json.dumps(analyze_one(g), indent=2, sort_keys=True))
    return 0


def _cmd_gen(args) -> int:
    members = representatives(args.n, parse_pattern_list(args.free) if args.free else ())
    count = 0
    for g in members:
        if args.connected and not is_connected(g):
            continue
        print(encode_graph6(g))
        count += 1
    print(f"# {count} graphs", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chibind",
        description="Structural verification and certified colouring for "
                    "hereditary graph classes at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification target exhaustively")
    p_verify.add_argument("--target", required=True)
    p_verify.add_argument("--n", type=int, default=None, help="vertex cap (target default otherwise)")
    p_verify.add_argument("--connected", action="store_true",
                          help="restrict the universe to connected graphs")
    p_verify.add_argument("--in", dest="infile", default=None, help="graph6 file instead of generation")
    p_verify.add_argument("--json", default=None, help="write the canonical JSON report here")
    p_verify.add_argument("--csv", default=None, help="write one row per graph here")
    p_verify.add_argument("--timing", action="store_true", help="include wall time in the JSON")
    p_verify.set_defaults(fn=_cmd_verify)

    p_color = sub.add_parser("color", help="colour one graph through a pipeline")
    p_color.add_argument("--pipeline", required=True, choices=sorted(COLORERS))
    p_color.add_argument("--g6", default=None)
    p_color.add_argument("--edges", default=None, help='edge list like "0-1,1-2"')
    p_color.add_argument("--n", type=int, default=None, help="vertex count for --edges")
    p_color.set_defaults(fn=_cmd_color)

    p_analyze = sub.add_parser("analyze", help="print a structural profile")
    p_analyze.add_argument("--g6", default=None)
    p_analyze.add_argument("--edges", default=None)
    p_analyze.add_argument("--n", type=int, default=None)
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_gen = sub.add_parser("gen", help="emit one graph6 line per isomorphism class")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--connected", action="store_true")
    p_gen.add_argument("--free", default=None, help='patterns to exclude, e.g. "P5,K2,3"')
    p_gen.set_defaults(fn=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PreconditionError, GraphError, KeyError, OSError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except StructureAssertionError as exc:
        print(f"internal assertion failed (bug): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
