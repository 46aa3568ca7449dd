"""Command-line front end: construct, check, search, verify.

Exit codes: 0 success/verified, 1 property violated, 2 usage or parse
error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .constructors import (
    minimal_maximal_systems,
    nested_cubes,
    nested_min_system,
    subdivision_system,
)
from .errors import CapExceeded
from .geometry import Shape
from .search import DEFAULT_NODE_CAP
from .serialize import (
    dumps_canonical,
    report_to_dict,
    resolve_cache_path,
    system_from_dict,
    system_to_dict,
)
from .system import gap_profiles, is_maximal, max_elements
from . import verify as sweeps

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _parse_shape(text: str) -> Shape:
    try:
        return Shape(tuple(int(part) for part in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="islands",
        description="Construct, check and search systems of brick and cubic islands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit one of the extremal constructions as JSON")
    p.add_argument("kind", choices=["nested-min", "minimal-family", "nested-cubes", "subdivision"])
    p.add_argument("--shape", type=_parse_shape, help="comma-separated sides, e.g. 3,3")
    p.add_argument("--d", type=int, help="dimension (nested-cubes, subdivision)")
    p.add_argument("--m", type=int, help="cube side (nested-cubes)")
    p.add_argument("--k", type=int, help="subdivision depth (subdivision)")
    p.add_argument("--output", "-o", help="write to this path instead of stdout")

    p = sub.add_parser("check", help="validate a system JSON file")
    p.add_argument("path", help="system file, or - for stdin")

    p = sub.add_parser("search", help="compute an extremal maximal-system size")
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument("--mode", choices=["min", "max"], default="min")
    p.add_argument("--cubic", action="store_true")
    p.add_argument("--engine", choices=["front", "flat"], default="front")
    p.add_argument("--brick-cap", type=int, default=None)
    p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    p.add_argument("--cache", default=None, help="results cache path (JSON lines)")
    p.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("verify", help="sweep a claim suite and print a pass/fail table")
    p.add_argument("suite", choices=["theorem1", "theorem2", "theorem3",
                                     "prior-work", "classification", "corollaries"])
    p.add_argument("--max-dim", type=int, default=2)
    p.add_argument("--max-side", type=int, default=3)
    p.add_argument("--shape", type=_parse_shape, action="append", default=None,
                   help="explicit shape (repeatable; classification and corollaries)")
    p.add_argument("--engine", choices=["front", "flat"], default="front")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--strict", action="store_true", help="treat SKIPPED rows as failures")
    p.add_argument("--cache", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--output", "-o", help="write the table to this path as well")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return EXIT_USAGE if exit_.code else EXIT_OK
    handler = {
        "construct": cmd_construct,
        "check": cmd_check,
        "search": cmd_search,
        "verify": cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except CapExceeded as exc:
        print(
            dumps_canonical({
                "error": "cap exceeded",
                "detail": str(exc),
                "nodes": exc.nodes_explored,
                "memo_hits": exc.memo_hits,
            }),
            file=sys.stderr,
        )
        return EXIT_CAP
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_construct(args) -> int:
    def need(name):
        value = getattr(args, name)
        if value is None:
            raise ValueError(f"construct {args.kind} requires --{name}")
        return value

    if args.kind == "nested-min":
        lines = [dumps_canonical(system_to_dict(nested_min_system(need("shape"))))]
    elif args.kind == "minimal-family":
        lines = [
            dumps_canonical(system_to_dict(system))
            for system in minimal_maximal_systems(need("shape"))
        ]
    elif args.kind == "nested-cubes":
        lines = [dumps_canonical(system_to_dict(nested_cubes(need("d"), need("m"))))]
    else:
        lines = [dumps_canonical(system_to_dict(subdivision_system(need("d"), need("k"))))]
    _emit(lines, args.output)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.path == "-":
        raw = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    system = system_from_dict(json.loads(raw))
    laminar = system.is_laminar
    summary = {
        "laminar": laminar,
        "maximal": None,
        "size": len(system),
        "max_elements": None,
        "gap_summary": None,
    }
    if laminar:
        profiles = gap_profiles(system)
        gaps = [gap for profile in profiles for gap in profile.gaps]
        summary["maximal"] = is_maximal(system)
        summary["max_elements"] = len(max_elements(system))
        summary["gap_summary"] = {
            "edges": len(profiles),
            "gap_count": len(gaps),
            "max_gap_length": max((gap.length for gap in gaps), default=0),
        }
    print(dumps_canonical(summary))
    return EXIT_OK if laminar else EXIT_VIOLATION


def cmd_search(args) -> int:
    shape = args.shape
    if args.cubic and not shape.is_cube:
        raise ValueError(f"cubic mode requires equal sides, got {shape}")
    cache_path = None if args.no_cache else resolve_cache_path(args.cache)
    searcher = sweeps.Searcher(engine=args.engine, cache_path=cache_path,
                               brick_count_cap=args.brick_cap, node_cap=args.node_cap)
    print(dumps_canonical(report_to_dict(searcher.report(shape, args.mode, args.cubic))))
    return EXIT_OK


def cmd_verify(args) -> int:
    cache_path = None if args.no_cache else resolve_cache_path(args.cache)
    searcher = sweeps.Searcher(engine=args.engine, cache_path=cache_path)
    if args.suite == "theorem1":
        rows = sweeps.theorem1_rows(searcher, args.max_dim, args.max_side)
    elif args.suite == "theorem2":
        rows = sweeps.theorem2_rows(searcher, args.max_dim, args.max_side)
    elif args.suite == "theorem3":
        rows = sweeps.theorem3_rows(searcher, args.max_dim, args.max_side)
    elif args.suite == "prior-work":
        rows = sweeps.prior_work_rows(searcher, args.max_side)
    elif args.suite == "classification":
        shapes = args.shape or [Shape((2, 1)), Shape((2, 2))]
        rows = sweeps.classification_rows(shapes)
    else:
        shapes = args.shape or [Shape((3, 3)), Shape((2, 3)), Shape((2, 2, 2))]
        rows = sweeps.corollary_rows(shapes)

    if args.format == "json":
        lines = [dumps_canonical(rows)]
    else:
        lines = _csv_lines(rows)
    _emit(lines, args.output)

    bad = {sweeps.FAIL, sweeps.SKIPPED} if args.strict else {sweeps.FAIL}
    return EXIT_VIOLATION if any(row["status"] in bad for row in rows) else EXIT_OK


def _csv_lines(rows: list[dict]) -> list[str]:
    header = ["shape", "cubic", "mode", "expected", "actual", "status"]

    class _Sink:
        def __init__(self):
            self.lines = []

        def write(self, chunk):
            self.lines.append(chunk.rstrip("\r\n"))

    sink = _Sink()
    writer = csv.writer(sink)
    writer.writerow(header)
    for row in rows:
        writer.writerow([row[name] for name in header])
    return sink.lines


if __name__ == "__main__":
    sys.exit(main())
