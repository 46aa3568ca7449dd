"""Command-line front end: construct, check, search, verify.

Exit codes: 0 success/verified, 1 property violated, 2 usage or parse
error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import Iterable

from .constructors import (
    minimal_maximal_systems,
    nested_cubes,
    nested_min_system,
    subdivision_system,
)
from .errors import CapExceeded
from .geometry import Shape
from .search import DEFAULT_NODE_CAP, ENGINES, check_brick_cap
from .serialize import (
    dumps_canonical,
    report_to_dict,
    resolve_cache_path,
    system_from_dict,
    system_to_dict,
)
from .system import gap_profiles, is_laminar, is_maximal, max_elements
from . import verify as sweeps

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3
# Largest universe `check` builds masks for: 12x12x12 (474,552 bricks) takes ~1 s.
CHECK_BRICK_CAP = 500_000


def _parse_shape(text: str) -> Shape:
    try:
        return Shape(tuple(int(part) for part in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: {exc}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; callers must not change it.

    Each construction kind and each verify suite has its own subparser that
    declares only the options it reads, so any other option is a usage error.
    """
    parser = argparse.ArgumentParser(
        prog="islands",
        description="Construct, check and search systems of brick and cubic islands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit one of the extremal constructions as JSON")
    p.set_defaults(run=cmd_construct)
    kinds = p.add_subparsers(dest="kind", required=True)
    options = {"shape": (_parse_shape, "comma-separated sides, e.g. 3,3"), "d": (int, "dimension"),
               "m": (int, "cube side"), "k": (int, "subdivision depth")}
    for kind, names, systems in (
        ("nested-min", ("shape",), lambda args: [nested_min_system(args.shape)]),
        ("minimal-family", ("shape",), lambda args: minimal_maximal_systems(args.shape)),
        ("nested-cubes", ("d", "m"), lambda args: [nested_cubes(args.d, args.m)]),
        ("subdivision", ("d", "k"), lambda args: [subdivision_system(args.d, args.k)]),
    ):
        q = kinds.add_parser(kind)
        for name in names:
            parse, help_ = options[name]
            q.add_argument(f"--{name}", type=parse, required=True, help=help_)
        q.add_argument("--output", "-o", help="write to this path instead of stdout")
        q.set_defaults(systems=systems)

    p = sub.add_parser("check", help="validate a system JSON file")
    p.add_argument("path", help="system file, or - for stdin")
    p.set_defaults(run=cmd_check)

    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--engine", choices=list(ENGINES), default="front")
    cache.add_argument("--cache", default=None, help="results cache path (JSON lines)")
    cache.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("search", help="compute an extremal maximal-system size", parents=[cache])
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument("--mode", choices=["min", "max"], default="min")
    p.add_argument("--cubic", action="store_true")
    p.add_argument("--brick-cap", type=_positive_int, default=None)
    p.add_argument("--node-cap", type=_positive_int, default=DEFAULT_NODE_CAP)
    p.set_defaults(run=cmd_search)

    p = sub.add_parser("verify", help="sweep a claim suite and print a pass/fail table")
    p.set_defaults(run=cmd_verify)
    suites = p.add_subparsers(dest="suite", required=True)
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=["csv", "json"], default="csv")
    table.add_argument("--strict", action="store_true", help="treat SKIPPED rows as failures")
    table.add_argument("--output", "-o", help="write the table to this path instead of stdout")
    sweep = argparse.ArgumentParser(add_help=False, parents=[table, cache])
    sweep.add_argument("--max-side", type=_positive_int, default=3)
    box = argparse.ArgumentParser(add_help=False, parents=[sweep])
    box.add_argument("--max-dim", type=_positive_int, default=2)
    oracle = argparse.ArgumentParser(add_help=False, parents=[table])
    oracle.add_argument("--shape", type=_parse_shape, action="append",
                        help="explicit shape (repeatable)")
    oracle.add_argument("--no-cache", action="store_true", help="a no-op: these suites keep no cache")
    # the lambdas look the row functions up in `sweeps` per call, not once here
    for suite, parent, rows in (
        ("theorem1", box, lambda a: sweeps.theorem1_rows(_searcher(a), a.max_dim, a.max_side)),
        ("theorem2", box, lambda a: sweeps.theorem2_rows(_searcher(a), a.max_dim, a.max_side)),
        ("theorem3", box, lambda a: sweeps.theorem3_rows(_searcher(a), a.max_dim, a.max_side)),
        ("prior-work", sweep, lambda a: sweeps.prior_work_rows(_searcher(a), a.max_side)),
        ("classification", oracle, lambda a: sweeps.classification_rows(
            a.shape or [Shape((2, 1)), Shape((2, 2))])),
        ("corollaries", oracle, lambda a: sweeps.corollary_rows(
            a.shape or [Shape((3, 3)), Shape((2, 3)), Shape((2, 2, 2))])),
    ):
        suites.add_parser(suite, parents=[parent]).set_defaults(rows=rows)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:
        return EXIT_USAGE if exit_.code else EXIT_OK
    try:
        return args.run(args)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _emit(lines: Iterable[str], output: str | None) -> None:
    """Write each line to ``output``, or to stdout, as it is made.

    A reader that closes stdout early ends the writing quietly: stdout is
    pointed at ``os.devnull``, so the flush at interpreter exit cannot fail
    either, and the command's own exit code stands.
    """
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.writelines(line + "\n" for line in lines)
        return
    try:
        sys.stdout.writelines(line + "\n" for line in lines)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _searcher(args, **caps) -> sweeps.Searcher:
    """The Searcher that ``--engine``, ``--cache`` and ``--no-cache`` ask for."""
    cache_path = None if args.no_cache else resolve_cache_path(args.cache)
    return sweeps.Searcher(engine=args.engine, cache_path=cache_path, **caps)


def cmd_construct(args) -> int:
    systems = args.systems(args)  # minimal-family's is lazy: each is written as it is made
    _emit((dumps_canonical(system_to_dict(system)) for system in systems), args.output)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.path == "-":
        raw = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    try:
        data = json.loads(raw)
    except RecursionError:  # outside input, not an engine fault: a parse error
        raise ValueError("malformed system document: nested too deeply") from None
    system = system_from_dict(data)
    check_brick_cap(system.shape, system.cubic, CHECK_BRICK_CAP)  # before any O(n²) scan
    laminar = is_laminar(system.bricks)
    summary = {
        "laminar": laminar,
        "maximal": None,
        "size": len(system),
        "max_elements": None,
        "gap_summary": None,
    }
    if laminar:
        members = max_elements(system)
        profiles = gap_profiles(system.shape, members)
        gaps = [gap for profile in profiles for gap in profile.gaps]
        summary["maximal"] = is_maximal(system)
        summary["max_elements"] = len(members)
        summary["gap_summary"] = {
            "edges": len(profiles),
            "gap_count": len(gaps),
            "max_gap_length": max((gap.length for gap in gaps), default=0),
        }
    _emit([dumps_canonical(summary)], None)
    return EXIT_OK if laminar else EXIT_VIOLATION


def cmd_search(args) -> int:
    shape = args.shape
    if args.cubic and not shape.is_cube:
        raise ValueError(f"cubic mode requires equal sides, got {shape}")
    searcher = _searcher(args, brick_count_cap=args.brick_cap, node_cap=args.node_cap)
    report = searcher.report(shape, args.mode, args.cubic)
    _emit([dumps_canonical(report_to_dict(report))], None)
    return EXIT_OK


def cmd_verify(args) -> int:
    rows = args.rows(args)
    _emit([dumps_canonical(rows)] if args.format == "json" else _csv_lines(rows), args.output)

    bad = {sweeps.FAIL, sweeps.SKIPPED} if args.strict else {sweeps.FAIL}
    return EXIT_VIOLATION if any(row["status"] in bad for row in rows) else EXIT_OK


def _csv_lines(rows: list[dict]) -> list[str]:
    sink = io.StringIO()
    writer = csv.DictWriter(sink, sweeps.COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return sink.getvalue().splitlines()


if __name__ == "__main__":
    sys.exit(main())
