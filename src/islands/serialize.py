"""JSON formats for systems and search reports, plus the results cache.

Both formats are canonical: fixed key order, compact separators, bricks
sorted lexicographically.  Serializing, parsing and serializing again is
byte-identical, which keeps cached and freshly computed output diffable.
"""

from __future__ import annotations

import fcntl
import json
import os
from typing import Any

from .geometry import Brick, Shape
from .search import ENGINE_VERSION, ExtremalReport, _short_digest
from .system import IslandSystem, is_laminar, is_maximal

DEFAULT_CACHE_PATH = "./islands-cache.jsonl"
CACHE_PATH_ENV_VAR = "ISLANDS_CACHE"


def dumps_canonical(data: Any) -> str:
    return json.dumps(data, separators=(",", ":"))


def system_to_dict(system: IslandSystem) -> dict:
    return {
        "shape": list(system.shape.dims),
        "cubic": system.cubic,
        "bricks": [[list(b.lo), list(b.hi)] for b in system.bricks],
    }


def _typed(value: Any, kind: type) -> Any:
    if type(value) is not kind:  # exactly: true is no integer, and "false" no boolean
        raise ValueError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


def _count(value: Any) -> int:
    if _typed(value, int) < 0:
        raise ValueError(f"expected a count of 0 or more, got {value!r}")
    return value


def _brick(entry: Any) -> Brick:
    # checked before unpacking: a string or an object would unpack into characters or keys
    if type(entry) is not list or len(entry) != 2 or any(type(c) is not list for c in entry):
        raise ValueError(f"expected a brick as an array of two arrays, got {entry!r}")
    lo, hi = entry
    return Brick(tuple(lo), tuple(hi))


def system_from_dict(data: dict) -> IslandSystem:
    try:
        shape = Shape(tuple(data["shape"]))
        cubic = _typed(data["cubic"], bool)
        bricks = [_brick(entry) for entry in data["bricks"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed system document: {exc}") from exc
    return IslandSystem(shape, bricks, cubic=cubic)


def report_to_dict(report: ExtremalReport) -> dict:
    return {
        "shape": list(report.shape.dims),
        "cubic": report.cubic,
        "mode": report.mode,
        "value": report.value,
        "witness": system_to_dict(report.witness),
        "nodes": report.nodes_explored,
        "memo_hits": report.memo_hits,
        "elapsed_ms": report.elapsed_ms,
    }


def report_from_dict(data: dict) -> ExtremalReport:
    try:
        if data["mode"] not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {data['mode']!r}")
        return ExtremalReport(
            shape=Shape(tuple(data["shape"])),
            cubic=_typed(data["cubic"], bool),
            mode=data["mode"],
            value=_typed(data["value"], int),
            witness=system_from_dict(data["witness"]),
            nodes_explored=_count(data["nodes"]),
            memo_hits=_count(data["memo_hits"]),
            elapsed_ms=_count(data["elapsed_ms"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed report document: {exc}") from exc


def resolve_cache_path(cli_path: str | None) -> str:
    """CLI flag wins; the environment variable may override the default only."""
    if cli_path is not None:
        return cli_path
    return os.environ.get(CACHE_PATH_ENV_VAR, DEFAULT_CACHE_PATH)


def cache_key(shape: Shape, cubic: bool, mode: str, engine: str) -> dict:
    return {
        "shape": list(shape.dims),
        "cubic": cubic,
        "mode": mode,
        "engine": engine,
        "engine_version": ENGINE_VERSION,
    }


def cache_lookup(path: str, key: dict, node_cap: int) -> ExtremalReport | None:
    """The report of the last row whose five key fields all match, if it checks out.

    Lines that are not JSON objects are skipped, among them blank lines, lines
    that do not decode and JSON nested past the decoder's recursion limit.  The
    last key-matching row decides, read as the report it is: it is a miss
    (``None``) when its ``digest`` is not that of its other fields serialized
    again, or they are nested too deep for that; when the report is malformed,
    took more than ``node_cap`` nodes or has a witness of another shape, cubic
    flag or size; or when the witness is not laminar and maximal.  So is a
    missing file."""
    found = None
    try:
        handle = open(path, "rb")
    except FileNotFoundError:  # opened once, not checked first: it may go in between
        return None
    with handle:
        for line in handle:
            try:
                row = json.loads(line.decode())  # not UTF-8: UnicodeDecodeError
            except (ValueError, RecursionError):
                continue  # a torn write must not poison the whole cache
            if isinstance(row, dict) and key.items() <= row.items():
                found = row
    if found is None:
        return None
    try:
        sealed = found.pop("digest", None) == _short_digest(dumps_canonical(found).encode())
        report = report_from_dict(found)
    except (ValueError, RecursionError):  # parsed, yet too deep to serialize again
        return None
    witness = report.witness
    checks = (
        sealed,
        report.nodes_explored <= node_cap,
        (witness.shape, witness.cubic, len(witness)) == (report.shape, report.cubic, report.value),
    )
    certified = all(checks) and is_laminar(witness.bricks) and is_maximal(witness)
    return report if certified else None


def cache_append(path: str, key: dict, report: dict) -> None:
    """Append ``report`` with the key's engine fields and their digest last, in one locked
    ``os.write``, after a newline if the file ends in a torn line, so a killed writer's
    fragment never swallows the row."""
    fields = dumps_canonical(dict(report, engine=key["engine"], engine_version=key["engine_version"]))
    row = f'{fields[:-1]},"digest":"{_short_digest(fields.encode())}"}}\n'.encode()
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)  # no other appender's row looks torn; close unlocks
        end = os.fstat(fd).st_size
        os.write(fd, row if end == 0 or os.pread(fd, 1, end - 1) == b"\n" else b"\n" + row)
    finally:
        os.close(fd)
