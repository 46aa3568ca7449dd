"""JSON formats for systems and search reports, plus the results cache.

Both formats are canonical: fixed key order, compact separators, bricks
sorted lexicographically.  Serializing, parsing and serializing again is
byte-identical, which keeps cached and freshly computed output diffable.
"""

from __future__ import annotations

import json
import os
from typing import Any

from .geometry import Brick, Shape
from .search import ExtremalReport
from .system import IslandSystem

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


def system_from_dict(data: dict) -> IslandSystem:
    try:
        shape = Shape(tuple(data["shape"]))
        cubic = bool(data["cubic"])
        bricks = [Brick(tuple(lo), tuple(hi)) for lo, hi in data["bricks"]]
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
        return ExtremalReport(
            shape=Shape(tuple(data["shape"])),
            cubic=bool(data["cubic"]),
            mode=data["mode"],
            value=int(data["value"]),
            witness=system_from_dict(data["witness"]),
            nodes_explored=int(data["nodes"]),
            memo_hits=int(data["memo_hits"]),
            elapsed_ms=int(data["elapsed_ms"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed report document: {exc}") from exc


def resolve_cache_path(cli_path: str | None) -> str:
    """CLI flag wins; the environment variable may override the default only."""
    if cli_path is not None:
        return cli_path
    return os.environ.get(CACHE_PATH_ENV_VAR, DEFAULT_CACHE_PATH)


def cache_key(shape: Shape, cubic: bool, mode: str, engine: str, engine_version: str) -> dict:
    return {
        "shape": list(shape.dims),
        "cubic": cubic,
        "mode": mode,
        "engine": engine,
        "engine_version": engine_version,
    }


def cache_lookup(path: str, key: dict) -> dict | None:
    """Last cached report whose key fields all match exactly, if any."""
    if not os.path.exists(path):
        return None
    found = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn write must not poison the whole cache
            if not isinstance(row, dict):
                continue
            if all(row.get(name) == value for name, value in key.items()):
                found = row
    return found


def cache_append(path: str, key: dict, report: dict) -> None:
    row = dict(key)
    row["report"] = report
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(dumps_canonical(row) + "\n")
