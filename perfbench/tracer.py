"""Boundary tracing for the benchmark's traced run.

The tracer replaces, in each ``islands`` module, the names that module
imported from another ``islands`` module with timing wrappers, so every
recorded span sits on a layer boundary (``islands.search.disjoint``,
``islands.verify.cache_lookup``, ...).  Calls a module makes to its own
functions go through its own globals and stay untouched.  Nothing under
``src/`` is edited: the wrappers live here and are removed again by
:meth:`Tracer.uninstall`.

Two kinds of wrapper exist:

* span wrappers record one span per call (key, parent span, start, end and
  the time covered by children) in flat integer arrays held in memory;
* aggregate wrappers, used for the hot leaf calls (the geometry predicates,
  brick enumeration and ``IslandSystem`` construction) and for steps of the
  iterators returned by generator APIs, keep only a call count, an item
  count and total time, and charge that time to the enclosing span.

A span's self time is its duration minus the time its children covered.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter_ns

# Callee module and name -> metric key.  Anything not listed is keyed
# "<module>.<name>" and traced as a span.
SPAN_KEYS = {
    ("search", "extremal_size"): "search.front",
    ("search", "flat_extremal_size"): "search.flat",
    ("search", "enumerate_maximal_systems"): "search.flat",
    ("constructors", "nested_min_system"): "constructors.build",
    ("constructors", "nested_cubes"): "constructors.build",
    ("constructors", "subdivision_system"): "constructors.build",
}
PREDICATES = {"contains", "disjoint", "compatible"}
# Leaf calls too frequent for one span each.
AGGREGATE_KEYS = {
    ("geometry", "enumerate_bricks"): "geometry.enumerate_bricks",
    ("geometry", "brick_count"): "geometry.brick_count",
    ("geometry", "canonical_bricks"): "geometry.canonical_bricks",
    ("system", "IslandSystem"): "system.island_system",
}
# Callables returning an iterator whose steps do the work.
ITERATOR_APIS = {
    ("geometry", "enumerate_bricks"),
    ("search", "enumerate_maximal_systems"),
    ("constructors", "minimal_maximal_systems"),
}
# Only feeds the benchmark's correctness checks; never timed.
UNTRACED_MODULES = {"formulas", "errors"}


class _Stat:
    __slots__ = ("calls", "ns", "items")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.items = 0


class Tracer:
    """Records spans and aggregates at ``islands`` layer boundaries."""

    def __init__(self, package):
        self.package = package
        self._keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self._key_stats: list[_Stat] = []
        self._key_self_ns: list[int] = []
        self._depth: list[int] = []
        # One row per finished span.
        self.span_key = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_self = array("q")
        # Open spans: id and the time their children covered so far.  The
        # bottom entry stands for the benchmark itself.
        self._open = [-1]
        self._covered = [0]
        self.aggregates: dict[str, _Stat] = {}
        self.predicates_by_caller: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._cache_rows: dict[str, int] = {}
        self.cache_paths: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every cross-module name in each loaded module of the package."""
        prefix = self.package.__name__ + "."
        for mod_name, module in sorted(sys.modules.items()):
            if not mod_name.startswith(prefix):
                continue
            caller = mod_name[len(prefix):]
            for name, value in list(vars(module).items()):
                callee = getattr(value, "__module__", "") or ""
                if not callee.startswith(prefix) or not callable(value):
                    continue
                callee = callee[len(prefix):]
                if callee == caller or callee in UNTRACED_MODULES:
                    continue
                if isinstance(value, type) and (callee, name) not in AGGREGATE_KEYS:
                    continue
                wrapper = self._wrapper_for(caller, callee, name, value)
                self._patched.append((module, name, value))
                setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched.clear()

    def entry(self, key: str, fn):
        """A span wrapper for a call the benchmark itself makes into a layer."""
        return self._span(key, fn, self._result_hook(key))

    def _wrapper_for(self, caller: str, callee: str, name: str, fn):
        if callee == "geometry" and name in PREDICATES:
            return self._predicate(caller, fn)
        if (callee, name) in ITERATOR_APIS:
            key = AGGREGATE_KEYS.get((callee, name)) or SPAN_KEYS.get((callee, name))
            return self._iterator(key or f"{callee}.{name}", fn)
        if (callee, name) in AGGREGATE_KEYS:
            return self._aggregate(AGGREGATE_KEYS[(callee, name)], fn)
        key = SPAN_KEYS.get((callee, name), f"{callee}.{name}")
        return self._span(key, fn, self._result_hook(key))

    # -- wrappers ---------------------------------------------------------

    def _key_id(self, key: str) -> int:
        kid = self._key_ids.get(key)
        if kid is None:
            kid = len(self._keys)
            self._key_ids[key] = kid
            self._keys.append(key)
            self._key_stats.append(_Stat())
            self._key_self_ns.append(0)
            self._depth.append(0)
        return kid

    def _span(self, key: str, fn, on_result=None):
        kid = self._key_id(key)
        stat = self._key_stats[kid]
        depth = self._depth
        self_ns = self._key_self_ns
        opened = self._open
        covered = self._covered
        rows = (self.span_key, self.span_parent, self.span_start, self.span_end, self.span_self)

        def wrapper(*args, **kwargs):
            sid = len(rows[0])
            rows[0].append(kid)
            rows[1].append(opened[-1])
            rows[2].append(0)
            rows[3].append(0)
            rows[4].append(0)
            opened.append(sid)
            covered.append(0)
            depth[kid] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                depth[kid] -= 1
                opened.pop()
                children = covered.pop()
                duration = end - start
                covered[-1] += duration
                rows[2][sid] = start
                rows[3][sid] = end
                rows[4][sid] = duration - children
                self_ns[kid] += duration - children
                stat.calls += 1
                if depth[kid] == 0:
                    stat.ns += duration
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _aggregate(self, key: str, fn):
        stat = self.aggregates.setdefault(key, _Stat())
        covered = self._covered

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            duration = perf_counter_ns() - start
            stat.calls += 1
            stat.ns += duration
            covered[-1] += duration
            return result

        return wrapper

    def _predicate(self, caller: str, fn):
        stat = self.aggregates.setdefault("geometry.predicates", _Stat())
        by_caller = self.predicates_by_caller
        by_caller.setdefault(caller, 0)
        covered = self._covered

        def wrapper(a, b):
            start = perf_counter_ns()
            result = fn(a, b)
            duration = perf_counter_ns() - start
            stat.calls += 1
            stat.ns += duration
            by_caller[caller] += 1
            covered[-1] += duration
            return result

        return wrapper

    def _iterator(self, key: str, fn):
        """Times the call and every step of the iterator it returns.

        Each step pushes a frame of its own, so wrapped calls made while
        producing an item are not charged twice to the consumer's span.
        """
        stat = self.aggregates.setdefault(key, _Stat())
        covered = self._covered

        def steps(iterator):
            while True:
                covered.append(0)
                start = perf_counter_ns()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    duration = perf_counter_ns() - start
                    covered.pop()
                    stat.ns += duration
                    covered[-1] += duration
                stat.items += 1
                yield item

        def wrapper(*args, **kwargs):
            covered.append(0)
            start = perf_counter_ns()
            try:
                iterator = iter(fn(*args, **kwargs))
            finally:
                duration = perf_counter_ns() - start
                covered.pop()
                stat.calls += 1
                stat.ns += duration
                covered[-1] += duration
            return steps(iterator)

        return wrapper

    # -- per-call counts --------------------------------------------------

    def _result_hook(self, key: str):
        counters = self.counters
        if key in ("search.front", "search.flat"):
            def on_report(args, report):
                counters[key + ".nodes"] = counters.get(key + ".nodes", 0) + report.nodes_explored
                counters[key + ".memo_hits"] = (
                    counters.get(key + ".memo_hits", 0) + report.memo_hits
                )
            return on_report
        if key == "serialize.cache_lookup":
            def on_lookup(args, row):
                path = args[0]
                self.cache_paths.add(path)
                counters["cache_lookup.rows_scanned"] = (
                    counters.get("cache_lookup.rows_scanned", 0) + self._rows_in(path)
                )
                if row is not None:
                    counters["cache_lookup.hits"] = counters.get("cache_lookup.hits", 0) + 1
            return on_lookup
        if key == "serialize.cache_append":
            def on_append(args, _):
                path = args[0]
                self.cache_paths.add(path)
                if path in self._cache_rows:
                    self._cache_rows[path] += 1
                else:
                    self._rows_in(path)
            return on_append
        if key == "system.is_maximal":
            brick_count = self.package.brick_count

            def on_check(args, _):
                system = args[0]
                counters["is_maximal.candidates"] = counters.get(
                    "is_maximal.candidates", 0
                ) + brick_count(system.shape, system.cubic)
            return on_check
        return None

    def _rows_in(self, path: str) -> int:
        """Rows a lookup on ``path`` scans: counted once, then kept by appends."""
        rows = self._cache_rows.get(path)
        if rows is None:
            rows = 0
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    rows = sum(1 for line in handle if line.strip())
            self._cache_rows[path] = rows
        return rows

    # -- results ----------------------------------------------------------

    def span_stat(self, key: str) -> tuple[int, float, float]:
        """(calls, busy seconds, self seconds) of one span key."""
        kid = self._key_ids.get(key)
        if kid is None:
            return 0, 0.0, 0.0
        stat = self._key_stats[kid]
        return stat.calls, stat.ns / 1e9, self._key_self_ns[kid] / 1e9

    def aggregate(self, key: str) -> _Stat:
        return self.aggregates.get(key, _Stat())

    def write_spans(self, path: str) -> None:
        """Write every recorded span, one CSV row each, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,key,start_ns,end_ns,self_ns\n")
            keys = self._keys
            for sid in range(len(self.span_key)):
                handle.write(
                    f"{sid},{self.span_parent[sid]},{keys[self.span_key[sid]]},"
                    f"{self.span_start[sid]},{self.span_end[sid]},{self.span_self[sid]}\n"
                )
