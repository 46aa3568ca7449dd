"""The benchmark's four workloads: pinned job lists, runners and checks.

A job is one call into a public entry point of ``islands``.  Job lists are
fixed here and sit within the caps of the seed commit (200 bricks for the
front engine, explicit caps for the flat oracle), so raising a cap later
does not change the work measured.  The seed only permutes job order.

Every job output is checked outside the timed region against closed forms
from ``islands.formulas``, against values pinned in :mod:`expected` (which
are themselves checked against the paper's bounds), and by certifying each
witness: laminar, maximal, cubic where required, and ``len == value``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

import expected

FRONT_BRICK_CAP = 200


def load_islands():
    """Import the package from scratch, so repeated set-ups repeat the import."""
    for name in [n for n in sys.modules if n == "islands" or n.startswith("islands.")]:
        del sys.modules[name]
    islands = importlib.import_module("islands")
    importlib.import_module("islands.cli")
    importlib.import_module("islands.verify")
    return islands


def brick_total(dims: tuple[int, ...]) -> int:
    total = 1
    for m in dims:
        total *= m * (m + 1) // 2
    return total


def verify_shapes() -> list[tuple[int, ...]]:
    """Canonical shapes with d <= 4, sides <= 6 and at most 200 bricks."""
    shapes = [
        dims
        for d in range(1, 5)
        for dims in itertools.combinations_with_replacement(range(6, 0, -1), d)
        if brick_total(dims) <= FRONT_BRICK_CAP
    ]
    if len(shapes) != 73:
        raise AssertionError(f"verify job list changed: {len(shapes)} shapes, pinned 73")
    return shapes


@dataclass
class Job:
    label: str
    run: Callable[[dict, Any], Any]
    check: Callable[[Any], str | None]


class Workload:
    """Set-up, per-pass state and entry points shared by every workload."""

    name = ""
    # Entry point name -> trace key of the layer it enters.
    entry_keys: dict[str, str] = {}
    # Set-ups per untraced run; their median is setup_s.
    setup_repeats = 5

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.islands = None
        self.jobs: list[Job] = []
        self.rng = random.Random(seed)
        self._temp_dirs: list[str] = []

    def setup(self) -> None:
        self.close()
        self.islands = load_islands()
        self.jobs = self.build_jobs()
        self.rng = random.Random(self.seed)
        self.rng.shuffle(self.jobs)

    def build_jobs(self) -> list[Job]:
        raise NotImplementedError

    def entries(self) -> dict[str, Callable]:
        raise NotImplementedError

    def api(self, tracer=None) -> dict[str, Callable]:
        """Entry points for one pass, wrapped in spans when tracing."""
        entries = self.entries()
        if tracer is None:
            return entries
        return {name: tracer.entry(self.entry_keys[name], fn) for name, fn in entries.items()}

    def check_setup(self) -> tuple[int, list[str]]:
        """Check what the last set-up computed: (outputs checked, failures)."""
        return 0, []

    def begin_pass(self) -> Any:
        return None

    def temp_dir(self) -> str:
        path = tempfile.mkdtemp(prefix="tmp-", dir=self.scratch)
        self._temp_dirs.append(path)
        return path

    def close(self) -> None:
        for path in self._temp_dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._temp_dirs.clear()

    # -- shared checks ----------------------------------------------------

    def certify(self, system, dims, cubic: bool, value: int) -> str | None:
        """Witness certificate: shape, cubic flag, laminar, maximal, size."""
        isl = self.islands
        if system.shape.dims != tuple(dims):
            return f"witness shape {system.shape.dims} != {dims}"
        if system.cubic != cubic or (cubic and not all(b.is_cube for b in system.bricks)):
            return "witness cubic flag or cube members wrong"
        if not isl.is_laminar(system.bricks):
            return "witness is not laminar"
        if not isl.is_maximal(system):
            return "witness is not maximal"
        if len(system) != value:
            return f"witness has {len(system)} bricks, value is {value}"
        return None

    def brick_expected(self, dims: tuple[int, ...], mode: str) -> int:
        isl = self.islands
        shape = isl.Shape(dims)
        if mode == "min":
            return isl.min_brick_system_size(shape)
        if len(dims) == 1:
            return dims[0]
        if len(dims) == 2:
            return isl.max_rect_system_size(dims[1], dims[0])
        return expected.BRICK_MAX[dims]

    def check_brick_report(self, dims, mode: str, report) -> str | None:
        """A verify sweep's report: theorem 1, the 2-D maximum or a pin, plus bounds."""
        isl = self.islands
        if isinstance(report, BaseException):
            return f"raised {report!r}"
        if report.shape.dims != dims or report.mode != mode or report.cubic:
            return f"report key mismatch: {report.shape.dims} {report.mode} {report.cubic}"
        want = self.brick_expected(dims, mode)
        if report.value != want:
            return f"value {report.value} != expected {want}"
        if mode == "max":
            bounds = isl.max_brick_system_bounds(isl.Shape(dims))
            if not bounds.lower <= report.value <= bounds.upper:
                return f"value {report.value} outside bounds [{bounds.lower}, {bounds.upper}]"
        return self.certify(report.witness, dims, False, report.value)


class FrontLadder(Workload):
    """``islands search --no-cache`` over the cubic ladder, through ``cli.main``."""

    name = "front-ladder"
    entry_keys = {"main": "cli.main"}
    LADDER = ((1, 8), (2, 6), (3, 3), (4, 2))

    def entries(self):
        return {"main": self.islands.cli.main}

    def build_jobs(self):
        specs = [(d, m, mode) for d, top in self.LADDER for m in range(1, top + 1)
                 for mode in ("min", "max")]
        specs.append((4, 3, "max"))
        return [self._job(d, m, mode) for d, m, mode in specs]

    def _job(self, d: int, m: int, mode: str) -> Job:
        argv = ["search", "--shape", ",".join([str(m)] * d), "--mode", mode,
                "--cubic", "--no-cache"]

        def run(api, _state):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = api["main"](argv)
            return code, buffer.getvalue()

        return Job(f"cubic {d}x{m} {mode}", run, lambda out: self._check(d, m, mode, out))

    def _check(self, d: int, m: int, mode: str, out) -> str | None:
        isl = self.islands
        if isinstance(out, BaseException):
            return f"raised {out!r}"
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        value = report["value"]
        if report["shape"] != [m] * d or report["mode"] != mode or report["cubic"] is not True:
            return "report key mismatch"
        if mode == "min":
            if value != m:  # theorem 2
                return f"min value {value} != {m}"
        else:
            bound = int(isl.max_cube_system_bound(d, m))  # theorem 3, floored
            tight = (m + 1) & m == 0
            if value > bound or (tight and value != bound):
                return f"max value {value} breaks theorem 3 bound {bound}"
            if value != expected.CUBIC_MAX[(d, m)]:
                return f"max value {value} != pinned {expected.CUBIC_MAX[(d, m)]}"
        witness = isl.serialize.system_from_dict(report["witness"])
        return self.certify(witness, (m,) * d, True, value)


class VerifyCold(Workload):
    """One ``Searcher.report`` per job on a fresh cache file each pass."""

    name = "verify-cold"
    entry_keys = {"report": "verify.searcher"}

    def entries(self):
        return {"report": self.islands.verify.Searcher.report}

    def build_jobs(self):
        return [self._job(dims, mode) for dims in verify_shapes() for mode in ("min", "max")]

    def _job(self, dims, mode) -> Job:
        shape = self.islands.Shape(dims)

        def run(api, searcher):
            return api["report"](searcher, shape, mode)

        return Job(f"{dims} {mode}", run, lambda out: self.check_brick_report(dims, mode, out))

    def begin_pass(self):
        path = os.path.join(self.temp_dir(), "cache.jsonl")
        return self.islands.verify.Searcher(engine="front", cache_path=path)


class VerifyWarm(VerifyCold):
    """The ``verify-cold`` job list replayed from a cache the set-up filled."""

    name = "verify-warm"
    # Each set-up fills the cache by running the whole cold job list.
    setup_repeats = 3

    def __init__(self, seed: int, scratch: str):
        super().__init__(seed, scratch)
        self.cold_checks: dict[str, Callable] = {}

    def setup(self):
        super().setup()
        searcher = super().begin_pass()
        self.cache_path = searcher.cache_path
        api = self.entries()
        self.fill = []
        for job in self.jobs:
            try:
                self.fill.append(job.run(api, searcher))
            except Exception as exc:  # a raising job is a failed job, not a crash
                self.fill.append(exc)

    def check_setup(self):
        serialize = self.islands.serialize
        failures = []
        self.cold_bytes = {}
        for job, out in zip(self.jobs, self.fill):
            failure = self.cold_checks[job.label](out)
            if failure:
                failures.append(f"{job.label} (cache fill): {failure}")
            else:
                self.cold_bytes[job.label] = serialize.dumps_canonical(
                    serialize.report_to_dict(out)
                )
        return len(self.fill), failures

    def _job(self, dims, mode) -> Job:
        cold = super()._job(dims, mode)
        self.cold_checks[cold.label] = cold.check
        return Job(cold.label, cold.run, lambda out: self._check_replay(cold.label, out))

    def _check_replay(self, label: str, out) -> str | None:
        if isinstance(out, BaseException):
            return f"raised {out!r}"
        serialize = self.islands.serialize
        replay = serialize.dumps_canonical(serialize.report_to_dict(out))
        if replay != self.cold_bytes.get(label):
            return "warm replay differs from the cold report"
        return None

    def begin_pass(self):
        return self.islands.verify.Searcher(engine="front", cache_path=self.cache_path)


class OracleSweep(Workload):
    """The flat engine and the scalar predicates of ``system``."""

    name = "oracle-sweep"
    entry_keys = {
        "flat_extremal_size": "search.flat",
        "classification_rows": "verify.classification_rows",
        "corollary_rows": "verify.corollary_rows",
        "is_maximal": "system.is_maximal",
        "nested_min_system": "constructors.build",
        "nested_cubes": "constructors.build",
        "subdivision_system": "constructors.build",
    }
    ROW_SHAPES = ((4, 3), (3, 2, 2), (2, 2, 2, 2))
    # Largest brick universe among ROW_SHAPES: (2, 2, 2, 2) has 81 bricks.
    ROW_CAP = 81
    FLAT_CAP = 150

    def entries(self):
        isl = self.islands
        return {name: getattr(isl.verify if name.endswith("_rows") else isl, name)
                for name in self.entry_keys}

    def build_jobs(self):
        isl = self.islands
        jobs = [Job("flat 5x4 max", self._flat, self._check_flat)]
        for dims in self.ROW_SHAPES:
            jobs.append(self._rows_job("classification_rows", dims))
            jobs.append(self._rows_job("corollary_rows", dims))
        for dims in (dims for d in range(1, 5)
                     for dims in itertools.combinations_with_replacement(range(4, 0, -1), d)):
            jobs.append(self._maximal_job(f"nested_min {dims}", "nested_min_system",
                                          (isl.Shape(dims),)))
        for d in range(1, 4):
            for m in range(1, 6):
                jobs.append(self._maximal_job(f"nested_cubes {d} {m}", "nested_cubes", (d, m)))
            for k in range(1, 4):
                jobs.append(self._maximal_job(f"subdivision {d} {k}", "subdivision_system", (d, k)))
        return jobs

    def _flat(self, api, _state):
        isl = self.islands
        config = isl.SearchConfig(mode="max", brick_count_cap=self.FLAT_CAP)
        return api["flat_extremal_size"](isl.Shape((5, 4)), config)

    def _check_flat(self, report) -> str | None:
        if isinstance(report, BaseException):
            return f"raised {report!r}"
        want = self.brick_expected((5, 4), "max")
        if want != expected.FLAT_5x4_MAX or report.value != want:
            return f"flat (5,4) max {report.value} != {want}"
        return self.certify(report.witness, (5, 4), False, report.value)

    def _rows_job(self, suite: str, dims) -> Job:
        def run(api, _state):
            return api[suite]([self.islands.Shape(dims)], cap=self.ROW_CAP)

        def check(rows) -> str | None:
            if isinstance(rows, BaseException):
                return f"raised {rows!r}"
            bad = [row for row in rows if row["status"] != "PASS"]
            if bad or not rows:
                return f"rows not all PASS: {bad[:3]}"
            if suite == "classification_rows":
                want = expected.CLASSIFICATION_COUNTS[dims]
                if (rows[0]["expected"], rows[0]["actual"]) != (want, want):
                    return f"classification counts {rows[0]['expected']}/{rows[0]['actual']} != {want}"
            return None

        return Job(f"{suite} {dims}", run, check)

    def _maximal_job(self, label: str, constructor: str, args: tuple) -> Job:
        def run(api, _state):
            return api["is_maximal"](api[constructor](*args))

        return Job(label, run, lambda out: None if out is True else f"not maximal: {out!r}")


WORKLOADS = {cls.name: cls for cls in (FrontLadder, VerifyCold, VerifyWarm, OracleSweep)}
