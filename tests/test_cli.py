import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from islands.cli import build_parser, main
from islands.constructors import _minimal_family_corners
from islands.geometry import brick_corners, brick_count
from islands.search import ENGINE_VERSION
from islands.serialize import (cache_append, cache_key, cache_lookup, dumps_canonical,
                               report_from_dict, report_to_dict, system_from_dict,
                               system_to_dict)
from islands.verify import (FAIL, SKIPPED, Searcher, canonical_shapes, classification_rows,
                            corollary_rows)
from islands import (CapExceeded, IslandSystem, SearchConfig, Shape, contains, enumerate_bricks,
                     enumerate_maximal_systems, flat_extremal_size, gap_profiles, is_maximal,
                     max_elements, maximal_segment_systems, min_brick_system_size,
                     minimal_maximal_systems, nested_min_system, restrict)

from conftest import SRC, B, child_env


def family_masks(shape, systems):
    """The systems in ``shape`` as masks over its universe, as the flat walk
    hands them to the corollary sweep."""
    corners = list(brick_corners(shape))
    return iter([sum(1 << corners.index((b.lo, b.hi)) for b in system)
                 for system in systems if system.shape == shape])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_into_a_closed_pipe(tmp_path, *argv):
    """Run ``islands argv`` in a child whose stdout reader has gone, as under ``| true``."""
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run([sys.executable, "-m", "islands.cli", *argv], stdout=write,
                               stderr=subprocess.PIPE, cwd=tmp_path, env=child_env(), timeout=120)
    finally:
        os.close(write)
    return child.returncode, child.stderr


class TestConstruct:
    def test_nested_min(self, capsys):
        code, out, _ = run(capsys, "construct", "nested-min", "--shape", "2,2")
        assert code == 0
        data = json.loads(out)
        assert data["shape"] == [2, 2]
        assert len(data["bricks"]) == 3

    def test_subdivision(self, capsys):
        code, out, _ = run(capsys, "construct", "subdivision", "--d", "3", "--k", "2")
        assert code == 0
        assert len(json.loads(out)["bricks"]) == 9

    def test_nested_cubes_trivial(self, capsys):
        code, out, _ = run(capsys, "construct", "nested-cubes", "--d", "2", "--m", "1")
        assert code == 0
        data = json.loads(out)
        assert data["cubic"] is True
        assert data["bricks"] == [[[0, 0], [1, 1]]]

    def test_minimal_family_streams_one_per_line(self, capsys):
        code, out, _ = run(capsys, "construct", "minimal-family", "--shape", "2,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert len(json.loads(line)["bricks"]) == 2

    # line count and sha256 of stdout: the order and bytes of the family are part of the format
    FAMILY_DIGESTS = {
        "4,3": (368, "b9a6c40c83591a3eac8e12e1a5a6c3b0949e836516f2648aa02d032c9c66dc30"),
        "3,4": (368, "adebad7426e2c9f8c7ce96b774b388e06f843bec4806f158193bca8d0a38fd4d"),
        "2,2,2": (48, "c852e4ac0ca1d6cbf59bf2bb736ebe6bc63aa26fdccd5926b5cfba80d9981bd3"),
        "3,1,2": (26, "5a45f9fe798c5442930dabad03e02862beba181fcc8e842018a4f02f610b34f8"),
        "5,2": (244, "7d1f1230926691d68446071bd4119de3410563f2189906dbbb919b6ebf57e697"),
    }

    @pytest.mark.parametrize("shape", sorted(FAMILY_DIGESTS))
    def test_minimal_family_order_and_bytes_are_pinned(self, capsys, shape):
        code, out, _ = run(capsys, "construct", "minimal-family", "--shape", shape)
        assert code == 0
        lines, digest = self.FAMILY_DIGESTS[shape]
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_missing_parameters(self, capsys):
        code, _, err = run(capsys, "construct", "nested-min")
        assert code == 2
        assert "shape" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "system.json"
        code, out, _ = run(capsys, "construct", "nested-min", "--shape", "3,2",
                           "--output", str(target))
        assert code == 0
        assert out == ""
        assert len(json.loads(target.read_text())["bricks"]) == 4

    def test_missing_shape_fails_before_the_output_is_opened(self, capsys, tmp_path):
        target = tmp_path / "family.jsonl"
        code, _, err = run(capsys, "construct", "minimal-family", "--output", str(target))
        assert (code, target.exists()) == (2, False)
        assert "shape" in err

    def test_construct_holds_no_copy_of_its_output(self, tmp_path):
        # each line is written as it is made: a list of the 5,392 lines and their
        # join would trace about 2.7 MB
        for m in range(1, 6):
            maximal_segment_systems(m)
        build_parser()
        target = tmp_path / "family.jsonl"
        tracemalloc.start()
        try:
            code = main(["construct", "minimal-family", "--shape", "5,4", "--output", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        data = target.read_bytes()
        assert (code, data.count(b"\n")) == (0, 5392)
        assert hashlib.sha256(data).hexdigest() == (
            "4deec24e7fe868af4058e8e6f3a69d5d1f84d7d14bdb4c840d086717bfe3dab2")
        assert peak < 500_000

    def test_a_closed_stdout_ends_construct_quietly(self, tmp_path):
        # as with `islands construct ... | head -c 100`: the reader leaves after 100 bytes
        child = subprocess.Popen(
            [sys.executable, "-m", "islands.cli", "construct", "minimal-family", "--shape", "5,5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=child_env())
        head = child.stdout.read(100)
        child.stdout.close()
        _, err = child.communicate(timeout=120)
        assert (len(head), child.returncode, err) == (100, 0, b"")

    def test_a_closed_stdout_keeps_the_exit_code(self, monkeypatch):
        # a verify table with a FAIL row still exits 1 when its reader has gone
        read, write = os.pipe()
        os.close(read)
        monkeypatch.setattr("islands.verify.classification_rows",
                            lambda shapes: [{"status": FAIL}])
        with open(write, "w", encoding="utf-8") as closed:
            monkeypatch.setattr("sys.stdout", closed)
            assert main(["verify", "classification"]) == 1
            assert os.path.samestat(os.fstat(write), os.stat(os.devnull))
            monkeypatch.undo()


class TestCheck:
    def write(self, tmp_path, system):
        path = tmp_path / "system.json"
        path.write_text(dumps_canonical(system_to_dict(system)))
        return str(path)

    def test_maximal_construction(self, capsys, tmp_path):
        path = self.write(tmp_path, nested_min_system(Shape((2, 2))))
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        report = json.loads(out)
        assert report["laminar"] is True
        assert report["maximal"] is True
        assert report["size"] == 3
        assert report["max_elements"] == 1

    def test_corner_contact_is_rejected(self, capsys, tmp_path):
        shape = Shape((2, 2))
        system = IslandSystem(shape, [B((0, 0), (1, 1)), B((1, 1), (2, 2))])
        code, out, _ = run(capsys, "check", self.write(tmp_path, system))
        assert code == 1
        assert json.loads(out)["laminar"] is False

    def test_full_brick_alone_is_not_maximal(self, capsys, tmp_path):
        shape = Shape((2, 2))
        path = self.write(tmp_path, IslandSystem(shape, [shape.full_brick()]))
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        report = json.loads(out)
        assert report["laminar"] is True
        assert report["maximal"] is False

    def test_a_closed_stdout_keeps_the_check_exit_code(self, tmp_path):
        system = IslandSystem(Shape((2, 2)), [B((0, 0), (1, 1)), B((1, 1), (2, 2))])
        path = self.write(tmp_path, system)
        assert run_into_a_closed_pipe(tmp_path, "check", path) == (1, b"")

    GAPPED = '{"shape":[3,3],"cubic":false,"bricks":[[[0,0],[3,3]],[[0,0],[1,1]],[[2,2],[3,3]]]}'
    GAPPED_SUMMARY = ('{"laminar":true,"maximal":false,"size":3,"max_elements":2,'
                      '"gap_summary":{"edges":4,"gap_count":4,"max_gap_length":2}}\n')

    def test_gap_summary_of_a_file_is_pinned(self, capsys, tmp_path):
        path = tmp_path / "gapped.json"
        path.write_text(self.GAPPED)
        assert run(capsys, "check", str(path)) == (0, self.GAPPED_SUMMARY, "")

    def test_gap_summary_from_stdin_is_pinned(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.GAPPED))
        assert run(capsys, "check", "-") == (0, self.GAPPED_SUMMARY, "")

    def test_parse_failure(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "check", str(tmp_path / "absent.json"))
        assert code == 2

    def test_nesting_past_the_recursion_limit_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(UNREADABLE_CACHE_LINES["nested-too-deep"])
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed system document")

    def test_universe_past_the_check_cap_exits_3(self, capsys, tmp_path):
        # 40x40x40 has 551,368,000 bricks: building its masks would run for hours.
        document = '{"shape":[40,40,40],"cubic":false,"bricks":[[[0,0,0],[40,40,40]]]}'
        assert len(document) == 66
        path = tmp_path / "big.json"
        path.write_text(document)
        started = time.perf_counter()
        code, out, err = run(capsys, "check", str(path))
        assert time.perf_counter() - started < 5
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "cap exceeded"

    def test_box_past_the_edge_cap_exits_3(self, capsys, tmp_path):
        # one brick, but 16 * 2^15 = 524,288 box edges to profile
        path = tmp_path / "unit.json"
        path.write_text(json.dumps({"shape": [1] * 16, "cubic": False,
                                    "bricks": [[[0] * 16, [1] * 16]]}))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "cap exceeded"

    @pytest.mark.parametrize("laminar", [True, False])
    def test_large_document_past_the_check_cap_exits_3_before_its_laminarity_scan(
            self, capsys, tmp_path, laminar):
        # the full brick and the 8,000 unit cells at even coordinates: the scalar
        # pairwise laminarity scan alone would run for minutes
        cells = [[[x, y, z], [x + 1, y + 1, z + 1]]
                 for x in range(0, 40, 2) for y in range(0, 40, 2) for z in range(0, 40, 2)]
        if not laminar:
            cells.append([[0, 0, 0], [2, 2, 2]])  # shares a corner with the cell at 2,2,2
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"shape": [40, 40, 40], "cubic": False,
                                    "bricks": [[[0, 0, 0], [40, 40, 40]]] + cells}))
        started = time.perf_counter()
        code, out, err = run(capsys, "check", str(path))
        assert time.perf_counter() - started < 5
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "cap exceeded"

    @pytest.mark.parametrize("document, detail", [
        # the string "false" is truthy: read as a cubic system this one is maximal
        ('{"shape":[2,2],"cubic":"false","bricks":[[[0,0],[2,2]],[[0,0],[1,1]]]}',
         "expected a JSON bool, got 'false'"),
        ('{"shape":[2.7,2],"cubic":false,"bricks":[[[0,0],[2,2]]]}',
         "side lengths must be positive integers"),
        ('{"shape":[2,2],"cubic":false,"bricks":[[[0,0],[2.9,2]]]}',
         "need integers 0 <= lo_i < hi_i"),
        ('{"shape":[2,2],"cubic":false,"bricks":[[[0,0],[true,2]]]}',
         "need integers 0 <= lo_i < hi_i"),
        # unpacked as they stand, an object gives its keys and a string its characters
        ('{"shape":[2,2],"cubic":false,"bricks":[[[0,0],[2,2]],{"lo":[0,0],"hi":[1,1]}]}',
         "expected a brick as an array of two arrays, got {'lo': [0, 0], 'hi': [1, 1]}"),
        ('{"shape":[2,2],"cubic":false,"bricks":[[[0,0],[2,2]],"ab"]}',
         "expected a brick as an array of two arrays, got 'ab'"),
    ])
    def test_wrongly_typed_fields_are_parse_errors(self, capsys, tmp_path, document, detail):
        path = tmp_path / "typed.json"
        path.write_text(document)
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert "malformed system document" in err
        assert detail in err


class TestRoundTrip:
    def test_system_json_is_byte_stable(self, capsys):
        code, out, _ = run(capsys, "construct", "nested-min", "--shape", "3,3")
        assert code == 0
        line = out.strip()
        reparsed = system_to_dict(system_from_dict(json.loads(line)))
        assert dumps_canonical(reparsed) == line

    def test_report_json_is_byte_stable(self, capsys):
        code, out, _ = run(capsys, "search", "--shape", "2,2", "--mode", "min", "--no-cache")
        assert code == 0
        line = out.strip()
        assert dumps_canonical(report_to_dict(report_from_dict(json.loads(line)))) == line

    @pytest.mark.parametrize("mode", ["avg", "", None, ["min"]])
    def test_report_mode_must_be_min_or_max(self, capsys, mode):
        code, out, _ = run(capsys, "search", "--shape", "2,2", "--no-cache")
        assert code == 0
        with pytest.raises(ValueError, match="malformed report document"):
            report_from_dict(dict(json.loads(out), mode=mode))


class TestSearch:
    def test_min_3x3(self, capsys):
        code, out, _ = run(capsys, "search", "--shape", "3,3", "--mode", "min", "--no-cache")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == 5
        assert report["mode"] == "min"

    def test_cubic_max_3x3(self, capsys):
        code, out, _ = run(capsys, "search", "--shape", "3,3", "--mode", "max",
                           "--cubic", "--no-cache")
        assert code == 0
        assert json.loads(out)["value"] == 5

    def test_flat_engine(self, capsys):
        code, out, _ = run(capsys, "search", "--shape", "2,2,2", "--mode", "max",
                           "--engine", "flat", "--no-cache")
        assert code == 0
        assert json.loads(out)["value"] == 4

    def test_a_closed_stdout_ends_search_quietly(self, tmp_path):
        argv = ["search", "--shape", "2,2", "--no-cache"]
        assert run_into_a_closed_pipe(tmp_path, *argv) == (0, b"")

    def test_cubic_requires_a_cube(self, capsys):
        code, _, err = run(capsys, "search", "--shape", "2,3", "--cubic", "--no-cache")
        assert code == 2
        assert "cubic" in err

    def test_cap_exceeded_exit_code(self, capsys):
        code, _, err = run(capsys, "search", "--shape", "9,9", "--no-cache")
        assert code == 3
        assert "cap" in err

    def test_cache_reuse_is_byte_identical(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        code, first, _ = run(capsys, "search", "--shape", "3,2", "--mode", "max",
                             "--cache", str(cache))
        assert code == 0
        assert len(cache.read_text().strip().splitlines()) == 1
        code, second, _ = run(capsys, "search", "--shape", "3,2", "--mode", "max",
                              "--cache", str(cache))
        assert code == 0
        assert second == first
        assert len(cache.read_text().strip().splitlines()) == 1  # replay, no new row

    def test_cache_distinguishes_engines(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        run(capsys, "search", "--shape", "2,2", "--cache", str(cache))
        run(capsys, "search", "--shape", "2,2", "--engine", "flat", "--cache", str(cache))
        rows = [json.loads(line) for line in cache.read_text().strip().splitlines()]
        assert len(rows) == 2
        assert {row["engine"] for row in rows} == {"front", "flat"}

    def test_cache_path_from_environment(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "env-cache.jsonl"
        monkeypatch.setenv("ISLANDS_CACHE", str(cache))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "search", "--shape", "2,2")
        assert code == 0
        assert cache.exists()

    @pytest.mark.parametrize("route", ["option", "environment"])
    def test_an_empty_cache_path_is_a_usage_error(self, capsys, tmp_path, monkeypatch, route):
        monkeypatch.chdir(tmp_path)
        if route == "option":
            argv = ("search", "--shape", "2,2", "--cache", "")
        else:
            monkeypatch.setenv("ISLANDS_CACHE", "")
            argv = ("search", "--shape", "2,2")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "cache path is empty" in err
        assert run(capsys, *argv, "--no-cache")[0] == 0
        assert list(tmp_path.iterdir()) == []


# A line that parses but is not an object, and a key-matching row with no report.
BAD_CACHE_LINES = {
    "non-object": "[1,2]",
    "no-report": dumps_canonical({"shape": [2, 2], "cubic": False, "mode": "min",
                                  "engine": "front", "engine_version": ENGINE_VERSION}),
}

# lines json.loads cannot decode at all: undecodable bytes, and nesting past
# the decoder's recursion limit
UNREADABLE_CACHE_LINES = {
    "not-utf-8": b'\xff\xfe{"torn\n',
    "nested-too-deep": b"[" * 100000 + b"\n",
}


class TestCacheRows:
    @pytest.mark.parametrize("kind", sorted(UNREADABLE_CACHE_LINES))
    def test_search_replays_past_an_unreadable_line(self, capsys, tmp_path, kind):
        cache = tmp_path / "cache.jsonl"
        code, first, _ = run(capsys, "search", "--shape", "2,2", "--cache", str(cache))
        assert code == 0
        with cache.open("ab") as handle:
            handle.write(UNREADABLE_CACHE_LINES[kind])
        code, second, err = run(capsys, "search", "--shape", "2,2", "--cache", str(cache))
        assert (code, second, err) == (0, first, "")
        assert cache.read_bytes().count(b"\n") == 2  # replayed, nothing appended

    def test_a_cache_file_gone_before_it_is_opened_is_a_miss(self, monkeypatch, tmp_path):
        # as if the file were removed between an existence check and the open
        monkeypatch.setattr("islands.serialize.os.path.exists", lambda path: True)
        key = cache_key(Shape((2, 2)), False, "min", "front")
        assert cache_lookup(str(tmp_path / "gone.jsonl"), key, 1000) is None

    def test_row_after_a_torn_line_is_replayed(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(b'{"shape":[2,2],"cub')  # a killed writer's last line
        code, first, _ = run(capsys, "search", "--shape", "2,2", "--cache", str(cache))
        assert code == 0
        appended = cache.read_bytes()
        assert appended.count(b"\n") == 2
        code, second, err = run(capsys, "search", "--shape", "2,2", "--cache", str(cache))
        assert (code, second, err) == (0, first, "")
        assert cache.read_bytes() == appended  # replayed, nothing appended

    @pytest.mark.parametrize("kind", sorted(UNREADABLE_CACHE_LINES))
    def test_verify_reads_past_an_unreadable_line(self, capsys, tmp_path, kind):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(UNREADABLE_CACHE_LINES[kind])
        code, out, _ = run(capsys, "verify", "theorem1", "--max-dim", "1",
                           "--max-side", "2", "--cache", str(cache))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(row["shape"], row["status"]) for row in rows] == [("2", "PASS"), ("1", "PASS")]

    @pytest.mark.parametrize("kind", sorted(BAD_CACHE_LINES))
    def test_search_recomputes_past_a_bad_row(self, capsys, tmp_path, kind):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(BAD_CACHE_LINES[kind] + "\n")
        code, first, _ = run(capsys, "search", "--shape", "2,2", "--cache", str(cache))
        assert code == 0
        assert json.loads(first)["value"] == 3
        assert len(cache.read_text().strip().splitlines()) == 2
        code, second, _ = run(capsys, "search", "--shape", "2,2", "--cache", str(cache))
        assert code == 0
        assert second == first
        assert len(cache.read_text().strip().splitlines()) == 2

    @pytest.mark.parametrize("kind", sorted(BAD_CACHE_LINES))
    def test_verify_recomputes_past_a_bad_row(self, capsys, tmp_path, kind):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(BAD_CACHE_LINES[kind] + "\n")
        code, out, _ = run(capsys, "verify", "theorem1", "--max-dim", "2",
                           "--max-side", "2", "--cache", str(cache))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(row["status"] == "PASS" for row in rows)
        assert {"shape": "2,2", "actual": "3"}.items() <= rows[2].items()

    @pytest.mark.parametrize("field,value", [
        ("value", "3"), ("nodes", 12.0), ("memo_hits", True), ("cubic", 0),
        ("nodes", -5), ("memo_hits", -1), ("elapsed_ms", -1),
    ])
    def test_row_with_a_wrongly_typed_field_is_recomputed(self, capsys, tmp_path, field, value):
        code, fresh, _ = run(capsys, "search", "--shape", "2,2", "--no-cache")
        assert code == 0
        cache = tmp_path / "cache.jsonl"
        cache_append(str(cache), cache_key(Shape((2, 2)), False, "min", "front"),
                     dict(json.loads(fresh), **{field: value}))
        code, out, _ = run(capsys, "search", "--shape", "2,2", "--cache", str(cache))
        assert code == 0
        assert dict(json.loads(out), elapsed_ms=0) == dict(json.loads(fresh), elapsed_ms=0)
        assert len(cache.read_text().strip().splitlines()) == 2

    def test_row_of_an_older_engine_version_is_recomputed(self, capsys, tmp_path):
        # Engine "1" walked without bounds; its node counts would feed today's node cap.
        assert ENGINE_VERSION != "1"
        code, fresh, _ = run(capsys, "search", "--shape", "2,2", "--no-cache")
        assert code == 0
        old = dict(json.loads(fresh), nodes=10 ** 9)
        cache = tmp_path / "cache.jsonl"
        cache.write_text(dumps_canonical({
            "shape": [2, 2], "cubic": False, "mode": "min", "engine": "front",
            "engine_version": "1", "report": old,
        }) + "\n")
        code, out, _ = run(capsys, "search", "--shape", "2,2", "--cache", str(cache))
        assert code == 0
        assert json.loads(out)["nodes"] == json.loads(fresh)["nodes"]
        rows = [json.loads(line) for line in cache.read_text().strip().splitlines()]
        assert [row["engine_version"] for row in rows] == ["1", ENGINE_VERSION]
        code, again, _ = run(capsys, "search", "--shape", "2,2", "--cache", str(cache))
        assert (code, again) == (0, out)
        assert len(cache.read_text().strip().splitlines()) == 2

    def test_a_row_is_its_report_then_its_engine_fields_and_digest(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        code, out, _ = run(capsys, "search", "--shape", "2,2", "--cache", str(cache))
        assert code == 0
        report, row = json.loads(out), json.loads(cache.read_text())
        assert list(row) == [*report, "engine", "engine_version", "digest"]
        assert {name: row[name] for name in report} == report
        assert (row["engine"], row["engine_version"]) == ("front", ENGINE_VERSION)

    @pytest.mark.parametrize("version,read,old,new", [
        # replayed, the front row would print the front witness, 83 nodes and 14 memo hits
        (None, ("--engine", "flat"), '"engine":"front"', '"engine":"flat"'),
        # a row of other source, edited to pass for this source's
        ("0" * 16, (), '"engine_version":"0000000000000000"',
         f'"engine_version":"{ENGINE_VERSION}"'),
        # the max witness is laminar, maximal and of its value: only the digest sees the mode
        (None, ("--mode", "min"), '"mode":"max"', '"mode":"min"'),
        (None, ("--cubic",), '"cubic":false', '"cubic":true'),
        (None, ("--shape", "3,2"), '"shape":[3,3]', '"shape":[3,2]'),
        (None, (), '"nodes":83', '"nodes":82'),
    ], ids=["engine", "engine_version", "mode", "cubic", "shape", "nodes"])
    def test_a_row_with_an_edited_field_is_a_miss(self, capsys, tmp_path, monkeypatch,
                                                  version, read, old, new):
        # each row is written by a front 3,3 max run, then read by the run `read` makes of it
        cache = tmp_path / "cache.jsonl"
        with monkeypatch.context() as patch:
            if version:
                patch.setattr("islands.serialize.ENGINE_VERSION", version)
            assert run(capsys, "search", "--shape", "3,3", "--mode", "max",
                       "--cache", str(cache))[0] == 0
        row = cache.read_text()
        assert old in row
        row = row.replace(old, new, 1)
        argv = ("search", "--shape", "3,3", "--mode", "max", *read)
        code, fresh, _ = run(capsys, *argv, "--no-cache")
        assert code == 0
        cache.write_text(row)
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert (code, err) == (0, "")
        assert dict(json.loads(out), elapsed_ms=0) == dict(json.loads(fresh), elapsed_ms=0)
        assert len(cache.read_text().splitlines()) == 2  # recomputed and appended
        capped = (*argv, "--node-cap", str(json.loads(fresh)["nodes"] - 1))
        cache.write_text(row)
        assert run(capsys, *capped, "--cache", str(cache)) == run(capsys, *capped, "--no-cache")
        assert cache.read_text() == row

    def test_a_row_nested_too_deep_to_serialize_again_is_a_miss(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        argv = ("search", "--shape", "2,2")
        code, fresh, _ = run(capsys, *argv, "--cache", str(cache))
        assert code == 0
        row = cache.read_text()
        lo, hi = 1, 10 ** 6  # the deepest array json.loads takes here, by bisection
        while lo < hi:
            depth = (lo + hi + 1) // 2
            try:
                json.loads("[" * depth + "]" * depth)
                lo = depth
            except RecursionError:
                hi = depth - 1
        # an extra field, around the depth where the lookup's parse or serialization stops
        for depth in range(max(lo - 40, 1), lo + 5):
            nested = '"extra":' + "[" * depth + "]" * depth + ',"engine":'
            cache.write_text(row.replace('"engine":', nested, 1))
            code, out, err = run(capsys, *argv, "--cache", str(cache))
            assert (code, err) == (0, "")
            assert dict(json.loads(out), elapsed_ms=0) == dict(json.loads(fresh), elapsed_ms=0)
            assert len(cache.read_text().splitlines()) == 2

    def test_search_row_is_replayed_by_verify(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        code, _, _ = run(capsys, "search", "--shape", "2,2", "--mode", "min",
                         "--cache", str(cache))
        assert code == 0
        code, _, _ = run(capsys, "verify", "theorem1", "--max-dim", "2",
                         "--max-side", "2", "--cache", str(cache))
        assert code == 0
        rows = [json.loads(line) for line in cache.read_text().strip().splitlines()]
        assert len(rows) == 5  # one per canonical shape, none written twice
        assert sum(1 for row in rows if row["shape"] == [2, 2]) == 1

    def test_report_for_another_key_is_a_miss(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        sweep = ("verify", "theorem1", "--max-dim", "2", "--max-side", "2", "--cache", str(cache))
        assert run(capsys, *sweep)[0] == 0
        code, report, _ = run(capsys, "search", "--shape", "3,3", "--no-cache")
        assert code == 0
        # appended with the 2,2 key, the 3,3 report is still a row of its own shape
        cache_append(str(cache), cache_key(Shape((2, 2)), False, "min", "front"),
                     json.loads(report))
        code, out, _ = run(capsys, *sweep)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(row["status"] == "PASS" for row in rows)
        assert {"shape": "2,2", "actual": "3"}.items() <= rows[2].items()
        assert len(cache.read_text().strip().splitlines()) == 6
        assert run(capsys, "search", "--shape", "3,3", "--cache", str(cache)) == (0, report, "")
        assert len(cache.read_text().strip().splitlines()) == 6


    def test_row_replaying_a_witness_of_another_shape_is_recomputed(self, capsys, tmp_path):
        cache = tmp_path / "c.jsonl"
        code, out, _ = run(capsys, "search", "--shape", "3,3", "--cache", str(cache))
        assert code == 0
        report = json.loads(out)
        report["shape"] = [2, 2]
        report["value"] = 3  # the witness is still the 5-brick 3x3 one
        assert report_to_dict(report_from_dict(report)) == report  # the digest holds
        forged = tmp_path / "c2.jsonl"
        cache_append(str(forged), cache_key(Shape((2, 2)), False, "min", "front"), report)
        code, fresh, _ = run(capsys, "search", "--shape", "2,2", "--no-cache")
        code, out, _ = run(capsys, "search", "--shape", "2,2", "--cache", str(forged))
        assert code == 0
        assert dict(json.loads(out), elapsed_ms=0) == dict(json.loads(fresh), elapsed_ms=0)
        assert len(forged.read_text().strip().splitlines()) == 2

    @pytest.mark.parametrize("shape,flags,edit", [
        ("2,2", (), lambda report: report["witness"].update(shape=[3, 3])),
        ("2,2", ("--cubic",), lambda report: report["witness"].update(cubic=False)),
        ("2,2", (), lambda report: report.update(value=4)),
        # two crossing strips under the full box: 3 bricks, not laminar
        ("2,2", (), lambda report: report["witness"].update(
            bricks=[[[0, 0], [1, 2]], [[0, 0], [2, 1]], [[0, 0], [2, 2]]])),
        # a corner cell and a crossing strip: no brick can be added, yet not laminar
        ("2,2", (), lambda report: report["witness"].update(
            bricks=[[[0, 0], [1, 1]], [[0, 0], [2, 2]], [[0, 1], [2, 2]]])),
        # the full box and its four corner cells: laminar, but [0,3]x[0,1] still fits
        ("3,3", (), lambda report: report["witness"].update(
            bricks=[[[0, 0], [1, 1]], [[0, 0], [3, 3]], [[0, 2], [1, 3]], [[2, 0], [3, 1]],
                    [[2, 2], [3, 3]]])),
    ], ids=["witness-shape", "witness-cubic", "value-is-not-the-witness-size",
            "witness-not-laminar", "witness-not-laminar-but-saturated", "witness-not-maximal"])
    def test_row_whose_witness_disagrees_is_recomputed(self, capsys, tmp_path, shape, flags,
                                                       edit):
        code, fresh, _ = run(capsys, "search", "--shape", shape, *flags, "--no-cache")
        assert code == 0
        report = json.loads(fresh)
        edit(report)
        # bricks in canonical order, so the row's digest holds and only the witness checks reject it
        assert report_to_dict(report_from_dict(report)) == report
        cache = tmp_path / "cache.jsonl"
        cache_append(str(cache), cache_key(Shape(tuple(report["shape"])), bool(flags), "min",
                                           "front"), report)
        code, out, _ = run(capsys, "search", "--shape", shape, *flags, "--cache", str(cache))
        assert code == 0
        assert dict(json.loads(out), elapsed_ms=0) == dict(json.loads(fresh), elapsed_ms=0)
        assert len(cache.read_text().strip().splitlines()) == 2


def test_an_edit_to_the_package_re_keys_every_cached_row(tmp_path):
    """ENGINE_VERSION is the package's source digest: a copy of the package keeps
    it, one byte appended to a module changes it, and the edited copy recomputes
    a row the original wrote, once, into the same report."""
    original, edited = tmp_path / "original", tmp_path / "edited"
    for root in (original, edited):
        shutil.copytree(SRC / "islands", root / "islands",
                        ignore=shutil.ignore_patterns("__pycache__"))
    with (edited / "islands" / "cli.py").open("ab") as handle:
        handle.write(b"\n")

    def child(root, *argv):
        env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run([sys.executable, *argv], env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=120, check=True).stdout

    probe = ("-c", "import islands; print(islands.ENGINE_VERSION, islands.__file__)")
    versions = {}
    for root in (SRC, original, edited):
        versions[root], path = child(root, *probe).split()
        assert Path(path) == root / "islands" / "__init__.py"
    assert versions[original] == versions[SRC] != versions[edited]
    cache = tmp_path / "cache.jsonl"
    search = ("-m", "islands.cli", "search", "--shape", "3,3", "--cache", str(cache))
    first = child(original, *search)
    again = [child(edited, *search) for _ in range(2)]  # recomputed, then replayed
    rows = [json.loads(line) for line in cache.read_text().splitlines()]
    assert [row["engine_version"] for row in rows] == [versions[original], versions[edited]]
    assert again[0] == again[1]
    assert dict(json.loads(again[0]), elapsed_ms=0) == dict(json.loads(first), elapsed_ms=0)


# Appends 400 rows of about 1.5 KB, each padded with the writer's tag, once
# the parent closes its stdin.
CACHE_WRITER = """
import sys
from islands.serialize import cache_append
path, tag = sys.argv[1:]
print("ready", flush=True)
sys.stdin.read()
for row in range(400):
    cache_append(path, {"engine": tag, "engine_version": "1"}, {"row": row, "pad": tag * 1500})
"""


def test_concurrent_appends_keep_every_row_whole(tmp_path):
    cache = tmp_path / "cache.jsonl"
    writers = [subprocess.Popen([sys.executable, "-c", CACHE_WRITER, str(cache), tag],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                env=child_env())
               for tag in "ab"]
    try:
        assert [writer.stdout.readline() for writer in writers] == ["ready\n"] * 2
        for writer in writers:  # the barrier: both start appending together
            writer.stdin.close()
        assert [writer.wait(timeout=60) for writer in writers] == [0, 0]
    finally:
        for writer in writers:
            writer.kill()
            writer.wait()
            writer.stdout.close()
    rows = [json.loads(line) for line in cache.read_text().splitlines()]
    assert len(rows) == 800
    for tag in "ab":
        mine = [row for row in rows if row["engine"] == tag]
        assert [row["row"] for row in mine] == list(range(400))
        assert all(row["pad"] == tag * 1500 for row in mine)


class TestCapsBeforeCache:
    """A cached row may change how fast a search returns, never its outcome."""

    def test_cached_row_over_the_brick_cap_is_still_skipped(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        code, _, _ = run(capsys, "search", "--shape", "5,5", "--brick-cap", "300",
                         "--cache", str(cache))
        assert code == 0
        sweep = ("verify", "theorem1", "--max-dim", "2", "--max-side", "5")
        cached = run(capsys, *sweep, "--cache", str(cache))
        fresh = run(capsys, *sweep, "--no-cache")
        assert cached == fresh
        assert '"5,5",False,min,9,,SKIPPED' in cached[1].splitlines()
        assert run(capsys, *sweep, "--strict", "--cache", str(cache))[0] == 1

    @pytest.mark.parametrize("option,value,expected", [
        ("--brick-cap", "0", 2),
        ("--brick-cap", "1", 3),
        ("--node-cap", "0", 2),
        ("--node-cap", "1", 3),
    ])
    def test_caps_apply_to_a_warm_cache(self, capsys, tmp_path, option, value, expected):
        cache = tmp_path / "cache.jsonl"
        assert run(capsys, "search", "--shape", "2,2", "--cache", str(cache))[0] == 0
        code, out, err = run(capsys, "search", "--shape", "2,2", option, value,
                             "--cache", str(cache))
        assert code == expected
        assert out == ""
        assert ("must be positive" if expected == 2 else "cap exceeded") in err
        assert run(capsys, "search", "--shape", "2,2", option, value, "--no-cache")[0] == expected
        assert len(cache.read_text().strip().splitlines()) == 1

    def test_node_cap_at_the_cached_count_replays(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        code, first, _ = run(capsys, "search", "--shape", "2,2", "--cache", str(cache))
        assert code == 0
        nodes = str(json.loads(first)["nodes"])
        code, second, _ = run(capsys, "search", "--shape", "2,2", "--node-cap", nodes,
                              "--cache", str(cache))
        assert (code, second) == (0, first)

    @pytest.mark.parametrize("mode", ["min", "max"])
    @pytest.mark.parametrize("dims", ["4,3", "3,2,2", "2,2,2,2"])
    def test_capped_run_on_a_warm_cache_prints_what_a_cold_one_prints(
            self, capsys, tmp_path, dims, mode):
        cache = tmp_path / "cache.jsonl"
        code, out, _ = run(capsys, "search", "--shape", dims, "--mode", mode,
                           "--cache", str(cache))
        assert code == 0
        rows = cache.read_text()
        nodes = json.loads(out)["nodes"]
        for cap in (1, 10, nodes - 1):
            argv = ("search", "--shape", dims, "--mode", mode, "--node-cap", str(cap))
            warm = run(capsys, *argv, "--cache", str(cache))
            assert warm == run(capsys, *argv, "--no-cache")
            assert warm[0] == 3 and f'"nodes":{cap + 1},' in warm[2]
        assert cache.read_text() == rows  # a capped run appends nothing

    def test_row_with_inflated_nodes_is_replaced_by_an_honest_one(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        argv = ("search", "--shape", "3,3", "--mode", "max")
        code, out, _ = run(capsys, *argv, "--cache", str(cache))
        assert code == 0
        report = json.loads(out)
        nodes = report["nodes"]
        # rewritten with its digest, so it is the node cap, not the digest, that rejects it
        cache.write_text("")
        cache_append(str(cache), cache_key(Shape((3, 3)), False, "max", "front"),
                     dict(report, nodes=nodes + 1000))
        code, again, err = run(capsys, *argv, "--node-cap", str(nodes), "--cache", str(cache))
        assert (code, err, json.loads(again)["nodes"]) == (0, "", nodes)
        lines = cache.read_text().splitlines()  # the forged row, then the honest one
        assert len(lines) == 2 and json.loads(lines[-1])["nodes"] == nodes
        assert run(capsys, *argv, "--node-cap", str(nodes), "--cache", str(cache))[0] == 0

    def test_row_with_deflated_nodes_is_recomputed_up_to_the_cap(self, capsys, tmp_path):
        # 5,4 max takes 755 nodes; a row claiming 155 must not pass a cap of 500
        cache = tmp_path / "cache.jsonl"
        argv = ("search", "--shape", "5,4", "--mode", "max")
        assert run(capsys, *argv, "--cache", str(cache))[0] == 0
        row = cache.read_text()
        cache.write_text(row.replace('"nodes":755,', '"nodes":155,', 1))
        capped = (*argv, "--node-cap", "500")
        assert run(capsys, *capped, "--cache", str(cache)) == run(capsys, *capped, "--no-cache")
        assert run(capsys, *capped, "--no-cache") == (3, "", '{"error":"cap exceeded","detail":'
                                                      '"node cap 500 exceeded","nodes":501,'
                                                      '"memo_hits":88}\n')
        assert cache.read_text() == row.replace('"nodes":755,', '"nodes":155,', 1)

    def test_a_flipped_bit_in_a_cached_row_changes_only_speed(self, capsys, tmp_path):
        # Each of the four low bits of every byte of a real row, under the default
        # node cap and one below the row's count: every run prints what a run
        # without the cache prints, elapsed_ms aside.
        cache = tmp_path / "cache.jsonl"
        argv = ("search", "--shape", "2,2", "--mode", "min")
        code, out, _ = run(capsys, *argv, "--cache", str(cache))
        assert code == 0
        row = cache.read_bytes()

        def outcome(*options):
            code, out, err = run(capsys, *argv, *options)
            return code, out and dict(json.loads(out), elapsed_ms=0), err

        caps = [(), ("--node-cap", str(json.loads(out)["nodes"] - 1))]
        fresh = [outcome(*cap, "--no-cache") for cap in caps]
        assert [code for code, _, _ in fresh] == [0, 3]
        mismatches = []
        for at, bit in itertools.product(range(len(row)), (1, 2, 4, 8)):
            flipped = row[:at] + bytes([row[at] ^ bit]) + row[at + 1:]
            for cap, expected in zip(caps, fresh):
                cache.write_bytes(flipped)
                if outcome(*cap, "--cache", str(cache)) != expected:
                    mismatches.append((at, bit, cap))
        assert mismatches == []

    def test_flat_default_cap_holds_on_a_warm_cache(self, tmp_path):
        cache = str(tmp_path / "cache.jsonl")
        shape = Shape((4, 3))  # 60 bricks, past the flat engine's 40
        Searcher(engine="flat", brick_count_cap=60, cache_path=cache).report(shape, "min")
        with pytest.raises(CapExceeded):
            Searcher(engine="flat", cache_path=cache).report(shape, "min")
        with pytest.raises(CapExceeded):
            flat_extremal_size(shape, SearchConfig(mode="min"))


@pytest.mark.parametrize("caps", [{"brick_count_cap": 0}, {"node_cap": 0}])
def test_searcher_rejects_non_positive_caps_on_a_warm_cache(tmp_path, caps):
    cache = str(tmp_path / "cache.jsonl")
    Searcher(cache_path=cache).report(Shape((2, 2)), "min")
    with pytest.raises(ValueError, match="must be positive"):
        Searcher(cache_path=cache, **caps).report(Shape((2, 2)), "min")


def test_lookup_misses_a_row_past_the_node_cap(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    report = Searcher(cache_path=cache).report(Shape((3, 3)), "max")
    key = cache_key(Shape((3, 3)), False, "max", "front")
    assert cache_lookup(cache, key, report.nodes_explored - 1) is None
    assert cache_lookup(cache, key, report.nodes_explored) == report


def test_searcher_rejects_an_unknown_engine(tmp_path):
    cache = tmp_path / "cache.jsonl"
    with pytest.raises(ValueError, match="engine"):
        Searcher(engine="Front", cache_path=str(cache))
    assert not cache.exists()


class TestVerify:
    def test_theorem1_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem1", "--max-dim", "2",
                           "--max-side", "3", "--no-cache")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows
        assert all(row["status"] == "PASS" for row in rows)
        assert list(rows[0].keys()) == ["shape", "cubic", "mode", "expected", "actual", "status"]

    def test_prior_work(self, capsys):
        code, out, _ = run(capsys, "verify", "prior-work", "--max-side", "3", "--no-cache")
        assert code == 0
        assert all(row["status"] == "PASS" for row in csv.DictReader(io.StringIO(out)))

    def test_theorem3_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem3", "--max-dim", "2", "--max-side", "3",
                           "--format", "json", "--no-cache")
        assert code == 0
        rows = json.loads(out)
        assert all(row["status"] == "PASS" for row in rows)

    def test_classification_on_2x2(self, capsys):
        code, out, _ = run(capsys, "verify", "classification", "--shape", "2,2", "--no-cache")
        assert code == 0
        (row,) = list(csv.DictReader(io.StringIO(out)))
        assert row["expected"] == row["actual"] == "8"
        assert row["status"] == "PASS"

    def test_classification_fails_a_generator_that_repeats_a_system(self, monkeypatch):
        def twice(shape):
            for system in _minimal_family_corners(shape):
                yield system
                yield system

        monkeypatch.setattr("islands.verify._minimal_family_corners", twice)
        (row,) = classification_rows([Shape((2, 2))])
        assert (row["expected"], row["actual"], row["status"]) == (8, 8, "FAIL")

    @pytest.mark.parametrize("stray", [((0, 0), (3, 1)), ((1, 1), (1, 2)), ((0,), (1,))])
    def test_classification_fails_a_corner_pair_outside_the_universe(self, monkeypatch, stray):
        # past the 2x2 box, empty, and of the wrong dimension: a FAIL row, not a KeyError
        def with_stray(shape):
            first, *rest = _minimal_family_corners(shape)
            yield first[:-1] + (stray,)
            yield from rest

        monkeypatch.setattr("islands.verify._minimal_family_corners", with_stray)
        (row,) = classification_rows([Shape((2, 2))])
        assert (row["expected"], row["actual"], row["status"]) == (8, 8, "FAIL")

    def test_classification_checks_the_cap_before_generating(self, monkeypatch):
        def untouched(*args):
            raise AssertionError("generated past the brick cap")

        monkeypatch.setattr("islands.verify._minimal_family_corners", untouched)
        monkeypatch.setattr("islands.search._dominating_families", untouched)
        (row,) = classification_rows([Shape((9, 9))])
        assert row["status"] == SKIPPED

    def test_classification_rows_match_the_scalar_recomputation(self):
        # the brick-tuple path the rows took before masks, on every canonical shape
        # with d <= 4, at most 81 bricks and sides up to 10 (sides 11 and 12 are
        # only segments with unit sides, 58,786 and 208,012 systems, ~100 s more)
        shapes = [shape for shape in canonical_shapes(4, 10) if brick_count(shape) <= 81]
        want = []
        for shape in shapes:
            listed = [system.bricks for system in minimal_maximal_systems(shape)]
            oracle = list(enumerate_maximal_systems(shape, cap=81))
            best = min(len(system) for system in oracle)
            smallest = {system.bricks for system in oracle if len(system) == best}
            generated = set(listed)
            ok = (best == min_brick_system_size(shape) and generated == smallest
                  and len(listed) == len(generated))
            want.append((len(generated), len(smallest), "PASS" if ok else FAIL))
        rows = classification_rows(shapes, cap=81)
        assert len(shapes) == 66
        assert [(row["expected"], row["actual"], row["status"]) for row in rows] == want

    def test_onedim_rows_over_the_cap_are_skipped(self):
        rows = corollary_rows([], cap=20)  # a segment of length 6 has 21 bricks
        assert [(row["shape"], row["status"]) for row in rows] == (
            [(str(m), "PASS") for m in range(1, 6)] + [("6", SKIPPED)])
        assert (rows[-1]["expected"], rows[-1]["actual"]) == (0, "")

    def test_corollary_rows_past_the_edge_cap_are_skipped(self):
        rows = corollary_rows([Shape((3,) + (1,) * 15)])[:3]  # 6 bricks, 524,288 edges
        assert [(row["mode"], row["status"]) for row in rows] == [
            ("corners", SKIPPED), ("gaps", SKIPPED), ("restrict", SKIPPED)]

    def test_corollary_violations_are_counted(self, monkeypatch):
        # crafted systems, not maximal ones: every real maximal system passes
        box = IslandSystem(Shape((3, 3)), [B((0, 0), (3, 3)), B((0, 0), (1, 1)),
                                           B((2, 2), (3, 3))])
        # no full brick, [6,8] restricts to a non-maximal system; gaps [1,3]
        # (between two cells) and [11,14] (length 3) break the rule, [4,6]
        # and [8,10] (next to a longer run) do not
        line = IslandSystem(Shape((15,)), [B((a,), (b,)) for a, b in
                                           [(0, 1), (3, 4), (6, 8), (10, 11), (14, 15)]])
        segment = IslandSystem(Shape((3,)), [B((0,), (3,))])

        def families(shape, cubic, cap):
            if shape == Shape((2, 2)):
                raise CapExceeded("stub cap")
            return family_masks(shape, (box, line, segment))

        monkeypatch.setattr("islands.verify._maximal_family_masks", families)
        rows = corollary_rows([Shape((3, 3)), Shape((15,)), Shape((2, 2))])
        assert [(r["shape"], r["mode"], r["expected"], r["actual"], r["status"])
                for r in rows] == [
            ("3,3", "corners", 0, 2, "FAIL"),
            ("3,3", "gaps", 0, 4, "FAIL"),
            ("3,3", "restrict", 0, 1, "FAIL"),
            ("15", "corners", 0, 0, "PASS"),
            ("15", "gaps", 0, 2, "FAIL"),
            ("15", "restrict", 0, 2, "FAIL"),
            ("2,2", "corners", 0, "", SKIPPED),
            ("2,2", "gaps", 0, "", SKIPPED),
            ("2,2", "restrict", 0, "", SKIPPED),
        ] + [(str(m), "onedim", 0, int(m == 3), "FAIL" if m == 3 else "PASS")
             for m in range(1, 7)]
        assert all(row["cubic"] is False for row in rows)

    @pytest.mark.parametrize("dims, cells, expected", [
        # a side of length 1: two corner vectors name one cell, and each counts it
        ((1, 4), [((0, 0), (1, 1)), ((0, 2), (1, 3))], (2, 3, 1)),
        ((2, 1, 3), [((0, 0, 0), (1, 1, 1)), ((1, 0, 2), (2, 1, 3))], (4, 10, 1)),
    ])
    def test_corner_counts_on_sides_of_length_one(self, monkeypatch, dims, cells, expected):
        shape = Shape(dims)
        system = IslandSystem(shape, [shape.full_brick()] + [B(lo, hi) for lo, hi in cells])
        monkeypatch.setattr("islands.verify._maximal_family_masks",
                            lambda s, cubic, cap: family_masks(s, [system]))
        rows = corollary_rows([shape])[:3]
        assert [(row["mode"], row["actual"]) for row in rows] == list(
            zip(("corners", "gaps", "restrict"), expected))

    def test_corner_row_matches_a_scalar_count_over_arbitrary_families(self, monkeypatch):
        # the gaps and restrict rows too, each against its scalar reference
        def scalar_counts(system):
            members = max_elements(system)
            corners = gaps = 0
            if len(members) > 1:
                dims = system.shape.dims
                for corner in itertools.product((0, 1), repeat=len(dims)):
                    lo = tuple(0 if side == 0 else m - 1 for side, m in zip(corner, dims))
                    cell = B(lo, tuple(a + 1 for a in lo))
                    corners += not any(contains(member, cell) for member in members)
                for profile in gap_profiles(system.shape, members):
                    for gap in profile.gaps:
                        flanks = (gap.left_elementary, gap.right_elementary)
                        gaps += gap.length > 2 or None in flanks or (
                            gap.length == 2 and all(flanks))
            restricts = sum(not is_maximal(restrict(system, b)) for b in system)
            restricts += system.shape.full_brick() not in system.bricks
            return corners, gaps, restricts

        def counts(system):
            monkeypatch.setattr("islands.verify._maximal_family_masks",
                                lambda s, cubic, cap: family_masks(s, [system]))
            rows = corollary_rows([system.shape])[:3]
            actual = tuple(row["actual"] for row in rows)
            assert actual == scalar_counts(system), system
            return actual

        rng = random.Random(13)
        shapes = [Shape(dims) for d in range(1, 4)
                  for dims in itertools.product((1, 2, 3), repeat=d)]
        shapes += [Shape((2, 1, 2, 2)), Shape((1, 2, 2, 1))]
        nonzero = [0, 0, 0]
        for _ in range(20):
            for shape in shapes:
                universe = list(enumerate_bricks(shape))
                # not laminar in general, and the full brick only sometimes
                bricks = rng.sample(universe, rng.randint(0, min(8, len(universe))))
                system = IslandSystem(shape, bricks + [shape.full_brick()] * rng.randint(0, 1))
                nonzero = [n + (count > 0) for n, count in zip(nonzero, counts(system))]
        assert min(nonzero) > 100, nonzero

        # Sides of 3 or less leave no interior gap longer than 1, and uniform draws on
        # longer edges hit neither branch below; unit cells among the bricks hit both.
        branches = [0, 0]  # a gap of 2 between two cells, a flanked gap longer than 2
        for _ in range(20):
            for shape in [Shape((6,)), Shape((7,)), Shape((5, 2)), Shape((6, 3)),
                          Shape((5, 1, 2))]:
                universe = list(enumerate_bricks(shape))
                cells = [brick for brick in universe if brick.is_cell]
                bricks = rng.sample(cells, rng.randint(0, 4)) + rng.sample(universe,
                                                                           rng.randint(0, 4))
                system = IslandSystem(shape, bricks + [shape.full_brick()] * rng.randint(0, 1))
                counts(system)
                members = max_elements(system)
                if len(members) > 1:
                    gaps = [(gap.length, gap.left_elementary, gap.right_elementary)
                            for profile in gap_profiles(shape, members) for gap in profile.gaps]
                    branches[0] += (2, True, True) in gaps
                    branches[1] += any(length > 2 and None not in flanks
                                       for length, *flanks in gaps)
        assert min(branches) > 0, branches

    def test_no_edge_table_is_built_without_two_top_members(self):
        # 3 bricks and 2,359,296 edges: no maximal system has two top members, so
        # the edge cap never comes up and no per-edge mask may be built
        started = time.perf_counter()
        rows = corollary_rows([Shape((2,) + (1,) * 17)])[:3]
        assert time.perf_counter() - started < 5
        assert [(row["mode"], row["status"]) for row in rows] == [
            ("corners", "PASS"), ("gaps", "PASS"), ("restrict", "PASS")]

    def test_corollary_sweep_output_is_pinned(self, capsys):
        # sha256 of the rows as the scalar restrict/is_maximal check printed them
        code, out, _ = run(capsys, "verify", "corollaries", "--shape", "4,3", "--shape", "3,2,2",
                           "--shape", "2,2,2,2", "--shape", "2,2,2", "--format", "json",
                           "--no-cache")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e212c0543543b595095f4c0f1c2a7a08df501b3211fe35933d081ab8d1dc3447")

    def test_corollaries_on_small_shapes(self, capsys):
        code, out, _ = run(capsys, "verify", "corollaries", "--shape", "2,2",
                           "--shape", "3,2", "--no-cache")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(row["status"] == "PASS" for row in rows)
        assert {row["mode"] for row in rows} == {"corners", "gaps", "restrict", "onedim"}

    def test_strict_turns_skipped_rows_into_failure(self, capsys):
        # the 5x5 box is over the front engine's default brick cap
        code, out, _ = run(capsys, "verify", "theorem1", "--max-dim", "2",
                           "--max-side", "5", "--no-cache")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert any(row["status"] == "SKIPPED" for row in rows)
        assert not any(row["status"] == "FAIL" for row in rows)
        assert code == 0
        code, _, _ = run(capsys, "verify", "theorem1", "--max-dim", "2",
                         "--max-side", "5", "--strict", "--no-cache")
        assert code == 1

    def test_flat_engine_prints_the_front_engine_table(self, capsys):
        sweep = ("verify", "theorem1", "--no-cache")
        front = run(capsys, *sweep, "--engine", "front")
        assert front[0] == 0
        assert run(capsys, *sweep, "--engine", "flat") == front

    def test_flat_engine_skips_shapes_over_its_brick_cap(self, capsys):
        # 4,4 (100 bricks) and 4,3 (60) are over the flat cap of 40; 4,2 (30) is not
        sweep = ("verify", "theorem1", "--engine", "flat", "--max-side", "4", "--no-cache")
        code, out, _ = run(capsys, *sweep)
        assert code == 0
        status = {row["shape"]: row["status"] for row in csv.DictReader(io.StringIO(out))}
        assert {shape: s for shape, s in status.items() if s != "PASS"} == {
            "4,4": "SKIPPED", "4,3": "SKIPPED"}
        assert status["4,2"] == "PASS"
        assert run(capsys, *sweep, "--strict")[0] == 1

    def test_output_file_replaces_stdout(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        argv = ("verify", "theorem1", "--max-dim", "2", "--max-side", "1", "--no-cache")
        code, out, _ = run(capsys, *argv, "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == run(capsys, *argv)[1]
        assert target.read_text().startswith("shape,cubic,mode,expected,actual,status\n")

    def test_csv_bytes(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem1", "--max-dim", "2",
                           "--max-side", "1", "--no-cache")
        assert code == 0
        assert out == (
            "shape,cubic,mode,expected,actual,status\n"
            "1,False,min,1,1,PASS\n"
            '"1,1",False,min,1,1,PASS\n'
        )

    @pytest.mark.parametrize("option", ["--max-dim", "--max-side"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_sweep_bounds_are_usage_errors(self, capsys, option, value):
        # an empty sweep would print an empty table and report "verified"
        for strict in ([], ["--strict"]):
            code, out, err = run(capsys, "verify", "theorem1", option, value,
                                 "--no-cache", *strict)
            assert code == 2
            assert out == ""
            assert "must be positive" in err

    def test_verify_is_resumable_through_the_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache.jsonl"
        code, first, _ = run(capsys, "verify", "theorem2", "--max-dim", "2",
                             "--max-side", "2", "--cache", str(cache))
        assert code == 0
        rows_before = len(cache.read_text().strip().splitlines())
        code, second, _ = run(capsys, "verify", "theorem2", "--max-dim", "2",
                              "--max-side", "2", "--cache", str(cache))
        assert code == 0
        assert second == first
        assert len(cache.read_text().strip().splitlines()) == rows_before


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("suite", ["theorem1", "theorem2", "theorem3", "prior-work"])
    def test_shape_with_a_sweep_suite(self, capsys, suite):
        # these suites sweep --max-dim/--max-side; a --shape would be silently ignored
        code, out, err = run(capsys, "verify", suite, "--shape", "9,9", "--no-cache")
        assert code == 2
        assert out == ""
        assert "--shape" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "prior-work", "--max-dim", "4"),
        ("verify", "classification", "--max-side", "9"),
        ("verify", "corollaries", "--engine", "flat"),
        ("verify", "classification", "--cache", "rows.jsonl"),
        ("construct", "nested-min", "--shape", "2,2", "--d", "3"),
        ("construct", "subdivision", "--d", "2", "--k", "2", "--m", "3"),
    ])
    def test_an_option_the_command_does_not_read(self, capsys, argv):
        # the command does not read the option, so it must not run as if it had
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert argv[-2] in err

    def test_bad_shape_string(self, capsys):
        assert run(capsys, "search", "--shape", "2,x")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestOneParser:
    """In-process callers of main share one parser; the environment is read per call."""

    def test_a_second_call_builds_no_parser(self, capsys, monkeypatch):
        assert run(capsys, "search", "--shape", "2,2", "--no-cache")[0] == 0
        built, init = [], argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        code, out, _ = run(capsys, "search", "--shape", "2,2", "--no-cache")
        assert (code, json.loads(out)["value"], built) == (0, 3, [])
        assert build_parser() is build_parser()

    def test_cache_path_from_the_environment_is_read_per_call(self, capsys, tmp_path,
                                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        monkeypatch.setenv("ISLANDS_CACHE", str(first))
        assert run(capsys, "search", "--shape", "2,2")[0] == 0
        monkeypatch.setenv("ISLANDS_CACHE", str(second))
        assert run(capsys, "search", "--shape", "2,2")[0] == 0
        assert [len(path.read_text().splitlines()) for path in (first, second)] == [1, 1]


@pytest.mark.parametrize("argv,code,value", [
    (["search", "--shape", "2,2", "--no-cache"], 0, 3),
    (["search", "--shape", "2,x"], 2, None),
])
def test_module_entry_point(tmp_path, argv, code, value):
    done = subprocess.run([sys.executable, "-m", "islands.cli", *argv], capture_output=True,
                          text=True, cwd=tmp_path, env=child_env(), timeout=60)
    assert done.returncode == code
    if value is None:
        assert done.stdout == "" and "bad shape" in done.stderr
    else:
        assert (json.loads(done.stdout)["value"], done.stderr) == (value, "")


def test_readme_cli_lines_parse():
    """Every `islands ...` line in the README's code blocks is accepted by the parser."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines, in_block = [], False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("islands "):
            lines.append(line.split("#", 1)[0])
    assert len(lines) >= 10
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_readme_library_example_prints_its_values(capsys):
    """The README's `## Library` Python block runs and prints what its comments say."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["5", "5", "170"]
