import csv
import io
import json
import shlex
from pathlib import Path

import pytest

from islands.cli import build_parser, main
from islands.search import ENGINE_VERSION
from islands.serialize import dumps_canonical, system_from_dict, system_to_dict
from islands.verify import SKIPPED, classification_rows
from islands import IslandSystem, Shape, nested_min_system

from conftest import B


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_parse_failure(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "check", str(tmp_path / "absent.json"))
        assert code == 2


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
        from islands.serialize import report_from_dict, report_to_dict

        line = out.strip()
        assert dumps_canonical(report_to_dict(report_from_dict(json.loads(line)))) == line


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


# A line that parses but is not an object, and a key-matching row with no report.
BAD_CACHE_LINES = {
    "non-object": "[1,2]",
    "no-report": dumps_canonical({"shape": [2, 2], "cubic": False, "mode": "min",
                                  "engine": "front", "engine_version": ENGINE_VERSION}),
}


class TestCacheRows:
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

    def test_classification_checks_the_cap_before_generating(self):
        (row,) = classification_rows([Shape((9, 9))])
        assert row["status"] == SKIPPED

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

    def test_bad_shape_string(self, capsys):
        assert run(capsys, "search", "--shape", "2,x")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


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
