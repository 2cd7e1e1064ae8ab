"""Command-line surface: exit codes, JSON output, file input/output, and
round trips between subcommands.
"""

import json
import time

import pytest

from z2brace.cli import main

VALID_INLINE = '{"phi":[[1,0],[0,1]],"psi":[[1,0],[0,1]]}'
FAMILY_12_INLINE = '{"phi":[[2,1],[-1,0]],"psi":[[2,1],[-1,0]]}'
INVALID_INLINE = '{"phi":[[1,1],[0,1]],"psi":[[1,0],[0,1]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_valid_pair_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", VALID_INLINE)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_known_family_member(self, capsys):
        code, out, _ = run(capsys, "check", FAMILY_12_INLINE)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_invalid_pair_exits_one_with_verdict(self, capsys):
        code, out, _ = run(capsys, "check", INVALID_INLINE)
        assert code == 1
        verdict = json.loads(out)
        assert verdict["valid"] is False
        assert verdict["power_identities"] == [True, False, True, True]

    def test_malformed_json_exits_two(self, capsys):
        code, _, err = run(capsys, "check", '{"phi": [[1,0],[0,1]]')
        assert code == 2 and "error" in err

    def test_non_unimodular_exits_two(self, capsys):
        code, _, err = run(capsys, "check", '{"phi":[[2,0],[0,1]],"psi":[[1,0],[0,1]]}')
        assert code == 2 and "determinant" in err

    def test_spec_from_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(FAMILY_12_INLINE)
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.json")
        assert code == 2 and "error" in err


class TestClassify:
    def test_identity_pair(self, capsys):
        code, out, _ = run(capsys, "classify", VALID_INLINE)
        assert code == 0
        assert json.loads(out) == ["1.1", "1.2"]

    def test_invalid_pair_notes_and_exits_zero(self, capsys):
        code, out, err = run(capsys, "classify", INVALID_INLINE)
        assert code == 0
        assert json.loads(out) == []
        assert "not a brace" in err


class TestGenerate:
    def test_family_12(self, capsys):
        code, out, _ = run(capsys, "generate", "--row", "1.2", "--m", "1", "--p", "1", "--q", "1")
        assert code == 0
        assert json.loads(out) == {"phi": [[2, 1], [-1, 0]], "psi": [[2, 1], [-1, 0]]}

    def test_bad_params_exit_two(self, capsys):
        code, _, err = run(capsys, "generate", "--row", "1.2", "--m", "1", "--p", "2", "--q", "2")
        assert code == 2 and "gcd" in err

    def test_unknown_row_exits_two(self, capsys):
        code, _, err = run(capsys, "generate", "--row", "9.9")
        assert code == 2 and "unknown" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--row", "1.1", "--sign1", "1", "--sign2", "-1"),
            ("--row", "1.2", "--m", "2", "--p", "1", "--q", "0"),
            ("--row", "3.1", "--p", "0", "--q", "3", "--sign1", "-1"),
            ("--row", "4.1", "--m", "0", "--n", "0", "--p", "-2"),
            ("--row", "1.5", "--m", "0", "--n", "1"),
        ],
    )
    def test_generate_check_classify_round_trip(self, capsys, argv):
        code, out, _ = run(capsys, "generate", *argv)
        assert code == 0
        spec_json = out.strip()

        code, _, _ = run(capsys, "check", spec_json)
        assert code == 0

        code, out, _ = run(capsys, "classify", spec_json)
        assert code == 0
        row = argv[argv.index("--row") + 1]
        assert row in json.loads(out)


class TestSearchAndOrders:
    def test_search_bound1_clean(self, capsys):
        code, out, _ = run(capsys, "search", "--bound", "1")
        assert code == 0
        report = json.loads(out)
        assert report["unmatched_valid"] == []
        assert report["invalid_row_instances"] == []
        assert report["valid_pairs"] == 34

    def test_search_deterministic(self, capsys):
        _, first, _ = run(capsys, "search", "--bound", "1")
        _, second, _ = run(capsys, "search", "--bound", "1")
        assert first == second

    def test_orders_clean(self, capsys):
        code, out, _ = run(capsys, "orders", "--bound", "2")
        assert code == 0
        assert json.loads(out) == []


class TestYbe:
    def test_small_run_clean(self, capsys):
        code, out, _ = run(capsys, "ybe", FAMILY_12_INLINE, "--samples", "50", "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == 3
        assert report["ybe_failures"] == []

    def test_invalid_spec_exits_two(self, capsys):
        code, _, err = run(capsys, "ybe", INVALID_INLINE, "--samples", "5")
        assert code == 2 and "error" in err

    def test_huge_sampling_box_finishes(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "ybe", FAMILY_12_INLINE, "--samples", "50", "--box", "1000000"
        )
        elapsed = time.perf_counter() - start
        report = json.loads(out)
        assert code == 0
        assert report["ybe_failures"] == []
        assert report["involutivity_failures"] == []
        assert report["nondegeneracy_failures"] == []
        assert elapsed < 5


@pytest.mark.parametrize("command", ["check", "classify", "ybe"])
def test_deeply_nested_json_exits_two(capsys, tmp_path, command):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == "" and "error" in err


class TestOutputFile:
    def test_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, "search", "--bound", "1")
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "search", "--bound", "1", "--output", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == stdout_text
