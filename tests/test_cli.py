"""Command-line surface: exit codes, JSON output, file input/output, and
round trips between subcommands.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

import z2brace
from conftest import hyperbolic_pair
from z2brace import BraceSpec, IDENTITY, Mat2
from z2brace.cli import main

VALID_INLINE = '{"phi":[[1,0],[0,1]],"psi":[[1,0],[0,1]]}'
FAMILY_12_INLINE = '{"phi":[[2,1],[-1,0]],"psi":[[2,1],[-1,0]]}'
INVALID_INLINE = '{"phi":[[1,1],[0,1]],"psi":[[1,0],[0,1]]}'

# sha256 of the search --bound B stdout, recorded from a search that
# paired each phi with its whole in-class commutant.
SEARCH_DIGESTS = {
    20: "41909560412bb17124a693e0adfc0f5d2570aa24f44bbd3706343a9263be14d3",
    40: "8d37f5b19bf457697e9da147fba9cfff568064b1f82835ec315be23ada29303e",
}


# One member of each family, in the order of the ybe-families benchmark
# workload.
YBE_MEMBERS = [
    {"phi": [[-1, 0], [0, -1]], "psi": [[-1, 0], [0, -1]]},
    {"phi": [[2, 1], [-1, 0]], "psi": [[2, 1], [-1, 0]]},
    {"phi": [[1, 0], [0, 1]], "psi": [[-2, -1], [3, 1]]},
    {"phi": [[1, 3], [-1, -2]], "psi": [[1, 0], [0, 1]]},
    {"phi": [[2, 7], [-1, -3]], "psi": [[2, 7], [-1, -3]]},
    {"phi": [[0, 1], [-1, -1]], "psi": [[-1, -1], [1, 0]]},
    {"phi": [[1, 0], [0, 1]], "psi": [[-1, 1], [0, 1]]},
    {"phi": [[-1, 0], [0, -1]], "psi": [[-1, 0], [2, 1]]},
    {"phi": [[1, 0], [1, -1]], "psi": [[1, 0], [0, 1]]},
    {"phi": [[1, 2], [0, -1]], "psi": [[-1, 0], [0, -1]]},
    {"phi": [[1, 2], [0, -1]], "psi": [[1, 2], [0, -1]]},
    {"phi": [[1, 2], [0, -1]], "psi": [[-1, -2], [0, 1]]},
]


def generate_grid():
    # `generate` argument lists: every family with each parameter in -6..6,
    # and p unset, -2, 0 or 3 for 1.5, 1.6 and 4.1; members and rejections
    # alike.
    grid = range(-6, 7)
    signs = (1, -1)
    calls = [("--row", "1.1", "--sign1", str(s1), "--sign2", str(s2))
             for s1, s2 in product(signs, repeat=2)]
    calls += [("--row", "1.2", "--m", str(m), "--p", str(p), "--q", str(q))
              for m, p, q in product(grid, repeat=3)]
    for row in ("1.3", "1.4", "2.1", "2.2", "3.1", "3.2", "4.2"):
        calls += [("--row", row, "--p", str(p), "--q", str(q), "--sign1", str(s))
                  for p, q, s in product(grid, grid, signs)]
    for row in ("1.5", "1.6", "4.1"):
        for m, n, p in product(grid, grid, (None, -2, 0, 3)):
            extra = () if p is None else ("--p", str(p))
            calls.append(("--row", row, "--m", str(m), "--n", str(n), *extra))
    return calls


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

    def test_output_bytes_pinned(self, capsys):
        # sha256 over stdout and exit code of `check` on every pair at
        # bound 1, hyperbolic phi = psi at 8 and 10 bits, and a family 1.2
        # member with m = 2^64 + 1.  Recorded from the previous `check`, whose
        # verdict also carried "kernel_identities": each of its outputs with
        # that key dropped and re-serialised by json.dumps(obj, indent=2).
        box = [
            Mat2(a, b, c, d)
            for a, b, c, d in product(range(-1, 2), repeat=4)
            if abs(a * d - b * c) == 1
        ]
        specs = [BraceSpec(phi, psi) for phi in box for psi in box]
        for a in (2**7 + 7, 2**9 + 7):
            for m in (Mat2(a, a + 1, a - 1, a), Mat2(a, a - 1, a + 1, a)):
                specs.append(BraceSpec(m, m))
        m, p, q = 2**64 + 1, 2, -3
        specs.append(BraceSpec(
            Mat2(1 + m * p * p * q, m * p * q * q, -m * p**3, 1 - m * p * p * q),
            Mat2(1 + m * p * q * q, m * q**3, -m * p * p * q, 1 - m * p * q * q),
        ))
        assert len(specs) == 1605
        digest = hashlib.sha256()
        for spec in specs:
            code, out, _ = run(capsys, "check", json.dumps(spec.to_dict()))
            digest.update(f"{out}{code}\n".encode())
        assert digest.hexdigest() == (
            "986ae5926a0609be3984204fb4353787d5e4150820bb2afa5bdc9c9ac9345ba6"
        )


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

    def test_stray_parameters_exit_two(self, capsys):
        code, out, err = run(
            capsys, "generate", "--row", "1.2", "--m", "1", "--p", "1", "--q", "1",
            "--n", "5", "--sign1", "-1",
        )
        assert code == 2 and out == ""
        assert "family 1.2 takes no parameter n, sign1" in err

    def test_output_bytes_pinned(self, capsys):
        # sha256 over stdout and exit code of `generate` on every family over
        # a parameter grid, each member followed by stdout and exit code of
        # `classify` on it.  Recorded from the constructors that wrote each
        # family out by hand; error text is pinned by the next test.
        calls = generate_grid()
        assert len(calls) == 6595
        digest = hashlib.sha256()
        members = 0
        for argv in calls:
            code, out, _ = run(capsys, "generate", *argv)
            digest.update(f"{out}{code}\n".encode())
            if code == 0:
                members += 1
                code, out, _ = run(capsys, "classify", out.strip())
                digest.update(f"{out}{code}\n".encode())
        assert (members, digest.hexdigest()) == (
            1920, "bcabbb561ea902dd9d0bc8681f210b94bebfd23ab3eea2a86f452f7e72895244"
        )

    def test_rejection_messages_pinned(self, capsys):
        # sha256 over stderr and exit code of every `generate` call of the
        # grid that is rejected, so each BadParams, IntegralityError and
        # GcdError keeps its message.  Recorded from the constructors that
        # built each family member as a BraceSpec.
        digest = hashlib.sha256()
        rejected = 0
        for argv in generate_grid():
            code, out, err = run(capsys, "generate", *argv)
            if code:
                assert out == ""
                rejected += 1
                digest.update(f"{err}{code}\n".encode())
        assert (rejected, digest.hexdigest()) == (
            4675, "f25207472049cd19e3142ff1f71691fcba67e57b3a11341b85f9b4b0541a0ec4"
        )

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

    @pytest.mark.parametrize("bound", sorted(SEARCH_DIGESTS))
    def test_search_report_bytes_pinned(self, capsys, bound):
        # A search that loses valid pairs still confirms the classification
        # (the reverse direction finds the missed family members valid), so
        # the whole report is pinned, valid_pairs included.
        code, out, _ = run(capsys, "search", "--bound", str(bound))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_DIGESTS[bound]

    def test_search_has_no_jobs_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--bound", "1", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

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

    def test_output_bytes_pinned(self, capsys):
        # sha256 over stdout and exit code of `ybe` on one member of each
        # family, recorded from the ybe that built r from Mat2 powers and
        # Mat2.inverse at every sample.
        digest = hashlib.sha256()
        for spec in YBE_MEMBERS:
            code, out, _ = run(
                capsys, "ybe", json.dumps(spec), "--samples", "1000", "--box", "8", "--seed", "0"
            )
            digest.update(f"{out}{code}\n".encode())
        assert digest.hexdigest() == (
            "e7e1d18feb2e5b6537f017fda719f2638bcb5a0595acea843154c3bd04f465e6"
        )

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


@pytest.mark.parametrize("command", ["check", "classify", "ybe"])
def test_inline_non_object_json_exits_two(capsys, command):
    code, out, err = run(capsys, command, "[1]")
    assert code == 2 and out == ""
    assert 'expected an object with exactly the keys "phi" and "psi"' in err
    assert "No such file" not in err


# A hyperbolic phi at 64 and 256 bits beside a second hyperbolic matrix,
# an order-4 matrix and a parabolic one; no partner commutes with phi.
NON_COMMUTING_LARGE = [
    pytest.param(json.dumps(BraceSpec(m, psi).to_dict()), id=f"{bits}-bit-{name}")
    for bits in (64, 256)
    for m, n in [hyperbolic_pair(bits)]
    for name, psi in (
        ("hyperbolic", n),
        ("order-4", Mat2(0, -1, 1, 0)),
        ("parabolic", Mat2(1, 1, 0, 1)),
    )
]


def run_process(*argv):
    # The CLI in a fresh interpreter.  The timeout makes a verdict that does
    # not finish fail the test instead of hanging the suite.
    src = Path(z2brace.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "z2brace", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


# The same hyperbolic phi at 64 and 256 bits beside +-E, in either order:
# the pair commutes, and no power of +-E can equal a hyperbolic power.
SCALAR_BESIDE_HYPERBOLIC_LARGE = [
    pytest.param(json.dumps(spec.to_dict()), id=f"{bits}-bit-{name}")
    for bits in (64, 256)
    for m, _ in [hyperbolic_pair(bits)]
    for name, spec in (
        ("H-E", BraceSpec(m, IDENTITY)),
        ("H-negE", BraceSpec(m, -IDENTITY)),
        ("E-H", BraceSpec(IDENTITY, m)),
        ("negE-H", BraceSpec(-IDENTITY, m)),
    )
]


class LargeEntryVerdicts:
    """check, classify and ybe decide an invalid pair with large entries
    without powers whose size grows with its entries; commuting is the
    pair's expected commutation."""

    commuting: bool

    def test_check_exits_one(self, spec):
        proc = run_process("check", spec)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["commuting"] is self.commuting

    def test_classify_prints_no_family(self, spec):
        proc = run_process("classify", spec)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_ybe_exits_two(self, spec):
        proc = run_process("ybe", spec)
        assert proc.returncode == 2
        assert proc.stdout == "" and "fails the pair conditions" in proc.stderr


@pytest.mark.parametrize("spec", NON_COMMUTING_LARGE)
class TestNonCommutingLargeEntries(LargeEntryVerdicts):
    commuting = False


@pytest.mark.parametrize("spec", SCALAR_BESIDE_HYPERBOLIC_LARGE)
class TestScalarBesideHyperbolicLargeEntries(LargeEntryVerdicts):
    commuting = True


class TestOutputFile:
    def test_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, "search", "--bound", "1")
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "search", "--bound", "1", "--output", str(path))
        assert code == 0 and out == ""
        assert path.read_text() == stdout_text


def test_parser_is_shared_across_calls(capsys):
    # main() parses every call with one parser built at import; no option
    # value or error may carry over from one call to the next.
    _, first_check, _ = run(capsys, "check", FAMILY_12_INLINE)

    code, out, _ = run(capsys, "generate", "--row", "1.2", "--m", "1", "--p", "1", "--q", "1")
    assert code == 0
    member = out.strip()
    assert json.loads(member) == json.loads(FAMILY_12_INLINE)

    with pytest.raises(SystemExit) as exc:
        main(["search", "--bound", "1", "--jobs", "2"])
    assert exc.value.code == 2
    capsys.readouterr()

    # Family 1.1 takes no m; an m left over from the first generate would
    # make this exit 2.
    code, out, err = run(capsys, "generate", "--row", "1.1", "--sign1", "1", "--sign2", "1")
    assert code == 0, err
    assert json.loads(out) == {"phi": [[1, 0], [0, 1]], "psi": [[1, 0], [0, 1]]}

    code, out, _ = run(capsys, "check", member)
    assert code == 0
    assert out == first_check
