"""Command-line surface: exit codes, JSON output, file input/output, and
round trips between subcommands.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import z2brace
import z2brace.classification as classification
from conftest import (
    MEMBERS_64_BIT,
    ROW_FIXTURE_PARAMS,
    YBE_MEMBERS,
    hyperbolic_pair,
    hyperbolic_pair_at,
    random_unimodular,
)
from z2brace import (
    BadParams,
    BraceSpec,
    IDENTITY,
    IntegralityError,
    InvalidSpec,
    Mat2,
    NotUnimodular,
    RowLabel,
    RowParams,
    cli,
    generate_row,
    sample_report,
)
from z2brace.cli import _COMMANDS, _GRAMMARS, _PARSER, _parse_direct, _write, main

VALID_INLINE = '{"phi":[[1,0],[0,1]],"psi":[[1,0],[0,1]]}'
FAMILY_12_INLINE = '{"phi":[[2,1],[-1,0]],"psi":[[2,1],[-1,0]]}'
INVALID_INLINE = '{"phi":[[1,1],[0,1]],"psi":[[1,0],[0,1]]}'
ASSOCIATIVE_NON_COMMUTING = '{"phi":[[1,0],[2,1]],"psi":[[-1,0],[0,1]]}'
TOP_LEVEL_USAGE = "usage: z2brace [-h] {check,classify,generate,search,ybe} ..."
INVALID_NOTE = "note: not a lambda-homomorphic brace (pair fails the validity conditions)\n"

# sha256 of the search --bound B stdout, recorded from a search that
# paired each phi with its whole in-class commutant; the pin at 400 was
# recorded from the product-index listing and the list join.
SEARCH_DIGESTS = {
    20: "41909560412bb17124a693e0adfc0f5d2570aa24f44bbd3706343a9263be14d3",
    40: "8d37f5b19bf457697e9da147fba9cfff568064b1f82835ec315be23ada29303e",
    100: "b86549099c2aaf38daee238d891ff3ea7bc330335649a9171fc6006763c86cc1",
    200: "9c35bcc88947e596b3865f52c8f786c4b5f0f148a9353b7c4aa8fe26244d6b0a",
    400: "b11fd3ab60b1970585dc4e7b8291c00fcd571357cafa06b9fface894bde23a5d",
}

REPO = Path(__file__).resolve().parent.parent


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


def run_timed(capsys, *argv):
    # run, failing the test if the call took 10 s or more, the limit
    # run_process gives a call in a fresh interpreter.
    start = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - start < 10, argv
    return result


def generate_argv(label, params):
    # The generate call that builds label's member from params.
    options = [
        word
        for name, value in params._asdict().items() if value is not None
        for word in (f"--{name}", str(value))
    ]
    return ["generate", "--row", label.value, *options]


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
        assert err == INVALID_NOTE

    def test_associative_non_commuting_pair_is_not_called_no_brace(self, capsys):
        # This pair's multiplication is associative, so it is a brace
        # (test_brace.TestAssociativity), but not a lambda-homomorphic one.
        code, out, err = run(capsys, "classify", ASSOCIATIVE_NON_COMMUTING)
        assert code == 0
        assert json.loads(out) == []
        assert err == INVALID_NOTE

    def test_invalid_family_member_falsifies(self, monkeypatch, capsys):
        # With 1.1's constructor returning the invalid (shear, E), that
        # pair is a 1.1 member that check_pair rejects: classify lists the
        # family as before, and fails with the falsification on stderr.
        monkeypatch.setattr(
            classification._FAMILIES[RowLabel.R1_1],
            "build",
            lambda *params: ((1, 1, 0, 1), (1, 0, 0, 1)),
        )
        code, out, err = run(capsys, "classify", INVALID_INLINE)
        assert code == 1
        assert out == '[\n  "1.1"\n]\n'
        assert err == (
            "member of 1.1 fails the validity conditions; classification falsified\n"
        )


def verdict_path_calls():
    # check and classify on 16 seeded random unimodular pairs with entries up
    # to 2^8, generate then classify on one member of each family, and
    # malformed input: bad JSON, a non-unimodular spec and the decoder's
    # rejections.  A PREV argument stands for the stdout of the call before.
    rng = random.Random(30)
    calls = []
    for _ in range(16):
        spec = json.dumps(BraceSpec(
            random_unimodular(rng, 256), random_unimodular(rng, 256)
        ).to_dict())
        calls += [["check", spec], ["classify", spec]]
    for label, params in ROW_FIXTURE_PARAMS.items():
        calls += [generate_argv(label, params), ["classify", "PREV"]]
    for command in ("check", "classify"):
        calls += [
            [command, '{"phi": [[1, 0], [0, 1]], "psi": '],
            [command, '{"phi": [[2, 0], [0, 1]], "psi": [[1, 0], [0, 1]]}'],
            [command, '{"phi": [[1, 0], [0, 1]], "psi": [[1, 0], [0, 1.0]]}'],
            [command, '{"phi": [[1, 0, 0], [0, 1]], "psi": [[1, 0], [0, 1]]}'],
            [command, '{"phi": [[1, 0], [0, 1]], "psi": [[1, 0], [0, 1]], "x": 1}'],
        ]
    return calls


def test_verdict_path_bytes_pinned(capsys):
    # sha256 over stdout, stderr and exit code of every call of
    # verdict_path_calls, recorded before membership was looked up by the
    # pair's (det, trace) signature, output went through one shared JSON
    # encoder and Mat2.from_rows decoded in one pass.
    calls = verdict_path_calls()
    assert len(calls) == 66
    digest = hashlib.sha256()
    out = ""
    for argv in calls:
        argv = [out.strip() if word == "PREV" else word for word in argv]
        code, out, err = run(capsys, *argv)
        digest.update(f"{out}{err}{code}\n".encode())
    assert digest.hexdigest() == (
        "ba1bf011ec9617214256a046514dd6318d8982c08f509433adab374446f84bea"
    )


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


class TestSearch:
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

    def test_search_bound_4_equals_the_golden_file(self, capsys):
        # The report the benchmark's search-b4 workload checks its runs
        # against; the test only reads the file.
        code, out, _ = run(capsys, "search", "--bound", "4")
        assert code == 0
        assert out.encode() == (REPO / "benchmarks" / "golden" / "search-b4.json").read_bytes()

    def test_search_has_no_jobs_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--bound", "1", "--jobs", "2"])
        assert exc.value.code == 2
        # The search command's own parser reports the stray option.
        assert capsys.readouterr().err == (
            "usage: z2brace search [-h] --bound BOUND [--output OUTPUT]\n"
            "z2brace search: error: unrecognized arguments: --jobs 2\n"
        )


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

    @pytest.mark.parametrize(
        "box, expected",
        [
            # Width 3 needs 2 bits, so a quarter of the draws are redrawn.
            ("1", "5042140d6292d622d9d6370d724a9939ebe9887f7884972671ef2aacc665ea90"),
            # 2^70: each coordinate takes three 32-bit words of the stream.
            (
                "1180591620717411303424",
                "428c594dbd51db569f501968f41ae4cb799764b9c7fdd4a851134b8cf6376df1",
            ),
        ],
        ids=["box-1", "box-2^70"],
    )
    def test_output_bytes_pinned_at_extreme_boxes(self, capsys, box, expected):
        # sha256 over stdout and exit code of `ybe` on one member of each
        # family, recorded from the ybe that drew each coordinate with
        # random.Random.randint and evaluated r on nested (x, y) tuples.
        digest = hashlib.sha256()
        for spec in YBE_MEMBERS:
            code, out, _ = run(
                capsys, "ybe", json.dumps(spec), "--samples", "500", "--box", box, "--seed", "3"
            )
            digest.update(f"{out}{code}\n".encode())
        assert digest.hexdigest() == expected

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

    def test_clean_at_volume_on_the_parabolic_pair(self, capsys):
        # 20,000 samples with coordinates up to 1000 on family 1.2's affine
        # form; exit 0 is a clean report.
        code, _, err = run_timed(
            capsys, "ybe", FAMILY_12_INLINE, "--samples", "20000", "--box", "1000"
        )
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("spec", YBE_MEMBERS, ids=json.dumps)
    def test_clean_at_volume_on_each_family_member(self, capsys, spec):
        # The ybe-families benchmark's members at 20,000 samples each: 1.2's
        # r reads lambda's affine form, every other member's a table.
        code, _, err = run_timed(
            capsys, "ybe", json.dumps(spec), "--samples", "20000", "--box", "8", "--seed", "1"
        )
        assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "label, params, spec",
    MEMBERS_64_BIT,
    ids=[" ".join(generate_argv(label, params)[2:]) for label, params, _ in MEMBERS_64_BIT],
)
def test_64_bit_member_classifies_and_gives_a_clean_report(capsys, label, params, spec):
    # generate builds the member, classify lists its family and ybe samples
    # coordinates up to 10^6: lambda is a table lookup for every
    # finite-order family and affine in x for 1.2.
    code, out, _ = run(capsys, *generate_argv(label, params))
    assert code == 0 and json.loads(out) == spec.to_dict()
    member = out.strip()
    code, out, _ = run_timed(capsys, "classify", member)
    assert code == 0 and label.value in json.loads(out)
    code, _, err = run_timed(capsys, "ybe", member, "--samples", "2000", "--box", "1000000")
    assert (code, err) == (0, "")


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
# an order-4 matrix and a parabolic one, and the two hyperbolic matrices at
# a = 10^3999 + 7, 4,000 digits, below the 4,300 digits Python converts
# between int and str; no partner commutes with phi.
NON_COMMUTING_LARGE = [
    pytest.param(json.dumps(BraceSpec(m, psi).to_dict()), id=f"{bits}-bit-{name}")
    for bits in (64, 256)
    for m, n in [hyperbolic_pair(bits)]
    for name, psi in (
        ("hyperbolic", n),
        ("order-4", Mat2(0, -1, 1, 0)),
        ("parabolic", Mat2(1, 1, 0, 1)),
    )
] + [
    pytest.param(
        json.dumps(BraceSpec(*hyperbolic_pair_at(10**3999 + 7)).to_dict()),
        id="4000-digit-hyperbolic",
    )
]


def run_process(*argv):
    # The CLI in a fresh interpreter, as the console script runs it.  The
    # timeout makes a call that does not finish in 10 s fail the test
    # instead of hanging the suite.
    src = Path(z2brace.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "z2brace", *argv],
        capture_output=True,
        text=True,
        timeout=10,
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
        assert (proc.stdout, proc.stderr) == ("[]\n", INVALID_NOTE)

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


@pytest.mark.parametrize(
    "bits, command, code", [(41, "ybe", 2), (14, "check", 1)], ids=["41-bit-ybe", "14-bit-check"]
)
def test_commuting_hyperbolic_pair_finishes(bits, command, code):
    # phi = psi = [[a, a+1], [a-1, a]] with a = 2^(bits-1) + 7.  At 41 bits
    # _lambda_form refuses the hyperbolic generator before check_pair would
    # take its powers at 41-bit exponents, so ybe exits 2.  check takes
    # them, each identity comparing two hyperbolic powers, at the
    # benchmark's 14-bit size, and exits 1.  Both well inside run_process's
    # timeout.
    m, _ = hyperbolic_pair(bits)
    proc = run_process(command, json.dumps(BraceSpec(m, m).to_dict()))
    assert proc.returncode == code, proc.stderr
    if command == "ybe":
        assert proc.stdout == "" and "fails the pair conditions" in proc.stderr
    else:
        assert json.loads(proc.stdout)["valid"] is False


def falsify_family_11(monkeypatch):
    # As in test_invalid_family_member_falsifies: 1.1's constructor builds
    # the invalid (shear, E), a 1.1 member that check_pair rejects.
    monkeypatch.setattr(
        classification._FAMILIES[RowLabel.R1_1],
        "build",
        lambda *params: ((1, 1, 0, 1), (1, 0, 0, 1)),
    )


class TestOutputFile:
    """--output writes to a file the bytes the same call prints, with the
    same exit code and stderr, and leaves stdout empty, on every command and
    on each exit-code and stderr path classify takes.  Those bytes are
    json.dumps(..., indent=2) of the payload and a newline."""

    # (id, argv, exit code, the file's JSON or None to skip, stderr, patch).
    CASES = [
        ("search-bound-1", ["search", "--bound", "1"], 0, None, "", None),
        ("check-valid", ["check", FAMILY_12_INLINE], 0, None, "", None),
        ("check-invalid", ["check", INVALID_INLINE], 1,
         {"valid": False, "commuting": True, "power_identities": [True, False, True, True]},
         "", None),
        ("check-non-commuting", ["check", ASSOCIATIVE_NON_COMMUTING], 1,
         {"valid": False, "commuting": False, "power_identities": [True, True, False, True]},
         "", None),
        ("classify-member", ["classify", VALID_INLINE], 0, ["1.1", "1.2"], "", None),
        ("classify-invalid", ["classify", INVALID_INLINE], 0, [], INVALID_NOTE, None),
        ("classify-falsified", ["classify", INVALID_INLINE], 1, ["1.1"],
         "member of 1.1 fails the validity conditions; classification falsified\n",
         falsify_family_11),
        ("generate", ["generate", "--row", "1.2", "--m", "1", "--p", "1", "--q", "1"], 0,
         {"phi": [[2, 1], [-1, 0]], "psi": [[2, 1], [-1, 0]]}, "", None),
        ("ybe", ["ybe", FAMILY_12_INLINE, "--samples", "20", "--seed", "3"], 0, None, "",
         None),
        # Each command once more: on family 1.2's parabolic pair, a 1.2
        # member with m = 2 and the box of bound 2.
        ("check-parabolic", ["check", FAMILY_12_INLINE], 0, None, "", None),
        ("classify-parabolic", ["classify", FAMILY_12_INLINE], 0, ["1.2"], "", None),
        ("generate-m-2", ["generate", "--row", "1.2", "--m", "2", "--p", "3", "--q", "-7"], 0,
         None, "", None),
        ("search-bound-2", ["search", "--bound", "2"], 0, None, "", None),
        ("ybe-parabolic", ["ybe", FAMILY_12_INLINE, "--samples", "50"], 0, None, "", None),
    ]

    @pytest.mark.parametrize(
        "argv, expected_code, expected_json, expected_err, patch",
        [case[1:] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_every_command_matches_stdout(
        self, capsys, tmp_path, monkeypatch, argv, expected_code, expected_json,
        expected_err, patch,
    ):
        if patch is not None:
            patch(monkeypatch)
        code, stdout_text, err = run(capsys, *argv)
        assert (code, err) == (expected_code, expected_err)
        assert stdout_text == json.dumps(json.loads(stdout_text), indent=2) + "\n"
        path = tmp_path / "output.json"
        assert run(capsys, *argv, "--output", str(path)) == (code, "", err)
        assert path.read_bytes() == stdout_text.encode()
        if expected_json is not None:
            assert json.loads(path.read_text()) == expected_json

    def test_unwritable_payload_leaves_the_file_alone(self, capsys, tmp_path):
        # A payload past int's digit limit (see
        # test_integer_past_the_digit_limit_exits_two) fails before the file
        # is opened: a new path is not created, an existing file keeps its
        # bytes.
        argv = ["generate", "--row", "1.2", "--m", "9" * 4299, "--p", "50", "--q", "1"]
        new, existing = tmp_path / "new.json", tmp_path / "existing.json"
        existing.write_text("earlier\n")
        for path in (new, existing):
            code, out, err = run(capsys, *argv, "--output", str(path))
            assert code == 2 and out == ""
            assert err.startswith("error: Exceeds the limit")
        assert not new.exists()
        assert existing.read_text() == "earlier\n"


def write(value):
    parts = []
    _write(value, parts, "")
    return "".join(parts)


# Strings drawn with quotes, backslashes, control characters and non-ASCII
# characters (inside and beyond the BMP) among any others.
JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\U0001d11e') | st.characters())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**200), 2**200) | JSON_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=24,
)


@given(value=JSON_VALUES)
@example(value=[])
@example(value={})
@example(value={"": [[], {}, [[]]], "a": {"b": None}})
@example(value=[True, False, None, 0, -1, 2**200, -(2**200)])
def test_writer_matches_json_dumps(value):
    assert write(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, (1, 2), {1}, {1: 2}, {None: 1}, [[1.0]], {"a": [(0,)]}, {"a": {"b": {2}}}],
    ids=repr,
)
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        write(value)


def test_integer_past_the_digit_limit_exits_two(capsys, tmp_path):
    # m has 4,299 digits, inside int's 4,300-digit string limit, so argparse
    # reads it; the member's entries (m p^2 q + 1 and the like, p = 50) have
    # more, so writing them fails.  The text is built before anything is
    # written: stdout stays empty and --output creates no file.
    argv = ["generate", "--row", "1.2", "--m", "9" * 4299, "--p", "50", "--q", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: Exceeds the limit")
    path = tmp_path / "member.json"
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: Exceeds the limit")
    assert not path.exists()


def past_the_digit_limit_cases():
    # (argv, or None where the CLI cannot pass the integer, the API call,
    # its exception class and message).  Each message holds an integer past
    # int's 4,300-digit string limit, given by its bit length: a = 10^2200
    # prints, but det phi = a^2 has 4,401 digits; the 4,000-digit parameters
    # print, but 1.3's radicand and 1.5's dividend have more.  A 4,401-digit
    # sign or matrix entry cannot pass the CLI's int() or json.loads.
    def bits(n):
        return f"<{n.bit_length()}-bit integer>"

    a = 10**2200
    det_spec = {"phi": [[a, 0], [0, a]], "psi": [[1, 0], [0, 1]]}
    p, q = int("7" * 4000), int("3" * 4000)
    radicand = classification._FAMILIES[RowLabel.R1_3].radicand(p, q)
    divisor, dividend = classification._FAMILIES[RowLabel.R1_5].division(p, q)
    big = 10**4400
    m, _ = hyperbolic_pair_at(big)
    shown = f"[[{bits(big)},{bits(big)}],[{bits(big)},{bits(big)}]]"
    return [
        pytest.param(
            ["check", json.dumps(det_spec)], lambda: BraceSpec.from_dict(det_spec),
            NotUnimodular, f"phi = [[{a},0],[0,{a}]] has determinant {bits(a * a)}",
            id="determinant",
        ),
        pytest.param(
            ["generate", "--row", "1.3", "--p", str(p), "--q", str(q), "--sign1", "1"],
            lambda: generate_row(RowLabel.R1_3, RowParams(p=p, q=q, sign1=1)),
            IntegralityError, f"radicand {bits(radicand)} is not a perfect square",
            id="radicand",
        ),
        pytest.param(
            ["generate", "--row", "1.5", "--m", str(p), "--n", str(q)],
            lambda: generate_row(RowLabel.R1_5, RowParams(m=p, n=q)),
            IntegralityError, f"{bits(dividend)}/{divisor} is not an integer",
            id="division",
        ),
        pytest.param(
            None, lambda: RowParams(sign1=big),
            BadParams, f"sign1 must be +1 or -1, got {bits(big)}",
            id="sign",
        ),
        pytest.param(
            None, lambda: sample_report(BraceSpec(m, m)),
            InvalidSpec,
            f"(phi={shown}, psi={shown}) fails the pair conditions; run check_pair for details",
            id="hyperbolic-spec",
        ),
    ]


@pytest.mark.parametrize("argv, call, error, message", past_the_digit_limit_cases())
def test_integers_past_the_digit_limit_print_as_bit_lengths(capsys, argv, call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert (exc.type, str(exc.value)) == (error, message)
    if argv is not None:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


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

    # A bare ybe after one with every option set reads the defaults again.
    code, _, _ = run(capsys, "ybe", FAMILY_12_INLINE, "--samples", "7", "--seed", "3")
    assert code == 0
    code, out, _ = run(capsys, "ybe", FAMILY_12_INLINE)
    assert code == 0
    report = json.loads(out)
    assert (report["samples"], report["seed"], report["box"]) == (1000, 0, 4)


# Argument lists for each command: every option set, defaults only,
# abbreviated options, "=" forms, options before the positional and -1 as
# an option value.
DISPATCH_ARGVS = [
    ["check", VALID_INLINE],
    ["check", VALID_INLINE, "--output", "out.json"],
    ["check", "--out=out.json", "spec.json"],
    ["classify", FAMILY_12_INLINE],
    ["classify", "--output", "out.json", "spec.json"],
    ["classify", "--o", "out.json", FAMILY_12_INLINE],
    ["generate", "--row", "1.2", "--m", "1", "--p", "1", "--q", "1"],
    ["generate", "--row", "1.1", "--m", "1", "--p", "2", "--q", "3", "--n", "4",
     "--sign1", "-1", "--sign2", "1", "--output", "out.json"],
    ["generate", "--ro", "3.1", "--p", "0", "--q", "5", "--sign1", "-1"],
    ["generate", "--row=1.1", "--sign1=-1", "--sign2", "-1"],
    ["search", "--bound", "2"],
    ["search", "--bound", "-3", "--output", "out.json"],
    ["search", "--b", "2", "--o", "out.json"],
    ["search", "--output", "out.json", "--bou=5"],
    ["ybe", FAMILY_12_INLINE],
    ["ybe", FAMILY_12_INLINE, "--samples", "5", "--seed", "3", "--box", "2",
     "--output", "out.json"],
    ["ybe", FAMILY_12_INLINE, "--sam", "5"],
    ["ybe", "--seed", "-1", "spec.json", "--bo", "7"],
]

# Argument lists that both parse paths refuse with exit 2: missing required
# arguments, values of the wrong type or outside the choices, ambiguous
# prefixes and unknown options.
DISPATCH_ERRORS = [
    ["check"],
    ["classify", "--output"],
    ["generate"],
    ["generate", "--row", "1.1", "--sign1", "2"],
    ["generate", "--row", "1.2", "--m", "x"],
    ["generate", "--row", "1.1", "--sign", "1"],
    ["search"],
    ["search", "--bound", "x"],
    ["search", "--bound"],
    ["ybe", FAMILY_12_INLINE, "--s", "5"],
    ["ybe", FAMILY_12_INLINE, "--samples", "1.5"],
    ["check", VALID_INLINE, "--bogus"],
    ["search", "--bound", "2", "extra"],
]


# Tokens for the direct parser's parity test: every command's exact options,
# their abbreviations, "=" forms (with an empty value among them), values
# argparse reads in different ways, -h, -- and -, and inline specs.
PARITY_OPTIONS = sorted(
    {name for options, *_ in _GRAMMARS.values() for name in options} | {"--bogus", "--help"}
)
PARITY_VALUES = [
    "-1", "-1.5", "-1_0", "-²", "-٣", "7", "1_0", "x", "", "1", "1.1", "out.json",
    "-h", "--", "-", VALID_INLINE, FAMILY_12_INLINE,
]
PARITY_TOKENS = (
    PARITY_OPTIONS
    + [name[:end] for name in PARITY_OPTIONS for end in range(3, len(name))]
    + [f"{name}={value}" for name in PARITY_OPTIONS for value in PARITY_VALUES]
    + PARITY_VALUES
)


def parity_value(action):
    # One of PARITY_VALUES, or as often a value the action takes.
    plain = ["-1", "1", "7"] if action.type is int else ["1.1", "out.json", FAMILY_12_INLINE]
    return st.one_of(st.sampled_from(plain), st.sampled_from(PARITY_VALUES))


@st.composite
def parity_calls(draw):
    # A command, its required arguments and a run of its own options with
    # a value, as two tokens or one "=" token, lone values and any other
    # tokens, in any order; some calls repeat an option.
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    options, positionals, _, required = _GRAMMARS[command]
    pair = st.sampled_from(sorted(options)).flatmap(
        lambda name: st.tuples(st.just(name), parity_value(options[name]))
    )
    chunk = st.one_of(
        pair,
        pair.map(lambda pair: ("=".join(pair),)),
        st.tuples(st.sampled_from(PARITY_TOKENS)),
    )
    chunks = draw(st.lists(chunk, max_size=4))
    for action in (*positionals, *(a for a in options.values() if a.dest in required)):
        names = action.option_strings[:1]
        chunks.insert(draw(st.integers(0, len(chunks))), (*names, draw(parity_value(action))))
    return command, [token for chunk in chunks for token in chunk]


class TestDispatch:
    """main parses a named command with the direct parser, or, for a call
    it returns None on, with that command's own argparse parser.  Each
    parse must agree with the top-level parser's, and main must give the
    same exit code, stdout, stderr and --output bytes with the direct
    parser switched off."""

    def test_every_command_is_dispatched(self):
        assert sorted(_COMMANDS) == sorted(
            ["check", "classify", "generate", "search", "ybe"]
        )
        assert {argv[0] for argv in DISPATCH_ARGVS} == set(_COMMANDS)

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
    def test_parse_agrees_with_the_top_level_parser(self, argv):
        direct = vars(_COMMANDS[argv[0]].parse_args(argv[1:]))
        full = vars(_PARSER.parse_args(argv))
        assert full.pop("command") == argv[0]
        assert direct == full

    @pytest.mark.parametrize("argv", DISPATCH_ERRORS, ids=" ".join)
    def test_errors_agree_with_the_top_level_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as direct:
            _COMMANDS[argv[0]].parse_args(argv[1:])
        direct_err = capsys.readouterr().err
        with pytest.raises(SystemExit) as full:
            _PARSER.parse_args(argv)
        full_err = capsys.readouterr().err
        assert direct.value.code == full.value.code == 2
        assert direct_err.startswith(f"usage: z2brace {argv[0]} ")
        assert f"z2brace {argv[0]}: error: " in direct_err
        if "unrecognized arguments" not in full_err:
            # Only a leftover argument used to be reported by the top-level
            # parser; every other error already came from the command's.
            assert direct_err == full_err

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS + DISPATCH_ERRORS, ids=" ".join)
    def test_main_agrees_without_the_direct_parser(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        Path("spec.json").write_text(FAMILY_12_INLINE)
        output = Path("out.json")

        def outcome():
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            written = output.read_bytes() if output.exists() else None
            output.unlink(missing_ok=True)
            return code, out, err, written

        direct = outcome()
        monkeypatch.setattr(cli, "_parse_direct", lambda grammar, argv: None)
        assert outcome() == direct

    @settings(max_examples=1000)
    @given(parity_calls())
    @example(("generate", ["--row", "1.1", "--sign1", "-٣"]))
    @example(("search", ["--bound", "-1_0"]))
    @example(("check", ["--output=--", VALID_INLINE]))
    @example(("ybe", ["--seed", "-1", FAMILY_12_INLINE, "--seed", "2"]))
    def test_direct_parse_is_argparse_or_none(self, call):
        # Either the direct parser gives up, or argparse returns the same
        # Namespace; whenever argparse exits, the direct parser gives up.
        command, argv = call
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                expected = _COMMANDS[command].parse_args(argv)
            except SystemExit:
                expected = None
        direct = _parse_direct(_GRAMMARS[command], argv)
        assert direct is None or direct == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--b", "2"],
            ["search", "--bound", "2", "--bogus", "1"],
            ["search", "--bound", "2", "--bound", "3"],
            ["check", "-h"],
            ["check", "--", VALID_INLINE],
            ["search", "--bound"],
            ["generate", "--m", "1"],
            ["check", VALID_INLINE, VALID_INLINE],
            ["search", "--bound", "x"],
            ["search", "--bound", "-٣"],
            ["generate", "--row", "1.1", "--sign1", "2"],
        ],
        ids=" ".join,
    )
    def test_other_calls_fall_back_to_argparse(self, argv):
        # An abbreviation, an unknown or repeated option, -h, --, a missing
        # value or required argument, an extra positional, a failed type
        # and a value outside the choices.
        assert _parse_direct(_GRAMMARS[argv[0]], argv[1:]) is None

    def test_command_help_agrees(self, capsys):
        with pytest.raises(SystemExit) as direct:
            main(["check", "-h"])
        direct_out = capsys.readouterr().out
        with pytest.raises(SystemExit) as full:
            _PARSER.parse_args(["check", "-h"])
        full_out = capsys.readouterr().out
        assert direct.value.code == full.value.code == 0
        assert direct_out == full_out
        assert direct_out.startswith("usage: z2brace check [-h] [--output OUTPUT] spec\n")


#: Each command as declared: the help the top-level parser lists it with,
#: each Action of its parser in order as (option_strings, dest, type name,
#: choices, default, required, help), and the name of its func.  Recorded
#: from the parsers as they were declared one add_argument call at a time.
DECLARED = {
    "check": ("validate a pair (exit 0 valid, 1 invalid)", [
        (["-h", "--help"], "help", None, None, "==SUPPRESS==", False,
         "show this help message and exit"),
        ([], "spec", None, None, None, True, "inline JSON or a path to a spec file"),
        (["--output"], "output", None, None, None, False,
         "write JSON to this file instead of stdout"),
    ], "_cmd_check"),
    "classify": ("list the families a pair belongs to", [
        (["-h", "--help"], "help", None, None, "==SUPPRESS==", False,
         "show this help message and exit"),
        ([], "spec", None, None, None, True, "inline JSON or a path to a spec file"),
        (["--output"], "output", None, None, None, False,
         "write JSON to this file instead of stdout"),
    ], "_cmd_classify"),
    "generate": ("construct a family member", [
        (["-h", "--help"], "help", None, None, "==SUPPRESS==", False,
         "show this help message and exit"),
        (["--row"], "row", None, None, None, True, 'family label, e.g. "1.2"'),
        (["--m"], "m", "int", None, None, False, None),
        (["--p"], "p", "int", None, None, False, None),
        (["--q"], "q", "int", None, None, False, None),
        (["--n"], "n", "int", None, None, False, None),
        (["--sign1"], "sign1", "int", (1, -1), None, False, None),
        (["--sign2"], "sign2", "int", (1, -1), None, False, None),
        (["--output"], "output", None, None, None, False,
         "write JSON to this file instead of stdout"),
    ], "_cmd_generate"),
    "search": ("exhaustive cross-validation over a bounded entry box", [
        (["-h", "--help"], "help", None, None, "==SUPPRESS==", False,
         "show this help message and exit"),
        (["--bound"], "bound", "int", None, None, True, "entry box half-width"),
        (["--output"], "output", None, None, None, False,
         "write JSON to this file instead of stdout"),
    ], "_cmd_search"),
    "ybe": ("sampled Yang-Baxter checks for a valid pair", [
        (["-h", "--help"], "help", None, None, "==SUPPRESS==", False,
         "show this help message and exit"),
        ([], "spec", None, None, None, True, "inline JSON or a path to a spec file"),
        (["--samples"], "samples", "int", None, 1000, False, None),
        (["--seed"], "seed", "int", None, 0, False, None),
        (["--box"], "box", "int", None, 4, False,
         "sampling range only: sample coordinates are drawn from [-box, box]; "
         "non-degeneracy is checked as det lambda = +-1"),
        (["--output"], "output", None, None, None, False,
         "write JSON to this file instead of stdout"),
    ], "_cmd_ybe"),
}


def declared_action(action):
    # An Action as DECLARED records it.
    return (
        action.option_strings, action.dest, getattr(action.type, "__name__", None),
        action.choices, action.default, action.required, action.help,
    )


class TestDeclaration:
    """The parsers' declaration, pinned field by field: prog, description,
    each command's help, every Action and func.  Unlike format_help(),
    whose layout differs between Python versions, these fields read the
    same on every supported version."""

    def test_top_level_parser(self):
        assert _PARSER.prog == "z2brace"
        assert _PARSER.description == (
            "Exact construction, validation and classification of "
            "lambda-homomorphic braces on Z^2."
        )
        help_action, sub = _PARSER._actions
        assert declared_action(help_action) == DECLARED["check"][1][0]
        assert (sub.option_strings, sub.dest, sub.required) == ([], "command", True)
        assert sub.choices is _COMMANDS
        assert {choice.dest: choice.help for choice in sub._choices_actions} == {
            name: help_text for name, (help_text, _, _) in DECLARED.items()
        }

    @pytest.mark.parametrize("name", DECLARED)
    def test_command_parser(self, name):
        _, actions, func = DECLARED[name]
        parser = _COMMANDS[name]
        assert (parser.prog, parser.description) == (f"z2brace {name}", None)
        assert [declared_action(action) for action in parser._actions] == actions
        assert parser.get_default("func") is getattr(cli, func)

    @pytest.mark.parametrize("name", DECLARED)
    def test_grammar_is_the_parser_s_actions(self, name):
        # Every Action but -h, as _parse_direct reads it.
        parser = _COMMANDS[name]
        declared = parser._actions[1:]
        options, positionals, defaults, required = _GRAMMARS[name]
        assert options == {flag: a for a in declared for flag in a.option_strings}
        assert positionals == tuple(a for a in declared if not a.option_strings)
        func = parser.get_default("func")
        assert defaults == {**{a.dest: a.default for a in declared}, "func": func}
        assert required == {a.dest for a in declared if a.required}


class TestEntryPoint:
    def test_none_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["z2brace", "classify", VALID_INLINE])
        code = main(None)
        assert code == 0
        assert json.loads(capsys.readouterr().out) == ["1.1", "1.2"]

    def test_no_arguments_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"{TOP_LEVEL_USAGE}\n"
            "z2brace: error: the following arguments are required: command\n"
        )

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        usage, error = capsys.readouterr().err.splitlines()
        assert usage == TOP_LEVEL_USAGE
        # The choices are read without their quotes, which depend on the
        # Python version.
        prefix = "z2brace: error: argument command: invalid choice: 'bogus' (choose from "
        assert error.startswith(prefix) and error.endswith(")")
        choices = error[len(prefix):-1].split(", ")
        assert [c.strip("'") for c in choices] == list(_COMMANDS)

    def test_orders_is_refused_as_an_unknown_command(self, capsys):
        # The order table is checked by the tests alone, so "orders" is a
        # bad command name like any other, not a command that does nothing.
        with pytest.raises(SystemExit) as exc:
            main(["orders", "--bound", "2"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        usage, error = err.splitlines()
        assert usage == TOP_LEVEL_USAGE
        assert error.startswith(
            "z2brace: error: argument command: invalid choice: 'orders' (choose from "
        )

    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{TOP_LEVEL_USAGE}\n\n")
        assert (
            "Exact construction, validation and classification of "
            "lambda-homomorphic braces on Z^2."
        ) in " ".join(out.split())
        for command in _COMMANDS:
            assert f"    {command} " in out

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_command_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: z2brace {command} ")

    # "=" and abbreviated options, a negative value, then a missing value
    # and a value outside the choices.
    EXIT_CODES = [
        (["search", "--bound=2"], 0),
        (["search", "--b", "2"], 0),
        (["generate", "--row", "1.1", "--sign1", "-1", "--sign2", "1"], 0),
        (["search", "--bound"], 2),
        (["generate", "--row", "1.1", "--sign1", "2"], 2),
    ]

    @pytest.mark.parametrize(
        "argv, expected", EXIT_CODES, ids=[" ".join(argv) for argv, _ in EXIT_CODES]
    )
    def test_exit_code(self, capsys, argv, expected):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == expected, capsys.readouterr().err

    def test_module_reads_sys_argv(self):
        # python -m z2brace calls main with no argv, as the console script
        # does, so main reads sys.argv.
        proc = run_process("--help")
        assert proc.returncode == 0, proc.stderr
        for command in _COMMANDS:
            assert re.search(rf"^ +{command} +[a-z]", proc.stdout, re.MULTILINE), command
        proc = run_process()
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"{TOP_LEVEL_USAGE}\n"
            "z2brace: error: the following arguments are required: command\n"
        )


def readme_command_lines():
    # The z2brace lines of the sh block under "## Command line" in
    # README.md, each with the text of the "# ->" comment that follows it
    # ("" if none), continuation lines joined.
    text = (REPO / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    calls = []
    for line in block.splitlines():
        if line.startswith("z2brace "):
            calls.append([line, ""])
        elif line.startswith("# -> ") and calls:
            calls[-1][1] = line[len("# -> "):]
        elif line.startswith("#  ") and calls and calls[-1][1]:
            calls[-1][1] += " " + line[1:].strip()
    return calls


README_CALLS = readme_command_lines()


def test_readme_lists_every_command():
    assert {shlex.split(line)[1] for line, _ in README_CALLS} == set(_COMMANDS)
    assert sum(1 for _, shown in README_CALLS if shown) == 2


@pytest.mark.parametrize("line, shown", README_CALLS, ids=[c[0][:60] for c in README_CALLS])
def test_readme_command_line_runs(capsys, line, shown):
    code, out, err = run(capsys, *shlex.split(line)[1:])
    assert code == 0, err
    if not shown:
        return
    result = json.loads(out)
    if shown.startswith("["):
        assert result == json.loads(shown)
    else:
        # An abridged object: every "key": integer it shows must match.
        pairs = re.findall(r'"(\w+)": (-?\d+)', shown)
        assert pairs
        assert {key: result[key] for key, _ in pairs} == {
            key: int(value) for key, value in pairs
        }


# The benchmark's call shapes.  With the README's lines they must take the
# direct parser, or a change that sent every call to argparse would pass
# every parity test.
BENCHMARK_CALLS = [
    ["check", FAMILY_12_INLINE],
    ["classify", FAMILY_12_INLINE],
    ["generate", "--row", "1.1", "--sign1", "-1", "--sign2", "1"],
    ["search", "--bound", "4"],
    ["search", "--bound=4", "--output=out.json"],
    ["ybe", FAMILY_12_INLINE, "--box", "8", "--samples", "60", "--seed", "3"],
]


@pytest.mark.parametrize(
    "argv",
    [shlex.split(line)[1:] for line, _ in README_CALLS] + BENCHMARK_CALLS,
    ids=lambda argv: " ".join(argv)[:60],
)
def test_common_calls_parse_directly(argv):
    direct = _parse_direct(_GRAMMARS[argv[0]], argv[1:])
    assert direct is not None
    assert direct == _COMMANDS[argv[0]].parse_args(argv[1:])
