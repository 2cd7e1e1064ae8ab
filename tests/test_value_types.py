"""Value types: Mat2, BraceSpec, Verdict, RowParams and SearchReport, and
the reference Vec2 of tests/oracles.py, are NamedTuples.  They keep the
reprs, hashes and error messages the frozen dataclasses they replaced had,
the tuple operators that mean nothing for a matrix or a vector still raise
TypeError, and importing the CLI loads neither dataclasses nor inspect.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import z2brace
from oracles import Vec2
from z2brace import (
    IDENTITY,
    BadParams,
    BraceSpec,
    Mat2,
    NotUnimodular,
    RowParams,
    check_pair,
    exhaustive_search,
)

M = Mat2(1, 2, 3, 4)
V = Vec2(1, 2)

MEANINGLESS = {
    "m + m": lambda: M + M,
    "k * m": lambda: 3 * M,
    "m * k": lambda: M * 3,
    "v * k": lambda: V * 3,
    "k * v": lambda: 3 * V,
    "tuple + m": lambda: (1, 2) + M,
    "tuple + v": lambda: (1, 2) + V,
    "m + tuple": lambda: M + (1, 2),
    "v + tuple": lambda: V + (1, 2),
}


@pytest.mark.parametrize("name", MEANINGLESS)
def test_tuple_operators_raise(name):
    with pytest.raises(TypeError):
        MEANINGLESS[name]()


def test_the_arithmetic_that_is_defined_still_works():
    assert M * IDENTITY == M
    assert -M == Mat2(-1, -2, -3, -4)
    assert V + V == Vec2(2, 4)
    assert V - V == Vec2(0, 0)
    assert -V == Vec2(-1, -2)


@pytest.mark.parametrize("entries", [(1, 2, 3, 4), (0, -1, 1, 0), (2**70, -3, 5, -(2**65))])
def test_matrix_hashes_and_equals_its_entry_tuple(entries):
    m = Mat2(*entries)
    assert hash(m) == hash(entries)
    assert m == entries
    assert m.entries() == entries and type(m.entries()) is tuple
    assert hash(Vec2(1, 2)) == hash((1, 2))


def test_reprs_and_strings_unchanged():
    # Recorded from the dataclass types these replaced.
    identity_pair = BraceSpec(IDENTITY, IDENTITY)
    assert repr(M) == "Mat2(a11=1, a12=2, a21=3, a22=4)"
    assert str(M) == "[[1,2],[3,4]]"
    assert repr(V) == "Vec2(x1=1, x2=2)"
    assert str(V) == "(1,2)"
    assert repr(identity_pair) == (
        "BraceSpec(phi=Mat2(a11=1, a12=0, a21=0, a22=1), "
        "psi=Mat2(a11=1, a12=0, a21=0, a22=1))"
    )
    assert str(identity_pair) == "(phi=[[1,0],[0,1]], psi=[[1,0],[0,1]])"
    assert repr(check_pair(identity_pair)) == (
        "Verdict(valid=True, commuting=True, power_identities=(True, True, True, True))"
    )
    assert repr(RowParams(m=1)) == (
        "RowParams(m=1, p=None, q=None, n=None, sign1=None, sign2=None)"
    )
    assert repr(exhaustive_search(1)).startswith(
        "SearchReport(bound=1, candidates_examined=1600, valid_pairs=34, "
        "unmatched_valid=[], invalid_row_instances=[], row_histogram={"
    )


# id: (build, error, message).
VALIDATION = {
    "spec-phi": (lambda: BraceSpec(Mat2(1, 1, 1, 1), IDENTITY), NotUnimodular,
                 "phi = [[1,1],[1,1]] has determinant 0"),
    "spec-psi": (lambda: BraceSpec(IDENTITY, Mat2(2, 0, 0, 1)), NotUnimodular,
                 "psi = [[2,0],[0,1]] has determinant 2"),
    "params-sign1": (lambda: RowParams(sign1=2), BadParams, "sign1 must be +1 or -1, got 2"),
    "params-sign2": (lambda: RowParams(sign2=0), BadParams, "sign2 must be +1 or -1, got 0"),
    # _replace builds a new value, which must pass the same checks.
    "spec-replace": (lambda: BraceSpec(IDENTITY, IDENTITY)._replace(psi=Mat2(2, 0, 0, 1)),
                     NotUnimodular, "psi = [[2,0],[0,1]] has determinant 2"),
    "params-replace": (lambda: RowParams(sign1=1)._replace(sign1=2), BadParams,
                       "sign1 must be +1 or -1, got 2"),
    # The JSON readers build through the same constructors.
    "rows-entry": (lambda: Mat2.from_rows([[1, 0], [0, True]]), ValueError,
                   "matrix entries must be integers, got [[1, 0], [0, True]]"),
    "rows-shape": (lambda: Mat2.from_rows([[1, 0, 0], [0, 1]]), ValueError,
                   "expected a 2x2 nested list, got [[1, 0, 0], [0, 1]]"),
    "dict-keys": (lambda: BraceSpec.from_dict({"phi": [[1, 0], [0, 1]]}), ValueError,
                  'expected an object with exactly the keys "phi" and "psi", '
                  "got {'phi': [[1, 0], [0, 1]]}"),
}


@pytest.mark.parametrize("build, error, message", VALIDATION.values(), ids=VALIDATION.keys())
def test_validating_constructors_keep_their_messages(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message


@pytest.mark.parametrize("value", [True, 1.0, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("field", RowParams._fields)
def test_row_params_fields_are_plain_integers(field, value):
    # As in Mat2.from_rows, a bool is no integer here; _replace checks too.
    message = f"{field} must be an integer, got {value!r}"
    for build in (
        lambda: RowParams(**{field: value}),
        lambda: RowParams()._replace(**{field: value}),
    ):
        with pytest.raises(BadParams) as raised:
            build()
        assert str(raised.value) == message


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter, with -S so that no site hook loads modules of its
    # own: importing the CLI must not pull in dataclasses or inspect.
    src = Path(z2brace.__file__).resolve().parent.parent
    result = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, z2brace.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
