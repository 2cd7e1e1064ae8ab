"""The package's public surface: the names of the four layers' __all__,
each listed once, the README's example of them, and the test references
kept out of the package."""

import ast
import doctest
from pathlib import Path

import z2brace
from z2brace import brace, classification, gl2z, ybe

REPO = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BadParams",
    "BraceSpec",
    "GcdError",
    "IDENTITY",
    "IntegralityError",
    "InvalidSpec",
    "Mat2",
    "NotUnimodular",
    "RowLabel",
    "RowParams",
    "SearchReport",
    "Verdict",
    "check_pair",
    "commutes",
    "enumerate_unimodular",
    "exhaustive_search",
    "generate_row",
    "row_label",
    "row_membership",
    "sample_report",
]

# Test-only reference paths; they live in tests/oracles.py.
ORACLES = [
    "HolElement",
    "ROW_BLOCKS",
    "Vec2",
    "ZERO",
    "act",
    "centralizer_finite",
    "commutant_in_box",
    "h_lambda_closed",
    "hol_mul",
    "identities_hold",
    "in_lambda_kernel",
    "involutive_at",
    "lambda_map",
    "lambda_of",
    "nondegenerate_at",
    "odot",
    "odot_associative",
    "odot_inverse",
    "order_by_iteration",
    "r_map",
    "row12_parameters",
    "ybe_holds",
]


def test_public_names_are_pinned():
    assert sorted(z2brace.__all__) == PUBLIC


def test_each_name_is_listed_by_exactly_one_layer():
    layers = [*gl2z.__all__, *brace.__all__, *ybe.__all__, *classification.__all__]
    assert sorted(layers) == PUBLIC
    for layer in (gl2z, brace, ybe, classification):
        for name in layer.__all__:
            assert getattr(z2brace, name) is getattr(layer, name), name


def test_oracles_are_not_in_the_package():
    for name in ORACLES:
        assert not hasattr(z2brace, name), name
        for layer in (gl2z, brace, ybe, classification):
            assert not hasattr(layer, name), (layer.__name__, name)


def test_readme_python_example_runs():
    # The README's Python API example, run as a doctest.
    failed, attempted = doctest.testfile(str(REPO / "README.md"), module_relative=False)
    assert attempted > 0 and failed == 0


def test_nothing_under_src_imports_the_test_references():
    # tests/oracles.py holds the reference paths the tests check the
    # package against.  They stay independent of it only if the package
    # never imports them, and an installed package has no tests/.  Any
    # import under src/ whose dotted name has a part "tests" or "oracles"
    # fails.
    bad = []
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(part in ("tests", "oracles") for name in names for part in name.split(".")):
                bad.append(f"{path}:{node.lineno}: {ast.unparse(node)}")
    assert bad == []
