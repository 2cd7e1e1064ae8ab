"""The package's public surface: the names of the four layers' __all__,
each listed once."""

import z2brace
from z2brace import brace, classification, gl2z, ybe

PUBLIC = [
    "BadParams",
    "BraceSpec",
    "FINITE_ORDERS",
    "GcdError",
    "IDENTITY",
    "IntegralityError",
    "InvalidSpec",
    "Mat2",
    "MatOrder",
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
    "order_by_iteration",
    "order_by_predicate",
    "orders_crosscheck",
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
    "in_lambda_kernel",
    "involutive_at",
    "lambda_map",
    "lambda_of",
    "nondegenerate_at",
    "odot",
    "odot_associative",
    "odot_inverse",
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
