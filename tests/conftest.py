"""Shared fixtures: one generated pair per classification family, the
holomorph-closure reading of the pair conditions used as a test oracle, plus
session-scoped search reports so the expensive sweeps run once.
"""

import pytest

from oracles import h_lambda_closed
from z2brace import (
    BraceSpec,
    IDENTITY,
    RowLabel,
    RowParams,
    Vec2,
    exhaustive_search,
    generate_row,
)

# Smallest parameter tuples per family that give something other than a
# pair of scaled identities (and a non-diagonal matrix where the family
# has one this small).
ROW_FIXTURE_PARAMS = {
    RowLabel.R1_1: RowParams(sign1=-1, sign2=-1),
    RowLabel.R1_2: RowParams(m=1, p=1, q=1),
    RowLabel.R1_3: RowParams(p=1, q=-1, sign1=1),
    RowLabel.R1_4: RowParams(p=1, q=-1, sign1=1),
    RowLabel.R1_5: RowParams(m=0, n=1),
    RowLabel.R1_6: RowParams(m=0, n=0),
    RowLabel.R2_1: RowParams(p=0, q=1, sign1=1),
    RowLabel.R2_2: RowParams(p=1, q=0, sign1=1),
    RowLabel.R3_1: RowParams(p=0, q=1, sign1=1),
    RowLabel.R3_2: RowParams(p=1, q=0, sign1=1),
    RowLabel.R4_1: RowParams(m=0, n=0, p=1),
    RowLabel.R4_2: RowParams(p=1, q=0, sign1=1),
}

ROW_SPECS = {
    label: generate_row(label, params) for label, params in ROW_FIXTURE_PARAMS.items()
}

TRIVIAL_SPEC = BraceSpec(IDENTITY, IDENTITY)

#: The trivial pair plus one representative per family.
ALL_FIXTURE_SPECS = [TRIVIAL_SPEC, *ROW_SPECS.values()]


def repeated_powers(a, k_max):
    """a^k for |k| <= k_max by one multiplication per step, never through
    Mat2.power_map or Mat2.__pow__; negative k only when a has an integer
    inverse."""
    powers = {0: IDENTITY}
    steps = [(1, a)]
    if a.is_unimodular():
        steps.append((-1, a.inverse()))
    for sign, factor in steps:
        power = IDENTITY
        for k in range(1, k_max + 1):
            power = power * factor
            powers[sign * k] = power
    return powers


def holomorph_reading(spec):
    """The four pair conditions read as closure of {(a, lambda_a)} in the
    holomorph at the generator pairs (e1,e1), (e1,e2), (e2,e1), (e2,e2).

    Closure at (a, b) means lambda_(a*b) = lambda_a lambda_b.  When phi and
    psi commute, lambda is additive, so this says lambda_a(b) - b lies in
    the kernel of lambda: a column of phi - E or psi - E, in the order of
    Verdict.power_identities.
    """
    e1, e2 = Vec2(1, 0), Vec2(0, 1)
    return tuple(h_lambda_closed(spec, a, b) for a in (e1, e2) for b in (e1, e2))


@pytest.fixture(scope="session")
def search_bound1():
    return exhaustive_search(1)


@pytest.fixture(scope="session")
def search_bound2():
    return exhaustive_search(2)
