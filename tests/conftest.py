"""Shared fixtures: one generated pair per classification family, the
holomorph-closure reading of the pair conditions used as a test oracle, plus
session-scoped search reports so the expensive sweeps run once.
"""

import math

import pytest

from oracles import Vec2, h_lambda_closed
from z2brace import classification
from z2brace import (
    BraceSpec,
    IDENTITY,
    Mat2,
    RowLabel,
    RowParams,
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

#: One member of each family, in the order of the ybe-families benchmark
#: workload, as the JSON the CLI reads.
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


#: One member of each family, and 4.1's free-p branch, with parameters of
#: 64 bits and more (1.1 takes only signs), as (label, params, spec): the
#: one list of such members the tests read.  1.2's lambda is affine; every
#: other one is a table.
MEMBERS_64_BIT = [
    (label, params, generate_row(label, params))
    for label, params in (
        (RowLabel.R1_3, RowParams(p=1, q=-55340232234013556737, sign1=1)),
        (RowLabel.R1_4, RowParams(p=-55340232234013556737, q=1, sign1=-1)),
        (RowLabel.R2_1, RowParams(p=2**64, q=-(2**63) - 1, sign1=1)),
        (RowLabel.R2_2, RowParams(p=2**63, q=-(2**63) - 1, sign1=-1)),
        (RowLabel.R3_1, RowParams(p=-(2**63) - 1, q=2**64, sign1=-1)),
        (RowLabel.R3_2, RowParams(p=-(2**63) - 1, q=2**63, sign1=1)),
        (RowLabel.R4_2, RowParams(p=2**63, q=-(2**63) - 1, sign1=1)),
        (RowLabel.R1_5, RowParams(m=2**64, n=2**64 + 1)),
        (RowLabel.R1_6, RowParams(m=2**64, n=-(2**64))),
        (RowLabel.R4_1, RowParams(m=2**64, n=2**64 + 1)),
        (RowLabel.R4_1, RowParams(m=-1, n=-1, p=2**64)),
        (RowLabel.R1_2, RowParams(m=2**64, p=3, q=-7)),
        (RowLabel.R1_1, RowParams(sign1=-1, sign2=1)),
    )
]


def member_list(bound):
    """Every family member whose entries all fit in [-bound, bound], as
    (label, BraceSpec), sorted by label and then by pair: the member dict
    the search reads, listed."""
    groups = classification._pair_classes(bound).groups
    return classification._labelled(classification._row_instances(bound, groups).items())


def order_by_shape(m):
    """The order gl2z._SHAPES gives m, as Mat2._shape reads it: the period
    of a degree-0 shape, or None for degree 1 or no shape."""
    shape = m._shape()
    return shape[0] if shape is not None and not shape[1] else None


def repeated_powers(a, k_max):
    """a^k for |k| <= k_max by one multiplication per step, never through
    Mat2.power_map or Mat2.__pow__; negative k only when a has an integer
    inverse."""
    powers = {0: IDENTITY}
    steps = [(1, a)]
    if a.det() in (1, -1):
        steps.append((-1, a.inverse()))
    for sign, factor in steps:
        power = IDENTITY
        for k in range(1, k_max + 1):
            power = power * factor
            powers[sign * k] = power
    return powers


def hyperbolic_pair_at(a):
    """Two hyperbolic matrices of trace 2a, for a > 1; m and n do not
    commute."""
    return Mat2(a, a + 1, a - 1, a), Mat2(a, a - 1, a + 1, a)


def hyperbolic_pair(bits):
    """hyperbolic_pair_at(a) with a = 2^(bits-1) + 7, about 2^(bits-1)."""
    return hyperbolic_pair_at((1 << (bits - 1)) + 7)


def random_unimodular(rng, limit):
    """A unimodular matrix with entries in [-limit, limit]: a coprime first
    row (a, b) completed by the extended Euclid cofactors, whose sizes
    stay below |a| and |b|; half of them get determinant -1."""
    while True:
        a, b = rng.randint(-limit, limit), rng.randint(-limit, limit)
        if math.gcd(a, b) == 1:
            break
    s0, s1, t0, t1, x, y = 1, 0, 0, 1, a, b
    while y:
        k = x // y
        x, y, s0, s1, t0, t1 = y, x - k * y, s1, s0 - k * s1, t1, t0 - k * t1
    # a s0 + b t0 = x = +-1, so ((a, b), (-x t0, x s0)) has determinant 1.
    c, d = -x * t0, x * s0
    return Mat2(a, b, -c, -d) if rng.random() < 0.5 else Mat2(a, b, c, d)


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
