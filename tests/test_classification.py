"""Classification layer: family constructors, membership with parameter
recovery, bounded enumeration, and the exhaustive cross-validation.

Golden counts below (N1, N2, V1, V2 and the histograms) were first
computed by independent oracle loops, which the tests re-run, and then
frozen so regressions are caught even if both sides drift together.
"""

import hashlib
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from itertools import chain, islice, product, zip_longest
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from conftest import (
    ROW_FIXTURE_PARAMS,
    ROW_SPECS,
    member_list,
    random_unimodular,
    repeated_powers,
)

import z2brace.classification as classification

from oracles import (
    ROW_BLOCKS,
    block_membership,
    centralizer_finite,
    commutant_in_box,
    enumerate_by_constructor,
    norm_form_partners,
    row12_parameters,
    row_instances_by_record,
)
from z2brace import (
    BadParams,
    BraceSpec,
    GcdError,
    IDENTITY,
    IntegralityError,
    Mat2,
    RowLabel,
    RowParams,
    check_pair,
    commutes,
    enumerate_unimodular,
    exhaustive_search,
    generate_row,
    order_by_predicate,
    orders_crosscheck,
    row_label,
    row_membership,
)
from z2brace.brace import _identities_hold
from z2brace.cli import main

# Frozen after agreement with the oracle loops below.
GOLDEN_UNIMODULAR_COUNTS = {1: 40, 2: 104}
GOLDEN_VALID_PAIRS = {1: 34, 2: 90}
GOLDEN_HISTOGRAM_BOUND1 = {
    "1.1": 4, "1.2": 5, "1.3": 0, "1.4": 0, "1.5": 2, "1.6": 2,
    "2.1": 6, "2.2": 2, "3.1": 6, "3.2": 2, "4.1": 4, "4.2": 2,
}
GOLDEN_HISTOGRAM_BOUND2 = {
    "1.1": 4, "1.2": 13, "1.3": 0, "1.4": 0, "1.5": 2, "1.6": 2,
    "2.1": 14, "2.2": 10, "3.1": 14, "3.2": 10, "4.1": 12, "4.2": 10,
}

#: The pairs the search decides, phi with each of its partners, at the
#: bounds 1 to 20; recorded from the partner rule.
PARTNER_COUNTS = [
    100, 168, 316, 448, 564, 680, 860, 1096, 1244, 1360,
    1476, 1704, 1884, 2000, 2212, 2480, 2596, 2744, 2924, 3152,
]


def row12_pair(m: int, p: int, q: int) -> BraceSpec:
    # The family 1.2 formula, written out here so that large members can
    # be built without generate_row (whose validity assert is unbounded).
    phi = Mat2(1 + m * p * p * q, m * p * q * q, -m * p**3, 1 - m * p * p * q)
    psi = Mat2(1 + m * p * q * q, m * q**3, -m * p * p * q, 1 - m * p * q * q)
    return BraceSpec(phi, psi)


@contextmanager
def deadline(seconds: float):
    # Interrupts a call that runs too long, so a slow path fails instead of
    # hanging the suite.
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def oracle_unimodular_count(bound: int) -> int:
    # Independent of enumerate_unimodular: plain tuple loop.
    entries = range(-bound, bound + 1)
    return sum(
        1
        for a, b, c, d in product(entries, repeat=4)
        if abs(a * d - b * c) == 1
    )


def triple_loop_unimodular(bound):
    # enumerate_unimodular as it was before the product index: scan
    # (a11, a12, a21) and solve a22 from the determinant.
    rng = range(-bound, bound + 1)
    for a11 in rng:
        for a12 in rng:
            for a21 in rng:
                off = a12 * a21
                if a11 == 0:
                    if abs(off) == 1:
                        for a22 in rng:
                            yield Mat2(a11, a12, a21, a22)
                    continue
                for num in (off - 1, off + 1) if a11 > 0 else (off + 1, off - 1):
                    a22, rem = divmod(num, a11)
                    if not rem and -bound <= a22 <= bound:
                        yield Mat2(a11, a12, a21, a22)


def grid_row_instances(bound):
    # The member list as it was before the parameters were solved:
    # every point of a parameter grid goes through the family's build, which
    # takes the plain parameters in the order its record's names list them.  A
    # 1.2 member has |m| max(|p|, |q|)^3 <= bound, and the square root caps
    # the cube root; the box filter drops the extra grid points.
    wide = range(-bound - 1, bound + 2)
    signs = (1, -1)
    cap = math.isqrt(bound + 1)
    grids = {
        RowLabel.R1_1: list(product(signs, signs)),
        RowLabel.R1_2: list(product(wide, range(-cap, cap + 1), range(-cap, cap + 1))),
        RowLabel.R1_5: [(m, n, None) for m, n in product(wide, wide)],
        RowLabel.R1_6: [(m, n, None) for m, n in product(wide, wide)],
        RowLabel.R4_1: [(m, m, p) for m in (0, -1) for p in wide]
        + [(m, n, None) for m, n in product(wide, wide) if m != n],
    }
    box = range(-bound, bound + 1)
    root_grid = list(product(box, box, signs))
    found = set()
    for label in RowLabel:
        for params in grids.get(label, root_grid):
            try:
                phi, psi = classification._FAMILIES[label].build(*params)
            except BadParams:
                continue
            if max(map(abs, phi + psi)) <= bound:
                found.add((label.value, phi, psi))
    return sorted(found)


class Poly:
    """An exact polynomial in any number of variables: a dict from exponent
    tuples to nonzero int coefficients, closed under +, -, * and ** by an
    int, with ints taken as constants.  A key drops its trailing zero
    exponents, so (1, 0, 0) and (1,) are one monomial and keys of any
    length mix."""

    def __init__(self, terms):
        trimmed = {}
        for exponents, c in terms.items():
            exponents = tuple(exponents)
            while exponents and not exponents[-1]:
                exponents = exponents[:-1]
            trimmed[exponents] = trimmed.get(exponents, 0) + c
        self.terms = {exponents: c for exponents, c in trimmed.items() if c}

    @staticmethod
    def variables(count):
        """The first count variables, each of degree 1."""
        return [Poly({(0,) * i + (1,): 1}) for i in range(count)]

    @staticmethod
    def lift(x):
        return x if isinstance(x, Poly) else Poly({(): x})

    def __add__(self, other):
        terms = dict(self.terms)
        for exponents, c in Poly.lift(other).terms.items():
            terms[exponents] = terms.get(exponents, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({exponents: -c for exponents, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly.lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = {}
        for e, c in self.terms.items():
            for f, d in Poly.lift(other).terms.items():
                g = tuple(map(sum, zip_longest(e, f, fillvalue=0)))
                terms[g] = terms.get(g, 0) + c * d
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = Poly.lift(1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        return self.terms == Poly.lift(other).terms


def unipotent_failures(phi, psi):
    """The identities the 1.2 proof needs that fail for the entry 4-tuples
    (phi, psi) of polynomials, by name."""

    def mul(x, y):
        return (
            x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3],
        )

    a = (phi[0] - 1, phi[1], phi[2], phi[3] - 1)
    b = (psi[0] - 1, psi[1], psi[2], psi[3] - 1)
    # The exponent columns (k, l): the columns of A, then those of B.
    columns = [column for x in (a, b) for column in ((x[0], x[2]), (x[1], x[3]))]
    checks = {
        "AA": mul(a, a), "BB": mul(b, b), "AB": mul(a, b), "BA": mul(b, a),
        "det phi": (phi[0] * phi[3] - phi[1] * phi[2] - 1,),
        "det psi": (psi[0] * psi[3] - psi[1] * psi[2] - 1,),
        **{
            f"identity {i}": tuple(k * x + l * y for x, y in zip(a, b))
            for i, (k, l) in enumerate(columns, 1)
        },
    }
    return [name for name, entries in checks.items() if any(e != 0 for e in entries)]


class TestGenerators:
    def test_family_12_unit_parameters(self):
        spec = generate_row(RowLabel.R1_2, RowParams(m=1, p=1, q=1))
        assert spec.phi == Mat2(2, 1, -1, 0)
        assert spec.psi == Mat2(2, 1, -1, 0)

    def test_family_11_signs(self):
        spec = generate_row(RowLabel.R1_1, RowParams(sign1=1, sign2=1))
        assert spec == BraceSpec(IDENTITY, IDENTITY)
        spec = generate_row(RowLabel.R1_1, RowParams(sign1=-1, sign2=1))
        assert spec.phi == -IDENTITY and spec.psi == IDENTITY

    def test_family_41_linear_branch(self):
        spec = generate_row(RowLabel.R4_1, RowParams(m=0, n=0, p=1))
        assert spec.phi == Mat2(1, 2, 0, -1) and spec.psi == spec.phi

    def test_family_31_unit_radicand(self):
        spec = generate_row(RowLabel.R3_1, RowParams(p=0, q=5, sign1=1))
        assert spec.phi == Mat2(1, 0, 5, -1)
        assert spec.psi == IDENTITY
        assert spec.phi.det() == -1 and spec.phi.trace() == 0

    @pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "-O"])
    def test_invalid_constructed_pair_raises_under_optimize(self, optimize):
        # A constructor that returns an invalid pair is a program fault, and
        # generate_row must report it with or without python -O, which strips
        # assert statements.  The build of 1.1's record is replaced by one
        # that returns the commuting invalid pair (shear, E).
        script = "\n".join((
            "import sys",
            "import z2brace.classification as c",
            "c._FAMILIES[c.RowLabel.R1_1].build = lambda s1, s2: ((1, 1, 0, 1), (1, 0, 0, 1))",
            "try:",
            "    c.generate_row(c.RowLabel.R1_1, c.RowParams(sign1=1, sign2=1))",
            "except AssertionError as exc:",
            "    print(sys.flags.optimize, type(exc).__name__, exc)",
        ))
        src = Path(classification.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, *optimize, "-c", script],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            f"{len(optimize)} AssertionError family 1.1 produced invalid pair "
            "(phi=[[1,1],[0,1]], psi=[[1,0],[0,1]])\n"
        )

    def test_gcd_rejected(self):
        with pytest.raises(GcdError):
            generate_row(RowLabel.R1_2, RowParams(m=1, p=2, q=4))
        with pytest.raises(GcdError):
            generate_row(RowLabel.R1_2, RowParams(m=1, p=0, q=0))

    def test_non_square_radicand_rejected(self):
        with pytest.raises(IntegralityError):
            generate_row(RowLabel.R3_1, RowParams(p=1, q=-1, sign1=1))  # radicand 3
        with pytest.raises(IntegralityError):
            generate_row(RowLabel.R1_4, RowParams(p=1, q=1, sign1=1))  # radicand -15

    def test_inexact_division_rejected(self):
        with pytest.raises(IntegralityError):
            generate_row(RowLabel.R1_6, RowParams(m=0, n=1))  # 1/2

    def test_missing_and_excluded_parameters_rejected(self):
        with pytest.raises(BadParams):
            generate_row(RowLabel.R1_2, RowParams(m=1, p=1))
        with pytest.raises(BadParams):
            generate_row(RowLabel.R1_5, RowParams(m=1, n=1))
        with pytest.raises(BadParams):
            generate_row(RowLabel.R1_6, RowParams(m=1, n=-2))
        with pytest.raises(BadParams):
            generate_row(RowLabel.R4_1, RowParams(m=1, n=1, p=0))
        with pytest.raises(BadParams):
            generate_row(RowLabel.R4_1, RowParams(m=0, n=1, p=2))
        # Where the division that fixes h reads h * 0 = c: no member for
        # c != 0 (1.5 at m = n, 1.6 at m + n = -1), even with p set, and p
        # is required for c = 0 (4.1 at m = n in {0, -1}).
        with pytest.raises(BadParams):
            generate_row(RowLabel.R1_5, RowParams(m=2, n=2, p=1))
        with pytest.raises(BadParams):
            generate_row(RowLabel.R1_6, RowParams(m=1, n=-2, p=1))
        with pytest.raises(BadParams):
            generate_row(RowLabel.R4_1, RowParams(m=0, n=0))
        with pytest.raises(BadParams):
            RowParams(sign1=2)

    def test_stray_parameters_rejected(self):
        # Each family rejects every parameter outside its signature, and the
        # message names it.
        for label, params in ROW_FIXTURE_PARAMS.items():
            unset = [name for name in params._fields if getattr(params, name) is None]
            assert unset, label
            for name in unset:
                with pytest.raises(BadParams, match=f"takes no parameter {name}$"):
                    generate_row(label, params._replace(**{name: 1}))

    def test_soundness_over_parameter_grid(self):
        # Every constructible member with |parameters| <= 3 is valid and
        # recognized by its own family predicate.
        grids = {
            RowLabel.R1_1: [RowParams(sign1=s1, sign2=s2) for s1 in (1, -1) for s2 in (1, -1)],
            RowLabel.R1_2: [
                RowParams(m=m, p=p, q=q)
                for m, p, q in product(range(-3, 4), repeat=3)
            ],
            RowLabel.R1_5: [RowParams(m=m, n=n) for m, n in product(range(-3, 4), repeat=2)],
            RowLabel.R1_6: [RowParams(m=m, n=n) for m, n in product(range(-3, 4), repeat=2)],
            RowLabel.R4_1: [
                RowParams(m=m, n=m, p=p) for m in (0, -1) for p in range(-3, 4)
            ]
            + [
                RowParams(m=m, n=n)
                for m, n in product(range(-3, 4), repeat=2)
                if m != n
            ],
        }
        sqrt_grid = [
            RowParams(p=p, q=q, sign1=s)
            for p, q, s in product(range(-3, 4), range(-3, 4), (1, -1))
        ]
        for label in (
            RowLabel.R1_3, RowLabel.R1_4,
            RowLabel.R2_1, RowLabel.R2_2,
            RowLabel.R3_1, RowLabel.R3_2,
            RowLabel.R4_2,
        ):
            grids[label] = sqrt_grid

        constructed = 0
        for label, grid in grids.items():
            for params in grid:
                try:
                    spec = generate_row(label, params)
                except BadParams:
                    continue
                constructed += 1
                assert check_pair(spec).valid, (label, params)
                assert label in row_membership(spec), (label, params, spec)
        assert constructed > 100

    def test_family_12_is_valid_on_all_of_z3(self):
        """Every member of family 1.2 is valid, whatever (m, p, q) in Z^3.

        The constructor's own formula, evaluated on three polynomial
        variables, gives phi and psi with A = phi - E and B = psi - E
        satisfying A^2 = B^2 = AB = BA = 0, det phi = det psi = 1 and
        k A + l B = 0 for each of the four exponent columns (k, l) of A and
        B, as identities of polynomials.  A^2 = 0 gives phi^k = E + k A for
        every integer k, and AB = 0 then phi^k psi^l = E + k A + l B, so
        each of the four power identities reads k A + l B = 0 and holds.
        With 1.1's four pairs and the ten table families' residues mod 6
        (tests/test_table_residues.py), every family member is valid on
        all of Z^2, with no box.
        """
        m, p, q = (Poly({exponents: 1}) for exponents in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        # build calls math.gcd only for its guard (gcd(p, q) = 1).
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classification, "math", types.SimpleNamespace(gcd=lambda *args: 1))
            phi, psi = classification._FAMILIES[RowLabel.R1_2].build(m, p, q)
        assert unipotent_failures(phi, psi) == []
        # Mutation: adding m to psi12 breaks the identities.
        mutated = (psi[0], psi[1] + m, psi[2], psi[3])
        assert unipotent_failures(phi, mutated) == [
            "BB", "AB", "BA", "det psi",
            "identity 1", "identity 2", "identity 3", "identity 4",
        ]

    @staticmethod
    def parabolic_pair(alpha, beta, p, q):
        """(E + alpha N, E + beta N) as entry 4-tuples, N the nilpotent
        ((p q, q^2), (-p^2, -p q))."""
        n = (p * q, q * q, -p * p, -p * q)
        return tuple((1 + x * n[0], x * n[1], x * n[2], 1 + x * n[3]) for x in (alpha, beta))

    def test_parabolic_converse_on_all_of_z4(self):
        """Every valid pair of two (1, 2)-class matrices lies in 1.2.

        A valid pair commutes, and two commuting unimodular matrices of
        trace 2 share the primitive nilpotent N = ((p q, q^2), (-p^2, -p q)),
        gcd(p, q) = 1, of their differences from E, so the pair is
        (E + A, E + B) with A = alpha N and B = beta N.  As identities in
        (alpha, beta, p, q): A^2 = B^2 = AB = BA = 0 and both determinants
        are 1, so phi^k psi^l = E + k A + l B, and at the four exponent
        columns (k, l) of A and B the identity reads (k alpha + l beta) N = 0,
        with k alpha + l beta = alpha p D, alpha q D, beta p D and beta q D
        for D = alpha q - beta p.  N is not 0, so the pair is valid iff
        D = 0; with gcd(p, q) = 1 that is (alpha, beta) = m (p, q), and then
        the pair is 1.2's build(m, p, q), on all of Z^2.
        """
        alpha, beta, p, q, m = Poly.variables(5)
        phi, psi = self.parabolic_pair(alpha, beta, p, q)
        # Everything but the four identities holds.
        assert unipotent_failures(phi, psi) == [f"identity {i}" for i in range(1, 5)]
        n = (p * q, q * q, -p * p, -p * q)
        a, b = ([x - e for x, e in zip(matrix, (1, 0, 0, 1))] for matrix in (phi, psi))
        d = alpha * q - beta * p
        columns = [(a[0], a[2]), (a[1], a[3]), (b[0], b[2]), (b[1], b[3])]
        coefficients = [alpha * p * d, alpha * q * d, beta * p * d, beta * q * d]
        for (k, l), c in zip(columns, coefficients):
            assert k * alpha + l * beta == c
            assert all(k * x + l * y == c * e for x, y, e in zip(a, b, n))
        member = self.parabolic_pair(m * p, m * q, p, q)
        assert unipotent_failures(*member) == []
        # build calls math.gcd only for its guard (gcd(p, q) = 1).
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classification, "math", types.SimpleNamespace(gcd=lambda *args: 1))
            assert classification._FAMILIES[RowLabel.R1_2].build(m, p, q) == member

    def test_parabolic_converse_at_256_bits(self):
        # Seeded (E + alpha N, E + beta N) with coprime (p, q) of up to 256
        # bits: half draw (alpha, beta) = m (p, q), so D = 0, and half draw
        # alpha and beta freely.  check_pair finds the pair valid iff D = 0,
        # and then 1.2 has it among its members.
        rng = random.Random(44)

        def draw():
            return rng.choice((1, -1)) * rng.randint(1, 2**256)

        valid = 0
        for i in range(200):
            p, q = draw(), draw()
            g = math.gcd(p, q)
            p, q = p // g, q // g
            m = draw()
            alpha, beta = (m * p, m * q) if i % 2 else (draw(), draw())
            d = alpha * q - beta * p
            phi, psi = self.parabolic_pair(alpha, beta, p, q)
            spec = BraceSpec(Mat2(*phi), Mat2(*psi))
            assert check_pair(spec).valid == (d == 0), spec
            if d == 0:
                valid += 1
                assert RowLabel.R1_2 in row_membership(spec), spec
        assert valid == 100


class TestMembership:
    def test_identity_pair(self):
        labels = row_membership(BraceSpec(IDENTITY, IDENTITY))
        assert labels == {RowLabel.R1_1, RowLabel.R1_2}

    def test_unit_family_12(self):
        m = Mat2(2, 1, -1, 0)
        assert row_membership(BraceSpec(m, m)) == {RowLabel.R1_2}

    def test_block4_example(self):
        m = Mat2(1, 2, 0, -1)
        assert row_membership(BraceSpec(m, m)) == {RowLabel.R4_1}

    def test_invalid_pair_matches_nothing(self):
        assert row_membership(BraceSpec(Mat2(1, 1, 0, 1), IDENTITY)) == set()

    @pytest.mark.parametrize("label", list(RowLabel), ids=lambda l: l.value)
    def test_fixtures_contain_their_label(self, label):
        assert label in row_membership(ROW_SPECS[label])

    def test_congruence_only_lookalike_rejected(self):
        # Matches the residue pattern of family 1.5 but has infinite order
        # (trace 5), so the trace condition must exclude it.
        m = Mat2(0, -1, 1, 5)
        assert m.det() == 1
        spec = BraceSpec(m, m)
        assert not check_pair(spec).valid
        assert row_membership(spec) == set()

    def test_matches_generated_instances_on_every_pair_at_bound3(self):
        # Independent oracle: the family members that the parameter grid
        # generates in the box (grid_row_instances), not the recoverers
        # that the member list shares with row_membership.  Covers
        # invalid pairs as well as valid ones.
        expected: dict[BraceSpec, set] = {}
        for value, phi, psi in grid_row_instances(3):
            expected.setdefault(BraceSpec(Mat2(*phi), Mat2(*psi)), set()).add(row_label(value))
        box = list(enumerate_unimodular(3))
        assert len(box) ** 2 == 53824
        mismatches = [
            (spec, labels, expected.get(spec, set()))
            for spec in (BraceSpec(phi, psi) for phi in box for psi in box)
            if (labels := row_membership(spec)) != expected.get(spec, set())
        ]
        assert mismatches == []

    def test_256_bit_entries_finish_in_bounded_time(self):
        a = 2**256 + 12345
        hyperbolic = Mat2(a, a + 1, a - 1, a)
        assert hyperbolic.det() == 1
        m = 2**256 + 1
        member = row12_pair(m, 2, -3)
        start = time.perf_counter()
        with deadline(5):
            assert row_membership(BraceSpec(hyperbolic, hyperbolic)) == set()
            assert row12_parameters(BraceSpec(hyperbolic, hyperbolic)) is None
            assert RowLabel.R1_2 in row_membership(member)
            assert row12_parameters(member) == (m, 2, -3)
        assert time.perf_counter() - start < 1.0


class TestRecovery:
    def test_identity_reports_m_zero(self):
        assert row12_parameters(BraceSpec(IDENTITY, IDENTITY)) == (0, 1, 0)

    @pytest.mark.parametrize("m", range(-5, 6))
    def test_unit_family_recovery(self, m):
        a = Mat2(1 + m, m, -m, 1 - m)
        expected = (0, 1, 0) if m == 0 else (m, 1, 1)
        assert row12_parameters(BraceSpec(a, a)) == expected

    def test_lower_triangular_family(self):
        spec = BraceSpec(Mat2(1, 0, 5, 1), IDENTITY)
        assert row12_parameters(spec) == (-5, 1, 0)

    def test_upper_triangular_family(self):
        spec = BraceSpec(IDENTITY, Mat2(1, 7, 0, 1))
        assert row12_parameters(spec) == (7, 0, 1)

    def test_cube_entry_recovery(self):
        spec = generate_row(RowLabel.R1_2, RowParams(m=8, p=1, q=1))
        assert row12_parameters(spec) == (8, 1, 1)

    def test_mixed_signs_canonicalized(self):
        spec = generate_row(RowLabel.R1_2, RowParams(m=-2, p=-1, q=1))
        assert row12_parameters(spec) == (2, 1, -1)

    def test_non_member_is_none(self):
        assert row12_parameters(BraceSpec(Mat2(1, 1, 0, 1), Mat2(1, 1, 0, 1))) is None

    @given(
        m=st.integers(-(2**64), 2**64).filter(bool),
        p=st.integers(-(2**40), 2**40),
        q=st.integers(-(2**40), 2**40),
    )
    def test_large_parameters_recover_canonically(self, m, p, q):
        assume(math.gcd(p, q) == 1)
        canonical = (m, p, q) if p > 0 or (p == 0 and q > 0) else (-m, -p, -q)
        with deadline(1):
            assert row12_parameters(row12_pair(m, p, q)) == canonical

    @given(
        m=st.integers(-(2**128), 2**128).filter(bool),
        p=st.integers(-(2**40), 2**40),
        q=st.integers(-(2**40), 2**40),
    )
    def test_generated_members_round_trip_canonically(self, m, p, q):
        # The gcds of phi - E and psi - E give |m p| and |m q|, with no cube
        # root, at 128-bit m.
        assume(math.gcd(p, q) == 1)
        canonical = (m, p, q) if p > 0 or (p == 0 and q > 0) else (-m, -p, -q)
        spec = generate_row(RowLabel.R1_2, RowParams(m=m, p=p, q=q))
        assert row12_parameters(spec) == canonical


TABLE_LABELS = [
    RowLabel.R1_3, RowLabel.R1_4, RowLabel.R1_5, RowLabel.R1_6, RowLabel.R2_1,
    RowLabel.R2_2, RowLabel.R3_1, RowLabel.R3_2, RowLabel.R4_1, RowLabel.R4_2,
]

#: Exponents of the three shears in level6_conjugate: entries of g up to
#: about 2^65, so the largest parameter of a member reaches 100-130 bits.
SHEAR = st.integers(-(2**19), 2**19)


def table_matrix(label, spec):
    # The family's matrix M: phi, or psi conjugated by the coordinate swap.
    if classification._FAMILIES[label].side == "phi":
        return spec.phi
    psi = spec.psi
    return Mat2(psi.a22, psi.a21, psi.a12, psi.a11)


def level6_conjugate(m, a, b, c):
    # g m g^-1 for g = T^6a L^6b T^6c, with T and L the unit upper and lower
    # shears.  g = E mod 6 keeps every entry of m mod 6, and conjugation
    # keeps det and trace, so a member's M stays the M of a member: every
    # scale and every c of the tables divides 6.
    g = Mat2(1, 6 * a, 0, 1) * Mat2(1, 0, 6 * b, 1) * Mat2(1, 6 * c, 0, 1)
    return g * m * g.inverse()


def table_params(label, m):
    # The parameters that generate the member whose M is m, read off the
    # family's defining form (see _RootFamily and _RationalFamily), each
    # division checked exact.
    row = classification._FAMILIES[label]
    a11, a12, a21, a22 = m.entries()
    if isinstance(row, classification._RootFamily):
        assert a12 % row.p_scale == 0 and a21 % row.q_scale == 0
        sign1 = 1 if a11 > a22 else -1
        return RowParams(p=a12 // row.p_scale, q=a21 // row.q_scale, sign1=sign1)
    n, rest_n = divmod(a12 - row.u - row.e * a11, row.k)
    m_, rest_m = divmod(row.e * a21 - row.v + a11, row.k)
    assert rest_n == 0 and rest_m == 0
    return RowParams(m=m_, n=n, p=None if row.division(m_, n)[0] else a11)


#: The partner beside each table family's M, by the family's definition,
#: through Mat2 operations.
PARTNERS = {
    RowLabel.R1_3: lambda m: IDENTITY,
    RowLabel.R1_4: lambda m: IDENTITY,
    RowLabel.R1_5: lambda m: m,
    RowLabel.R1_6: lambda m: m.inverse(),
    RowLabel.R2_1: lambda m: IDENTITY,
    RowLabel.R2_2: lambda m: -IDENTITY,
    RowLabel.R3_1: lambda m: IDENTITY,
    RowLabel.R3_2: lambda m: -IDENTITY,
    RowLabel.R4_1: lambda m: m,
    RowLabel.R4_2: lambda m: -m,
}


class TestTableRoundTrip:
    # Each table family: a member built by generate_row has M beside the
    # partner the family defines, lists its label in row_membership, and
    # the family's record, reading M's entry tuple or the pair, returns the
    # generating parameters.

    @staticmethod
    def round_trip(label, params, m):
        row = classification._FAMILIES[label]
        plain = tuple(getattr(params, name) for name in row.names + row.optional)
        with deadline(1):
            spec = generate_row(label, params)
            assert table_matrix(label, spec) == m
            partner = spec.psi if row.side == "phi" else spec.phi
            assert partner == PARTNERS[label](m)
            assert label in row_membership(spec)
            assert row.read(m.entries()) == plain
            assert row.recover(*spec) == plain

    @pytest.mark.parametrize("label", TABLE_LABELS, ids=str)
    @given(a=SHEAR, b=SHEAR, c=SHEAR)
    def test_conjugated_members_round_trip(self, label, a, b, c):
        m = level6_conjugate(table_matrix(label, ROW_SPECS[label]), a, b, c)
        self.round_trip(label, table_params(label, m), m)

    @given(m=st.sampled_from((0, -1)), h=st.integers(-(2**128), 2**128))
    def test_free_parameter_branch_of_41_round_trips(self, m, h):
        # 4.1 at m = n in {0, -1}: the division reads h * 0 = 0 and h = p.
        spec = generate_row(RowLabel.R4_1, RowParams(m=m, n=m, p=h))
        assert spec.phi.a11 == h
        self.round_trip(RowLabel.R4_1, RowParams(m=m, n=m, p=h), spec.phi)

    def test_conjugation_reaches_128_bit_parameters(self):
        shear = 2**19
        for label in TABLE_LABELS:
            m = level6_conjugate(table_matrix(label, ROW_SPECS[label]), shear, -shear, shear)
            params = table_params(label, m)
            values = (params.m, params.n, params.p, params.q)
            bits = max(abs(v).bit_length() for v in values if v is not None)
            assert 100 <= bits <= 130, (label, bits)
            self.round_trip(label, params, m)


def signature(spec):
    # ((det phi, tr phi), (det psi, tr psi)), read off the Mat2s.
    return tuple((m.det(), m.trace()) for m in spec)


def large_members(rng, bits):
    # A seeded member of each family with a parameter of at least `bits`
    # bits (1.1 has none): 1.2 with a `bits`-bit m, each table family by a
    # level-6 conjugate of its fixture's M under shears of bits/5 + 2 bits,
    # and 4.1's free-p branch with a `bits`-bit p.
    def sized(k):
        return rng.choice((1, -1)) * (rng.getrandbits(k - 1) | 1 << (k - 1))

    members = [
        (RowLabel.R1_1, generate_row(RowLabel.R1_1, RowParams(sign1=s1, sign2=s2)))
        for s1, s2 in product((1, -1), repeat=2)
    ]
    while True:
        p, q = sized(8), sized(8)
        if math.gcd(p, q) == 1:
            break
    members.append((RowLabel.R1_2, row12_pair(sized(bits), p, q)))
    for label in TABLE_LABELS:
        shears = [sized(bits // 5 + 2) for _ in range(3)]
        m = level6_conjugate(table_matrix(label, ROW_SPECS[label]), *shears)
        params = table_params(label, m)
        values = (params.m, params.n, params.p, params.q)
        assert max(abs(v).bit_length() for v in values if v is not None) >= bits
        members.append((label, generate_row(label, params)))
    n = rng.choice((0, -1))
    members.append((RowLabel.R4_1, generate_row(RowLabel.R4_1, RowParams(m=n, n=n, p=sized(bits)))))
    return members


class TestSignatureLookup:
    # row_membership tries only the families listed under the pair's
    # (det, trace) signature; block_membership (oracles) tries every family
    # of the pair's determinant block, as row_membership did before.

    def test_agrees_with_block_membership_on_every_pair_at_bound3(self):
        box = list(enumerate_unimodular(3))
        mismatches = [
            spec
            for spec in (BraceSpec(phi, psi) for phi in box for psi in box)
            if row_membership(spec) != block_membership(spec)
        ]
        assert len(box) ** 2 == 53824 and mismatches == []

    def test_agrees_with_block_membership_on_every_member_at_bound12(self):
        instances = member_list(12)
        assert len(instances) == 875
        for label, spec in instances:
            labels = row_membership(spec)
            assert label in labels and labels == block_membership(spec), (label, spec)

    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_block_membership_on_large_members(self, bits, seed):
        members = large_members(random.Random(seed), bits)
        assert {label for label, _ in members} == set(RowLabel)
        with deadline(5):
            for label, spec in members:
                labels = row_membership(spec)
                assert label in labels and labels == block_membership(spec), (label, spec)

    @pytest.mark.parametrize("limit", [2**3, 2**8, 2**64])
    def test_agrees_with_block_membership_on_random_pairs(self, limit):
        rng = random.Random(limit)
        for _ in range(1000):
            spec = BraceSpec(random_unimodular(rng, limit), random_unimodular(rng, limit))
            assert row_membership(spec) == block_membership(spec), spec

    def test_every_member_at_bound12_is_under_its_own_signature(self):
        table = classification._SIGNATURE_LABELS
        for label, spec in member_list(12):
            assert label in table[signature(spec)], (label, spec)

    def test_table_is_built_from_the_family_rows(self, monkeypatch):
        # Twelve signatures: 1.1's four +-E pairs, one each for 1.2 and the
        # table families, with 1.2 beside 1.1 at (E, E), 1.6 beside 1.5 and
        # 4.1 beside 4.2.
        table = classification._SIGNATURE_LABELS
        assert len(table) == 12
        assert Counter(label for labels in table.values() for label in labels) == {
            label: 4 if label is RowLabel.R1_1 else 1 for label in RowLabel
        }
        for label in TABLE_LABELS:
            row = classification._FAMILIES[label]
            assert row.signatures() == (signature(ROW_SPECS[label]),), label
        assert set(table[(1, -1), (1, -1)]) == {RowLabel.R1_5, RowLabel.R1_6}
        # A row moved to the other side moves its key.
        moved = classification._FAMILIES[RowLabel.R1_3]._replace(side="phi")
        monkeypatch.setitem(classification._FAMILIES, RowLabel.R1_3, moved)
        rebuilt = classification._signature_labels(classification._FAMILIES.values())
        assert ((1, 2), (1, -1)) not in rebuilt
        assert set(rebuilt[(1, -1), (1, 2)]) == {RowLabel.R1_3, RowLabel.R1_4}

    def test_candidates_tried(self, monkeypatch):
        # A hyperbolic pair tries no family and a 1.5 member only 1.5 and 1.6.
        tried = []
        member_params = classification._member_params

        def recording(label, phi, psi):
            tried.append(label)
            return member_params(label, phi, psi)

        monkeypatch.setattr(classification, "_member_params", recording)
        assert row_membership(BraceSpec(Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 0))) == set()
        assert tried == []
        assert row_membership(ROW_SPECS[RowLabel.R1_5]) == {RowLabel.R1_5}
        assert sorted(tried, key=str) == [RowLabel.R1_5, RowLabel.R1_6]


class TestFamilyRecords:
    # _FAMILIES holds one record per label; the signature table and the
    # order of the member list are read off it.

    def test_one_record_per_label_in_label_order(self):
        # The search's member list and histogram follow this order.
        assert list(classification._FAMILIES) == list(RowLabel)
        assert all(row.label is label for label, row in classification._FAMILIES.items())

    def test_signatures_are_those_of_the_members_at_bound12(self):
        seen = {label: set() for label in RowLabel}
        for label, spec in member_list(12):
            seen[label].add(signature(spec))
        for label, row in classification._FAMILIES.items():
            assert len(set(row.signatures())) == len(row.signatures()), label
            assert set(row.signatures()) == seen[label], label

    def test_row_blocks_are_the_determinant_blocks(self):
        # Every signature of every record has the determinants of the
        # label's block in the oracle table, which reads the paper's
        # numbering and not the records.
        for label, row in classification._FAMILIES.items():
            for (det_phi, _), (det_psi, _) in row.signatures():
                assert (det_phi, det_psi) == ROW_BLOCKS[label], label
        assert ROW_BLOCKS == {
            RowLabel.R1_1: (1, 1),
            RowLabel.R1_2: (1, 1),
            RowLabel.R1_3: (1, 1),
            RowLabel.R1_4: (1, 1),
            RowLabel.R1_5: (1, 1),
            RowLabel.R1_6: (1, 1),
            RowLabel.R2_1: (1, -1),
            RowLabel.R2_2: (1, -1),
            RowLabel.R3_1: (-1, 1),
            RowLabel.R3_2: (-1, 1),
            RowLabel.R4_1: (-1, -1),
            RowLabel.R4_2: (-1, -1),
        }


def listing_digest(listing) -> str:
    # sha256 over the entries of each matrix in turn, as little-endian int64s.
    hashed = hashlib.sha256()
    while chunk := array("q", chain.from_iterable(islice(listing, 1 << 16))):
        if sys.byteorder != "little":
            chunk.byteswap()
        hashed.update(chunk.tobytes())
    return hashed.hexdigest()


class TestEnumeration:
    @pytest.mark.parametrize("bound", range(1, 61))
    def test_matches_the_constructor_listing(self, bound):
        # The streamed listing makes the same matrices, in the same order
        # and of the same type, as the product index with Mat2's own
        # constructor called per matrix.
        listed = list(enumerate_unimodular(bound))
        assert listed == list(enumerate_by_constructor(bound))
        assert all(type(m) is Mat2 for m in listed)

    @pytest.mark.parametrize("bound", [97, 120])
    def test_matches_the_constructor_listing_past_the_grid(self, bound):
        # The table of unit inverses mod |a11| has one non-unit for the
        # prime 97 and 88 of 120 residues for 120 = 2^3 3 5, the most of any
        # modulus up to 120.
        assert list(enumerate_unimodular(bound)) == list(enumerate_by_constructor(bound))

    def test_listing_bytes_pinned_at_bound_400(self):
        # Recorded from enumerate_by_constructor: 3,115,368 matrices.
        assert listing_digest(enumerate_unimodular(400)) == (
            "01d28f8d1f0526c3cd3e41b42fc4c8c48c3f2aa4aa1d3e6b5cb5572b9ef31135"
        )

    def test_listing_bound_400_streams_in_small_memory(self):
        # Listing U_400 in a fresh interpreter holds one a12's hits at a
        # time: a peak RSS of about 16 MiB, where the (a12, a21) product
        # index took about 73 MiB.  On Linux ru_maxrss also counts the
        # forked copy of this test process before the exec, so the child
        # reads its own peak, VmHWM, where /proc has it.  ru_maxrss is in
        # KiB on Linux and in bytes on macOS.
        script = "\n".join((
            "import pathlib, resource, sys",
            "from z2brace import enumerate_unimodular",
            "count = sum(1 for _ in enumerate_unimodular(400))",
            "status = pathlib.Path('/proc/self/status')",
            "if status.exists():",
            "    (line,) = [l for l in status.read_text().splitlines() if l.startswith('VmHWM:')]",
            "    peak = int(line.split()[1])",
            "else:",
            "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
            "    peak //= 1024 if sys.platform == 'darwin' else 1",
            "print(count, peak)",
        ))
        src = Path(classification.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        count, peak_kib = map(int, proc.stdout.split())
        assert count == 3115368
        assert peak_kib < 40 * 1024

    @pytest.mark.parametrize("bound", range(1, 16))
    def test_matches_triple_loop(self, bound):
        assert list(enumerate_unimodular(bound)) == list(triple_loop_unimodular(bound))

    @pytest.mark.parametrize("bound", [1, 2])
    def test_count_matches_oracle_and_golden(self, bound):
        stream = list(enumerate_unimodular(bound))
        assert len(stream) == oracle_unimodular_count(bound)
        assert len(stream) == GOLDEN_UNIMODULAR_COUNTS[bound]

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_matches_filtered_box_scan(self, bound):
        # a22 is solved rather than scanned; the full four-entry scan is the oracle.
        entries = range(-bound, bound + 1)
        expected = [
            Mat2(*entry)
            for entry in product(entries, repeat=4)
            if abs(entry[0] * entry[3] - entry[1] * entry[2]) == 1
        ]
        assert list(enumerate_unimodular(bound)) == expected

    def test_no_duplicates_and_all_unimodular(self):
        stream = list(enumerate_unimodular(2))
        assert len(set(stream)) == len(stream)
        assert all(m.is_unimodular() for m in stream)

    def test_contains_expected_members(self):
        stream = set(enumerate_unimodular(1))
        for member in (IDENTITY, -IDENTITY, Mat2(0, 1, 1, 0), Mat2(1, 1, 0, 1)):
            assert member in stream

    def test_lexicographic_order(self):
        stream = [m.entries() for m in enumerate_unimodular(1)]
        assert stream == sorted(stream)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            list(enumerate_unimodular(0))


#: Every public entry point that takes an entry bound, and the member list
#: the search reads, each run to the end.
BOUND_CALLS = {
    "enumerate_unimodular": lambda bound: list(enumerate_unimodular(bound)),
    "exhaustive_search": exhaustive_search,
    "orders_crosscheck": orders_crosscheck,
    "member_list": member_list,
}


class TestBoundArguments:
    @pytest.mark.parametrize("call", BOUND_CALLS.values(), ids=BOUND_CALLS.keys())
    @pytest.mark.parametrize(
        "value", [True, 2.5, "3", None], ids=["bool", "float", "str", "none"]
    )
    def test_rejects_bounds_that_are_not_plain_integers(self, call, value):
        with pytest.raises(ValueError, match=re.escape(f"bound must be an integer, got {value!r}")):
            call(value)

    @pytest.mark.parametrize("call", BOUND_CALLS.values(), ids=BOUND_CALLS.keys())
    @pytest.mark.parametrize("bound", [0, -3])
    def test_rejects_nonpositive_bounds(self, call, bound):
        with pytest.raises(ValueError, match="bound must be positive"):
            call(bound)


class TestExhaustiveSearch:
    def test_bound1_confirms_classification(self, search_bound1):
        assert search_bound1.unmatched_valid == []
        assert search_bound1.invalid_row_instances == []
        assert search_bound1.confirms_classification
        assert search_bound1.candidates_examined == 40 * 40
        assert search_bound1.valid_pairs == GOLDEN_VALID_PAIRS[1]
        histogram = {
            label.value: search_bound1.row_histogram.get(label, 0)
            for label in RowLabel
        }
        assert histogram == GOLDEN_HISTOGRAM_BOUND1

    def test_bound2_confirms_classification(self, search_bound2):
        assert search_bound2.unmatched_valid == []
        assert search_bound2.invalid_row_instances == []
        assert search_bound2.valid_pairs == GOLDEN_VALID_PAIRS[2]
        histogram = {
            label.value: search_bound2.row_histogram.get(label, 0)
            for label in RowLabel
        }
        assert histogram == GOLDEN_HISTOGRAM_BOUND2

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_matches_brute_force_scan(self, bound, monkeypatch):
        # Oracle: check_pair on every pair of the box, commuting or not.
        box = list(enumerate_unimodular(bound))
        oracle_valid = [
            spec
            for spec in (BraceSpec(phi, psi) for phi in box for psi in box)
            if check_pair(spec).valid
        ]
        histogram = {label.value: 0 for label in RowLabel}
        unmatched = []
        for spec in oracle_valid:
            labels = row_membership(spec)
            for label in labels:
                histogram[label.value] += 1
            if not labels:
                unmatched.append(spec.to_dict())
        expected = {
            "bound": bound,
            "candidates": len(box) ** 2,
            "valid_pairs": len(oracle_valid),
            "row_histogram": histogram,
            "unmatched_valid": unmatched,
            "invalid_row_instances": [
                {"row": label.value, "spec": spec.to_dict()}
                for label, spec in member_list(bound)
                if not check_pair(spec).valid
            ],
        }

        # The search reads every pair's families off its member list and
        # never calls row_membership.
        calls = []

        def recording_membership(spec):
            calls.append(spec)
            return row_membership(spec)

        monkeypatch.setattr(classification, "row_membership", recording_membership)
        report = exhaustive_search(bound).to_dict()
        assert calls == []
        assert report == expected

    @staticmethod
    def all_commutant_report(bound):
        # Oracle without the class restriction or the partner rules: every
        # phi of the box with its whole commutant (the whole box for
        # phi = +-E).
        box = list(enumerate_unimodular(bound))
        histogram = {label.value: 0 for label in RowLabel}
        valid_pairs = 0
        unmatched = []
        for phi in box:
            if phi in (IDENTITY, -IDENTITY):
                partners = box
            else:
                partners = commutant_in_box(phi, bound)
            for psi in partners:
                spec = BraceSpec(phi, psi)
                if not check_pair(spec).valid:
                    continue
                valid_pairs += 1
                labels = row_membership(spec)
                for label in labels:
                    histogram[label.value] += 1
                if not labels:
                    unmatched.append(spec.to_dict())
        return {
            "bound": bound,
            "candidates": len(box) ** 2,
            "valid_pairs": valid_pairs,
            "row_histogram": histogram,
            "unmatched_valid": unmatched,
            "invalid_row_instances": [
                {"row": label.value, "spec": spec.to_dict()}
                for label, spec in member_list(bound)
                if not check_pair(spec).valid
            ],
        }

    def test_matches_all_commutant_scan(self):
        assert exhaustive_search(8).to_dict() == self.all_commutant_report(8)

    def test_matches_all_commutant_scan_at_bound_12(self):
        assert exhaustive_search(12).to_dict() == self.all_commutant_report(12)

    @pytest.mark.parametrize("bound", range(1, 13))
    def test_pair_classes_follow_from_the_kernel_index(self, bound):
        # A matrix is kept iff det(m - E) = 0, or m has finite order dividing
        # the index |det(m - E)| of (m - E)Z^2, as the lemma requires: the
        # (det, trace) rule of the one pass against the lemma's index rule.
        box = list(enumerate_unimodular(bound))
        allowed = []
        for m in box:
            index = abs(m.det() - m.trace() + 1)
            order = str(order_by_predicate(m))
            if index == 0 or (order != "inf" and index % int(order) == 0):
                allowed.append(m)
        classes = classification._pair_classes(bound)
        assert classes.size == len(box)
        assert list(classes.power) == allowed
        assert 0 < len(allowed) < len(box)

    @pytest.mark.parametrize("bound", range(1, 13))
    def test_pair_class_groups_are_the_det_trace_regroup(self, bound):
        # The groups the pass files each in-class matrix into by its key are
        # the in-class list (the power dict's keys) regrouped by m.det(),
        # m.trace(), in its order.
        classes = classification._pair_classes(bound)
        regrouped = {}
        for m in classes.power:
            regrouped.setdefault((m.det(), m.trace()), []).append(m)
        assert classes.groups == regrouped
        assert set(regrouped) == {(1, 2), (-1, 0), (1, -1), (1, -2)}
        assert regrouped[1, -2] == [-IDENTITY]

    @pytest.mark.parametrize("bound", range(1, 21))
    def test_involutions_are_the_in_class_square_roots_of_e(self, bound):
        # The partners of -E, read by entries (det -1, or diagonal), are the
        # in-class m with m m = E, as a product finds them, in list order.
        in_class, partners = self.partner_rule(bound)
        assert partners(-IDENTITY) == [m for m in in_class if m * m == IDENTITY]

    @staticmethod
    def partner_rule(bound):
        # The in-class matrices of the box, in the listing's order, and for
        # each phi the partners the search decides beside it, recorded
        # through _identities_hold as exhaustive_search calls it.
        in_class = list(classification._pair_classes(bound).power)
        decided = {}

        def recording_decider(phi, psi, *rest):
            decided.setdefault(phi, []).append(psi)
            return _identities_hold(phi, psi, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classification, "_identities_hold", recording_decider)
            exhaustive_search(bound)
        return in_class, lambda phi: decided.get(phi, [])

    def test_pairs_with_minus_identity_need_an_involution(self):
        # -E rule: a valid pair that contains -E has an involution beside it.
        valid = 0
        for m in enumerate_unimodular(4):
            for spec in (BraceSpec(-IDENTITY, m), BraceSpec(m, -IDENTITY)):
                if check_pair(spec).valid:
                    valid += 1
                    assert m * m == IDENTITY, spec
        assert valid > 2

    def test_parabolic_phi_has_one_solved_partner(self):
        # Parabolic rule: among the parabolic psi commuting with phi, the
        # pair is valid exactly for the solved one.
        bound = 8
        in_class, partners = self.partner_rule(bound)
        solved = 0
        for phi in in_class:
            if phi == IDENTITY or (phi.det(), phi.trace()) != (1, 2):
                continue
            rule = [psi for psi in partners(phi) if psi != IDENTITY]
            assert len(rule) <= 1
            solved += len(rule)
            for psi in commutant_in_box(phi, bound):
                if psi == IDENTITY or (psi.det(), psi.trace()) != (1, 2):
                    continue
                assert check_pair(BraceSpec(phi, psi)).valid == (psi in rule), (phi, psi)
        assert solved > 0

    @pytest.mark.parametrize("bound", [1, 2, 3, 5, 8, 12, 20])
    def test_finite_order_phi_partners_are_its_in_class_commutant(self, bound):
        # Finite orders: the partners of an order-3 or reflection phi are
        # the in-class part of its commutant, with -E only beside a
        # reflection.  The whole centralizer lies in the box, even at
        # bound 1, so the search's box test drops none of the partners
        # that the bound-free rule gives.
        in_class, partners = self.partner_rule(bound)
        kept = set(in_class)
        seen = Counter()
        for phi in in_class:
            order = order_by_predicate(phi).n
            if phi in (IDENTITY, -IDENTITY) or order not in (2, 3):
                continue
            seen[order] += 1
            commutant = commutant_in_box(phi, bound)
            assert set(commutant) == centralizer_finite(phi), phi
            expected = [
                m
                for m in commutant
                if m in kept and (m != -IDENTITY or phi * phi == IDENTITY)
            ]
            got = partners(phi)
            assert got == expected == classification._search_partners(phi), phi
            assert all(max(map(abs, m.entries())) <= bound for m in got), phi
        assert seen[2] > 0 and seen[3] > 0

    @pytest.mark.parametrize("bound, decided", enumerate(PARTNER_COUNTS, start=1))
    def test_partners_commute_with_phi(self, bound, decided):
        # The search decides no commutation: every partner the rules give is
        # E, -E, +-phi, phi^-1 or E + cA beside phi = E + A, so it commutes
        # with phi.
        in_class, partners = self.partner_rule(bound)
        pairs = [(phi, psi) for phi in in_class for psi in partners(phi)]
        assert len(pairs) == decided
        assert [pair for pair in pairs if not commutes(*pair)] == []

    def test_partners_of_64_bit_conjugates_commute_with_phi(self):
        # The same for g^-1 C g, with g in GL2(Z) of up to 64 bits, for each
        # class representative C: order 3, the two reflection classes, and
        # E + mN with N = [[0, 1], [0, 0]].  g^-1 N g = u v^T with u the first
        # column of g^-1, and phi has a parabolic partner iff u2 divides m,
        # so m is drawn both freely and as a multiple of u2.  The rule reads
        # no box, so every partner on Z^2 is returned.
        rng = random.Random(21)
        counts = Counter()
        for _ in range(200):
            s, t = (rng.randint(-(2**32), 2**32) for _ in range(2))
            g = Mat2(1, s, 0, 1) * Mat2(1, 0, t, 1) * Mat2(1, 0, 0, rng.choice((1, -1)))
            h = g.inverse()
            m = rng.choice((1, -1)) * rng.randint(1, 2**16)
            for kind, c in (
                ("order 3", Mat2(0, -1, 1, -1)),
                ("diag", Mat2(1, 0, 0, -1)),
                ("swap", Mat2(0, 1, 1, 0)),
                ("parabolic", Mat2(1, m, 0, 1)),
                ("parabolic", Mat2(1, m * h.a21, 0, 1)),
            ):
                phi = h * c * g
                partners = classification._search_partners(phi)
                assert all(commutes(phi, psi) for psi in partners), (phi, partners)
                counts[kind, len(partners)] += 1
        assert counts == {
            ("order 3", 3): 200, ("diag", 4): 200, ("swap", 4): 200,
            ("parabolic", 1): 200, ("parabolic", 2): 200,
        }

    def test_wrong_constructor_is_reported(self, monkeypatch, capsys):
        # A constructor that yields an invalid pair must surface in the
        # report and make search exit 1, not raise out of the search.
        shear = BraceSpec(Mat2(1, 1, 0, 1), IDENTITY)
        monkeypatch.setattr(
            classification._FAMILIES[RowLabel.R1_1],
            "build",
            lambda *params: (shear.phi.entries(), shear.psi.entries()),
        )
        report = exhaustive_search(1)
        assert report.invalid_row_instances == [(RowLabel.R1_1, shear)]
        assert not report.confirms_classification
        assert main(["search", "--bound", "1"]) == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "label, fault", [(RowLabel.R1_5, (-1, 0)), (RowLabel.R2_1, (0, 1))], ids=str
    )
    def test_constructor_fault_on_its_own_reading_raises(self, monkeypatch, label, fault):
        # For every in-class M that a table family's read accepts, matrix
        # rebuilds M, so the listing catches nothing: a constructor that
        # fails on parameters its own read produced raises out of the
        # search.  Neither does it drop the member (and 3.1's, which
        # shares 2.1's reading) nor report 1.5's pair as a valid pair
        # outside every family.
        record = classification._FAMILIES[label]

        class Faulty(type(record)):
            __slots__ = ()

            def matrix(self, *params):
                if params[:2] == fault:
                    raise IntegralityError(f"fault at {params}")
                return super().matrix(*params)

        monkeypatch.setitem(classification._FAMILIES, label, Faulty(*record))
        with pytest.raises(IntegralityError, match="fault at"):
            exhaustive_search(3)

    def test_invalid_member_of_two_families_is_checked_once(self, monkeypatch):
        # One invalid pair built under both 1.1 and 1.2 is one key of the
        # member dict: check_pair decides it once, and the report lists it
        # once per family, in label order.
        shear = BraceSpec(Mat2(1, 1, 0, 1), IDENTITY)
        for label in (RowLabel.R1_2, RowLabel.R1_1):
            monkeypatch.setattr(
                classification._FAMILIES[label],
                "build",
                lambda *params: (shear.phi.entries(), shear.psi.entries()),
            )
        checked = []

        def counting_check_pair(spec):
            checked.append(spec)
            return check_pair(spec)

        monkeypatch.setattr(classification, "check_pair", counting_check_pair)
        report = exhaustive_search(1)
        assert report.invalid_row_instances == [
            (RowLabel.R1_1, shear), (RowLabel.R1_2, shear)
        ]
        assert checked == [shear]
        assert not report.confirms_classification

    @pytest.mark.parametrize(
        "drops",
        [
            lambda phi, psi: psi != IDENTITY and psi.trace() == 2,
            lambda phi, psi: psi == -phi,
        ],
        ids=["parabolic partner", "minus phi"],
    )
    def test_valid_member_the_rules_drop_raises(self, monkeypatch, drops):
        # A partner rule that drops the parabolic partner, or -phi beside
        # each reflection, leaves valid family members undecided.  Were
        # they only checked for invalidity, the search would report 214 or
        # 200 valid pairs at bound 4, not 226, and still confirm the
        # classification; a valid member left over raises instead, naming
        # a pair the rule dropped.
        rule = classification._search_partners
        dropped = set()

        def dropping_rule(phi):
            partners = rule(phi)
            dropped.update((phi, psi) for psi in partners if drops(phi, psi))
            return [psi for psi in partners if not drops(phi, psi)]

        monkeypatch.setattr(classification, "_search_partners", dropping_rule)
        with pytest.raises(AssertionError, match="never decided the valid member") as caught:
            exhaustive_search(4)
        named = [pair for pair in dropped if str(BraceSpec(*pair)) in str(caught.value)]
        assert len(named) == 1 and check_pair(BraceSpec(*named[0])).valid

    @pytest.mark.parametrize(
        "bound, valid_pairs", [(6, 354), (10, 650), (20, 1554)]
    )
    def test_larger_boxes_confirm_classification(self, bound, valid_pairs):
        report = exhaustive_search(bound)
        assert report.confirms_classification
        assert report.valid_pairs == valid_pairs

    def test_identity_pair_is_among_valid(self):
        assert check_pair(BraceSpec(IDENTITY, IDENTITY)).valid

    def test_block_consistency(self, search_bound1):
        # Every valid pair's determinant signs equal the block of each
        # family it matches.
        for phi in enumerate_unimodular(1):
            for psi in enumerate_unimodular(1):
                spec = BraceSpec(phi, psi)
                if not check_pair(spec).valid:
                    continue
                for label in row_membership(spec):
                    assert ROW_BLOCKS[label] == (phi.det(), psi.det())

    @pytest.mark.parametrize("bound", [*range(1, 13), 20, 30])
    def test_solved_instances_match_the_parameter_grid(self, bound):
        solved = [
            (label.value, spec.phi.entries(), spec.psi.entries())
            for label, spec in member_list(bound)
        ]
        assert solved == grid_row_instances(bound)

    @pytest.mark.parametrize(
        "bound, members, digest",
        [
            (100, 10339, "aad361ce5af2410233f182617243507da06a6397652e85a2e8ab8621f106297e"),
            (400, 50803, "35744c57826382a568bb02a4f258bb61cdb5aecb18702e3e18468846975fcac6"),
        ],
    )
    def test_member_list_bytes_pinned(self, bound, members, digest):
        # sha256 over each member's label and entries, past the B <= 30 the
        # grid oracle reaches.  Recorded from the member list that rebuilt
        # each member as a BraceSpec.
        instances = member_list(bound)
        hashed = hashlib.sha256()
        for label, spec in instances:
            hashed.update(f"{label.value} {spec.phi.entries()} {spec.psi.entries()}\n".encode())
        assert (len(instances), hashed.hexdigest()) == (members, digest)

    @pytest.mark.parametrize("bound", [*range(4, 13), 20])
    def test_member_list_join_equals_row_membership(self, bound):
        # The labels a valid pair has in the member list are exactly
        # row_membership of the pair, for every valid pair the forward scan
        # finds, and the report's histogram counts them.
        joined: dict[BraceSpec, set] = {}
        for label, spec in member_list(bound):
            joined.setdefault(spec, set()).add(label)
        in_class, partners = self.partner_rule(bound)
        histogram = Counter()
        valid = 0
        for phi in in_class:
            for psi in partners(phi):
                spec = BraceSpec(phi, psi)
                if not check_pair(spec).valid:
                    continue
                valid += 1
                labels = row_membership(spec)
                assert labels
                assert joined.get(spec, set()) == labels, spec
                histogram.update(labels)
        report = exhaustive_search(bound)
        assert report.valid_pairs == valid
        assert report.row_histogram == dict(histogram)
        assert report.unmatched_valid == []

    def test_member_missing_from_the_list_is_unmatched(self, monkeypatch, capsys):
        # A member list that lacks a family member fails the search loudly:
        # the valid pair is reported unmatched and search exits 1.
        dropped = generate_row(RowLabel.R1_2, RowParams(m=1, p=1, q=1))
        assert row_membership(dropped) == {RowLabel.R1_2}
        full = member_list(4)
        assert (RowLabel.R1_2, dropped) in full
        histogram = exhaustive_search(4).row_histogram
        row_instances = classification._row_instances
        dropped_entries = (dropped.phi.entries(), dropped.psi.entries())

        def without_member(bound, groups):
            members = row_instances(bound, groups)
            assert members.pop(dropped_entries) == [list(RowLabel).index(RowLabel.R1_2)]
            return members

        monkeypatch.setattr(classification, "_row_instances", without_member)
        report = exhaustive_search(4)
        assert report.unmatched_valid == [dropped]
        assert report.invalid_row_instances == []
        assert report.row_histogram == {
            **histogram, RowLabel.R1_2: histogram[RowLabel.R1_2] - 1
        }
        assert not report.confirms_classification
        assert main(["search", "--bound", "4"]) == 1
        assert capsys.readouterr().err == ""

    def test_search_lists_the_box_once(self, monkeypatch):
        # The member list is read off the in-class matrices the forward scan
        # already holds, so the search draws U_2 from enumerate_unimodular
        # once: a second listing of the box would draw 208 matrices.
        drawn = []

        def counting_enumerate(bound):
            for m in enumerate_unimodular(bound):
                drawn.append(m)
                yield m

        monkeypatch.setattr(classification, "enumerate_unimodular", counting_enumerate)
        assert exhaustive_search(2).confirms_classification
        assert len(drawn) == GOLDEN_UNIMODULAR_COUNTS[2] == 104

    def test_search_holds_little_beyond_the_pass_and_the_member_dict(self):
        # The forward scan decides, joins and counts each valid pair where
        # it finds it, so the search's peak memory at B = 100 is that of the
        # pass's box and the member dict held together, within 5%: a list
        # of the 10,338 valid pairs would add about 17%.  Both peaks measure
        # the same structures in one interpreter, so the ratio does not
        # shift across Python versions as an absolute bound would.
        def traced_peak(build):
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def pass_and_members():
            box = classification._pair_classes(100)
            return box, classification._row_instances(100, box.groups)

        exhaustive_search(2)  # warm-up
        held = traced_peak(pass_and_members)
        searched = traced_peak(lambda: exhaustive_search(100))
        assert searched <= 1.05 * held, (searched, held)

    @pytest.mark.parametrize("bound", [*range(1, 31), 100])
    def test_member_dict_equals_the_per_record_build(self, bound):
        # The table families that share a reading rebuild each M once; the
        # dict, keys and position lists, is the one that building every
        # parameter set record by record gives.
        groups = classification._pair_classes(bound).groups
        members = classification._row_instances(bound, groups)
        assert members == row_instances_by_record(bound, groups)
        # The lemma the listing rests on, with no box check or BadParams
        # catch for a table member: each in-class M that read accepts is
        # rebuilt exactly by matrix.
        for label in TABLE_LABELS:
            row = classification._FAMILIES[label]
            for m in groups.get((row.det, row.trace), ()):
                params = row.read(m)
                if params is not None:
                    assert row.matrix(*params) == m, (label, m)

    @pytest.mark.parametrize("bound", [*range(1, 31), 100])
    def test_no_record_lists_a_member_twice(self, bound):
        # _row_instances appends a record's position to each pair it lists
        # with no check for a repeat, which rests on this.
        groups = classification._pair_classes(bound).groups
        readings = {}
        for label, family in classification._FAMILIES.items():
            members = list(family.members(bound, groups, readings))
            assert len(set(members)) == len(members), label

    @pytest.mark.parametrize("bound", range(1, 21))
    def test_power_maps_from_the_pass_keys(self, bound):
        # The map the pass builds from the (det, trace) key it read, the
        # one the search decides with, is Mat2.power_map's, and both are
        # the repeated products.
        k_max = 13
        box = classification._pair_classes(bound)
        for group in box.groups.values():
            for m in group:
                from_key, own = box.power[m], m.power_map()
                powers = repeated_powers(m, k_max)
                for k in range(-k_max, k_max + 1):
                    assert from_key(k) == own(k) == powers[k].entries(), (m, k)

    def test_search_reads_no_shape(self, monkeypatch):
        # exhaustive_search(4) builds one power map for each of its 102
        # in-class matrices from the pass's keys, and reads no Mat2._shape.
        built, shapes = [], []
        power_map, shape = classification._power_map, Mat2._shape

        def counting_power_map(m, det, trace):
            built.append(m)
            return power_map(m, det, trace)

        def counting_shape(m):
            shapes.append(m)
            return shape(m)

        monkeypatch.setattr(classification, "_power_map", counting_power_map)
        monkeypatch.setattr(Mat2, "_shape", counting_shape)
        assert exhaustive_search(4).confirms_classification
        assert len(built) == len(set(built)) == 102
        assert shapes == []

    @pytest.mark.parametrize("bound", range(1, 21))
    def test_member_list_rests_on_in_class_matrices_closed_under_swap(self, bound):
        # The two facts the completeness of _row_instances rests on: every
        # family member of the grid oracle has both matrices in class, and
        # the in-class matrices of the box are closed under conjugation by
        # the coordinate swap, which the psi-side families read.
        in_class = {m.entries() for m in classification._pair_classes(bound).power}
        for value, phi, psi in grid_row_instances(bound):
            assert phi in in_class and psi in in_class, (value, phi, psi)
        assert {(d, c, b, a) for a, b, c, d in in_class} == in_class

    def test_reverse_direction_reuses_forward_verdicts(self, monkeypatch):
        # 448 pairs at bound 4 pass the partner rules, and the forward scan
        # decides each of them once through _identities_hold; the 227
        # family members in the box are all among the valid ones, so none
        # reaches check_pair in the reverse direction.
        decided, checked = [], []

        def counting_decider(phi, psi, *rest):
            decided.append((phi, psi))
            return _identities_hold(phi, psi, *rest)

        def counting_check_pair(spec):
            checked.append(spec)
            return check_pair(spec)

        monkeypatch.setattr(classification, "_identities_hold", counting_decider)
        monkeypatch.setattr(classification, "check_pair", counting_check_pair)
        report = exhaustive_search(4)
        assert report.confirms_classification
        assert len(member_list(4)) == 227
        assert len(decided) == len(set(decided)) == 448
        assert checked == []

    def test_search_decider_matches_check_pair_on_every_search_pair(self):
        # The forward scan's call, power maps built once per in-class matrix
        # and no hyperbolic rule, against check_pair's verdict on every pair
        # the search decides at each bound up to 40.
        pairs = {}
        for bound in range(1, 41):
            in_class, partners = self.partner_rule(bound)
            for phi in in_class:
                for psi in partners(phi):
                    pairs[phi.entries(), psi.entries()] = (phi, psi)
        assert len(pairs) == 7384
        # in_class is now the bound-40 list, which holds every smaller box's.
        power = {m.entries(): m.power_map() for m in in_class}
        for (p, q), (phi, psi) in pairs.items():
            commuting = commutes(phi, psi)
            decided = commuting and _identities_hold(p, q, power[p], power[q])
            assert decided == check_pair(BraceSpec(phi, psi)).valid, (phi, psi)

    def test_no_in_class_matrix_is_hyperbolic(self):
        # The search decides its pairs with _identities_hold, which has no
        # hyperbolic rule; at bound 40 the in-class matrices of every
        # smaller box are among these.
        in_class, _ = self.partner_rule(40)
        assert len(in_class) > 1000
        assert not any(m.is_hyperbolic() for m in in_class)

    def test_generated_instances_fit_and_are_valid(self):
        instances = member_list(2)
        assert instances
        for label, spec in instances:
            entries = spec.phi.entries() + spec.psi.entries()
            assert max(abs(e) for e in entries) <= 2
            assert check_pair(spec).valid

    def test_report_json_shape(self, search_bound1):
        payload = search_bound1.to_dict()
        assert list(payload) == [
            "bound",
            "candidates",
            "valid_pairs",
            "row_histogram",
            "unmatched_valid",
            "invalid_row_instances",
        ]
        assert list(payload["row_histogram"]) == [label.value for label in RowLabel]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            exhaustive_search(0)


#: The 8 signed permutation matrices g, which preserve every entry box.
SIGNED_PERMUTATIONS = [
    *(Mat2(e1, 0, 0, e2) for e1 in (1, -1) for e2 in (1, -1)),
    *(Mat2(0, e2, e1, 0) for e1 in (1, -1) for e2 in (1, -1)),
]

#: The labels the transport by the swap [[0, 1], [1, 0]] exchanges, and
#: those the transport by diag(1, -1) exchanges; pinned from the transports.
SWAP_EXCHANGES = {"1.3": "1.4", "2.1": "3.1", "2.2": "3.2"}
REFLECTION_EXCHANGES = {"1.5": "1.6"}


def transport(g, phi, psi):
    # The pair of the brace carried along the additive automorphism g:
    # phi' = g^-1 phi^g11 psi^g21 g and psi' = g^-1 phi^g12 psi^g22 g.
    g11, g12, g21, g22 = g
    h = g.inverse()
    return h * phi**g11 * psi**g21 * g, h * phi**g12 * psi**g22 * g


def shear_product(rng):
    # A seeded g in GL2(Z) far past every box: two shears with parameters
    # up to 2^64 and a signed permutation, so g has entries of about 128
    # bits.
    s, t = (rng.randint(-(2**64), 2**64) for _ in range(2))
    return Mat2(1, s, 0, 1) * Mat2(1, 0, t, 1) * rng.choice(SIGNED_PERMUTATIONS)


def label_permutation(g):
    # g = P diag(e1, e2) with P the identity or the swap.  The transport
    # exchanges the swap's labels when P is the swap, and diag(1, -1)'s when
    # e1 != e2, that is when the two nonzero entries of g differ in sign.
    exchanges = {}
    if g.a12:
        exchanges.update(SWAP_EXCHANGES)
    if sum(g) == 0:
        exchanges.update(REFLECTION_EXCHANGES)
    both_ways = {**exchanges, **{b: a for a, b in exchanges.items()}}
    return {label: row_label(both_ways.get(label.value, label.value)) for label in RowLabel}


#: (bound, valid pairs, orbits under the 8 transports) at every bound up
#: to 40; recorded bound by bound from each box's own partner rule and
#: check_pair.
BOX_ORBITS = [
    (1, 34, 15), (2, 90, 29), (3, 122, 36), (4, 226, 62), (5, 250, 68),
    (6, 354, 94), (7, 394, 102), (8, 522, 133), (9, 546, 139), (10, 650, 165),
    (11, 674, 171), (12, 874, 221), (13, 914, 229), (14, 1018, 255),
    (15, 1058, 265), (16, 1186, 296), (17, 1210, 302), (18, 1314, 328),
    (19, 1354, 336), (20, 1554, 386), (21, 1610, 398), (22, 1714, 424),
    (23, 1738, 430), (24, 1978, 489), (25, 2002, 495), (26, 2106, 521),
    (27, 2146, 529), (28, 2346, 579), (29, 2370, 585), (30, 2570, 635),
    (31, 2610, 643), (32, 2738, 674), (33, 2778, 684), (34, 2882, 710),
    (35, 2922, 720), (36, 3122, 770), (37, 3162, 778), (38, 3266, 804),
    (39, 3322, 816), (40, 3562, 875),
]


@pytest.fixture(scope="module")
def transported_pairs():
    # The valid pairs of the largest box of BOX_ORBITS, from the partner
    # rule and check_pair, each with its families and its images under
    # SIGNED_PERMUTATIONS in order.
    in_class, partners = TestExhaustiveSearch.partner_rule(BOX_ORBITS[-1][0])
    valid = [
        (phi, psi)
        for phi in in_class
        for psi in partners(phi)
        if check_pair(BraceSpec(phi, psi)).valid
    ]
    return {
        pair: (
            row_membership(BraceSpec(*pair)),
            [transport(g, *pair) for g in SIGNED_PERMUTATIONS],
        )
        for pair in valid
    }


class TestBoxSymmetries:
    """The signed permutation matrices g preserve the entry box, and so do
    the pairs they transport: the transport conjugates by g and takes
    phi^+-1 or psi^+-1, and an inverse has the |entries| of its matrix.  So
    each box's valid pairs, and its family members, are closed under the 8
    transports, which permute the family labels."""

    @pytest.mark.parametrize("bound, pairs, orbits", BOX_ORBITS)
    def test_valid_pairs_closed_under_signed_permutations(
        self, transported_pairs, bound, pairs, orbits
    ):
        # The valid pairs of a box are those of the bound-40 box with no
        # larger entry, and a transport keeps the largest |entry|, so one
        # pass at bound 40 serves every smaller box.
        valid = {
            pair for pair in transported_pairs if max(abs(e) for m in pair for e in m) <= bound
        }
        assert len(valid) == pairs == exhaustive_search(bound).valid_pairs
        relabel = {g: label_permutation(g) for g in SIGNED_PERMUTATIONS}
        orbit_sets = set()
        for pair in valid:
            labels, images = transported_pairs[pair]
            for g, image in zip(SIGNED_PERMUTATIONS, images):
                assert image in valid, (g, pair)
                assert transported_pairs[image][0] == {
                    relabel[g][label] for label in labels
                }, (g, pair)
            orbit_sets.add(frozenset(images))
        assert len(orbit_sets) == orbits

    @pytest.mark.parametrize("bound, members", [(4, 227), (8, 523), (12, 875)])
    def test_members_closed_under_signed_permutations(self, bound, members):
        # Each transport of an in-box member is an in-box member of the
        # family its label maps to.
        listed = set(member_list(bound))
        assert len(listed) == members
        relabel = {g: label_permutation(g) for g in SIGNED_PERMUTATIONS}
        for label, (phi, psi) in listed:
            for g in SIGNED_PERMUTATIONS:
                image = BraceSpec(*transport(g, phi, psi))
                assert (relabel[g][label], image) in listed, (g, label, phi, psi)


@pytest.mark.parametrize("phi", [
    IDENTITY,
    -IDENTITY,
    Mat2(0, -1, 1, 0),  # order 4
    Mat2(1, -1, 1, 0),  # order 6
    Mat2(2, 1, 1, 1),  # hyperbolic
    Mat2(2, 1, 1, 0),  # det -1, trace 2
], ids=str)
def test_partner_rule_refuses_phi_outside_the_non_scalar_classes(phi):
    with pytest.raises(ValueError, match="no partner rule"):
        classification._search_partners(phi)


def test_partner_rule_takes_a_diagonal_reflection():
    # diag(-1, 1) has a12 = a21 = 0 but is not scalar.
    phi = Mat2(-1, 0, 0, 1)
    assert classification._search_partners(phi) == sorted((IDENTITY, -IDENTITY, phi, -phi))


class TestNormFormPartners:
    """_search_partners against norm_form_partners, which solves each
    non-scalar phi's partners on all of Z^2 from the norm form of its
    centralizer Z E + Z N, with no box and no reading of the rule."""

    @staticmethod
    def check_rule(phi):
        # The norm-form candidates that check_pair finds valid are the valid
        # partners of the rule.  A finite-order phi's partners are the norm
        # form's whole list; a parabolic phi's valid ones are the norm
        # form's line roots, which solve the four identities in full.
        partners = classification._search_partners(phi)
        candidates = norm_form_partners(phi)
        valid = [psi for psi in partners if check_pair(BraceSpec(phi, psi)).valid]
        assert [psi for psi in candidates if check_pair(BraceSpec(phi, psi)).valid] == valid, phi
        assert candidates == (valid if phi.trace() == 2 else partners), phi
        return partners, valid

    @pytest.mark.parametrize("bound", range(1, 21))
    def test_rule_is_the_norm_form_in_the_box(self, bound):
        # Every non-scalar in-class phi of the box; and the search decides
        # exactly the rule's partners that fit in the box, since those are
        # the ones with a power map in the pass's dict.
        in_class, decided = TestExhaustiveSearch.partner_rule(bound)
        traces = Counter()
        for phi in in_class:
            if phi in (IDENTITY, -IDENTITY):
                continue
            partners, _ = self.check_rule(phi)
            in_box = [psi for psi in partners if max(map(abs, psi)) <= bound]
            assert decided(phi) == in_box, phi
            traces[phi.trace()] += 1
        assert set(traces) == {2, -1, 0}

    def test_rule_is_the_norm_form_on_256_bit_conjugates(self):
        # g^-1 C g with g = shear_product, so phi has entries of about 256
        # bits, for each class representative C: order 3, the two
        # reflection classes, and E + m e12 with |m| up to 2^64.  Such a
        # phi is E + m u v^T, u the first column of g^-1, and has a
        # parabolic partner iff u2 divides m, so m is drawn both freely
        # and as a multiple of u2.
        rng = random.Random(29)
        counts = Counter()
        bits = 0
        for _ in range(100):
            g = shear_product(rng)
            h = g.inverse()
            u2 = h.a21
            free = rng.choice((1, -1)) * rng.randint(1, 2**64)
            multiple = rng.choice((1, -1)) * u2 * rng.randint(1, 2**64 // abs(u2))
            for kind, c in (
                ("order 3", Mat2(0, -1, 1, -1)),
                ("diag", Mat2(1, 0, 0, -1)),
                ("swap", Mat2(0, 1, 1, 0)),
                ("parabolic", Mat2(1, free, 0, 1)),
                ("parabolic", Mat2(1, multiple, 0, 1)),
            ):
                phi = h * c * g
                bits = max(bits, *(e.bit_length() for e in phi))
                partners, valid = self.check_rule(phi)
                counts[kind, len(partners), len(valid)] += 1
        assert bits > 250
        assert counts == NORM_FORM_COUNTS


#: (class, partners, valid partners) of the 500 conjugates of
#: test_rule_is_the_norm_form_on_256_bit_conjugates, with how many of
#: them have it; recorded.
NORM_FORM_COUNTS = {
    ("order 3", 3, 0): 20, ("order 3", 3, 1): 80, ("diag", 4, 4): 100,
    ("swap", 4, 0): 36, ("swap", 4, 1): 64,
    ("parabolic", 1, 0): 46, ("parabolic", 2, 1): 154,
}


class TestTransport:
    """A brace isomorphism of Z^2 is additive, so it is some g in GL2(Z),
    and it carries a commuting pair to transport(g, phi, psi).  So the
    valid pairs and the twelve families are unions of GL2(Z)-orbits.  The
    g here are shear_product's, far past the signed permutations of
    TestBoxSymmetries.  Every pair has no hyperbolic member, and neither
    has its image, so every power costs O(1) (Mat2.power_map)."""

    def test_valid_pairs_transport_to_family_members(self):
        # Each of the 226 valid pairs of the bound-4 box, by three g each:
        # the image is valid, row_membership names a family for it, and
        # g^-1 transports it back.  The images reach every family and
        # entries of over 250 bits.
        rng = random.Random(8)
        in_class, partners = TestExhaustiveSearch.partner_rule(4)
        valid = [
            (phi, psi)
            for phi in in_class
            for psi in partners(phi)
            if check_pair(BraceSpec(phi, psi)).valid
        ]
        assert len(valid) == 226
        reached, bits = set(), 0
        for pair in valid:
            for _ in range(3):
                g = shear_product(rng)
                image = transport(g, *pair)
                spec = BraceSpec(*image)
                labels = row_membership(spec)
                assert check_pair(spec).valid, (g, pair)
                assert labels, (g, pair)
                assert transport(g.inverse(), *image) == pair, (g, pair)
                reached |= labels
                bits = max(bits, *(e.bit_length() for m in image for e in m))
        assert reached == set(RowLabel) and bits > 250

    def test_commuting_invalid_pairs_stay_invalid(self):
        # Every commuting pair of the bound-2 box with no hyperbolic member
        # that check_pair rejects: its image commutes, is rejected too, and
        # g^-1 transports it back.
        rng = random.Random(9)
        box = [m for m in enumerate_unimodular(2) if not m.is_hyperbolic()]
        invalid = [
            (phi, psi)
            for phi in box
            for psi in box
            if commutes(phi, psi) and not check_pair(BraceSpec(phi, psi)).valid
        ]
        assert len(invalid) == INVALID_COMMUTING_PAIRS
        for pair in invalid:
            g = shear_product(rng)
            image = transport(g, *pair)
            assert commutes(*image), (g, pair)
            assert not check_pair(BraceSpec(*image)).valid, (g, pair)
            assert transport(g.inverse(), *image) == pair, (g, pair)


#: The commuting pairs of the bound-2 box with no hyperbolic member that
#: check_pair rejects; recorded.
INVALID_COMMUTING_PAIRS = 414


class TestOrdersCrosscheck:
    def test_bound1_clean_and_all_orders_seen(self):
        assert orders_crosscheck(1) == []
        seen = {str(order_by_predicate(m)) for m in enumerate_unimodular(1)}
        assert seen == {"1", "2", "3", "4", "6", "inf"}

    def test_bound3_clean(self):
        assert orders_crosscheck(3) == []


class TestLabels:
    def test_lookup(self):
        assert row_label("1.2") is RowLabel.R1_2
        with pytest.raises(BadParams):
            row_label("5.1")

    @pytest.mark.parametrize(
        "value, message",
        [
            ("9.9", "unknown family label '9.9'"),
            ("1", "unknown family label '1'"),
            ("", "unknown family label ''"),
        ],
    )
    def test_unknown_label_message(self, value, message):
        with pytest.raises(BadParams) as info:
            row_label(value)
        assert type(info.value) is BadParams and str(info.value) == message

    def test_fixture_params_cover_every_family(self):
        assert set(ROW_FIXTURE_PARAMS) == set(RowLabel)
