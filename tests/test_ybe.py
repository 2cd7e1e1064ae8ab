"""Yang-Baxter layer: the map built from a valid pair, braid relation,
involutivity, non-degeneracy, and the seeded sampling report.

oracles.r_map(spec) is the closed form (lambda_x(y), lambda_y^-1(x)) on
four integers, read off oracles.lambda_map; definitional_r below
recomputes r from the brace multiplication and its inverse, as an
independent oracle for it.  The braid, involutivity and non-degeneracy
checks at one point are oracles.ybe_holds, involutive_at and
nondegenerate_at, run on that r and on lambda_map.  sample_report, the
one r in the package, writes those checks out inline, one kernel per form
of lambda; randint_sample_report below is the loop it replaced, and the
tests hold the two to the same failures on any injected form.
"""

import random
import re
import runpy
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import product
from math import comb, lcm
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import z2brace.brace as brace
import z2brace.ybe as ybe

from conftest import (
    ALL_FIXTURE_SPECS,
    MEMBERS_64_BIT,
    ROW_SPECS,
    TRIVIAL_SPEC,
    YBE_MEMBERS,
)

from oracles import (
    Vec2,
    act,
    involutive_at,
    lambda_map,
    lambda_of,
    nondegenerate_at,
    odot,
    odot_inverse,
    r_map,
    r_of_lambda,
    ybe_holds,
)
from z2brace import (
    BraceSpec,
    IDENTITY,
    InvalidSpec,
    Mat2,
    RowLabel,
    check_pair,
    commutes,
    enumerate_unimodular,
    sample_report,
)
from z2brace.brace import _LambdaAffine, _LambdaTable, _lambda_form

SPEC_12 = BraceSpec(Mat2(2, 1, -1, 0), Mat2(2, 1, -1, 0))
SPEC_BAD = BraceSpec(Mat2(1, 1, 0, 1), IDENTITY)
#: Invalid pairs: one that does not commute, the commuting SPEC_BAD, and a
#: commuting hyperbolic pair.
INVALID_SPECS = [
    BraceSpec(Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1)),
    SPEC_BAD,
    BraceSpec(Mat2(2, 1, 1, 1), Mat2(2, 1, 1, 1)),
]

#: The twelve benchmark members and the fixture pairs.
MEMBER_AND_FIXTURE_SPECS = [
    *(BraceSpec.from_dict(member) for member in YBE_MEMBERS),
    *ALL_FIXTURE_SPECS,
]

vectors = st.builds(Vec2, st.integers(-4, 4), st.integers(-4, 4))
valid_specs = st.sampled_from(ALL_FIXTURE_SPECS)
coordinates_64_bit = st.integers(-(2**63), 2**63)


def big_vectors(limit):
    return st.builds(Vec2, st.integers(-limit, limit), st.integers(-limit, limit))


def definitional_r(spec, x, y):
    """r(x, y) = (-x + x*y, (-x + x*y)^-1 * x * y) in the brace
    multiplication, as the 4-tuple r_map's r returns."""
    xy = odot(spec, x, y)
    first = -x + xy
    return (*first, *odot(spec, odot_inverse(spec, first), xy))


def randint_sample_report(lam, samples, seed, box):
    """The sampling loop ybe ran before r took four integers: coordinates
    from rng.randint, r on nested (x, y) tuples through a matrix-vector
    helper.  Returns the three failure lists, sorted as the report sorts
    them."""

    def act_(m, v):
        a11, a12, a21, a22 = m
        v1, v2 = v
        return (a11 * v1 + a12 * v2, a21 * v1 + a22 * v2)

    def r_(x, y):
        return act_(lam(*x), y), act_(lam(-y[0], -y[1]), x)

    def braid(x, y, z):
        a, b = r_(x, y)
        b, c = r_(b, z)
        left = (*r_(a, b), c)
        b, c = r_(y, z)
        a, b = r_(x, b)
        right = (a, *r_(b, c))
        return left == right

    def nondegenerate(x, y):
        a11, a12, a21, a22 = lam(*x)
        b11, b12, b21, b22 = lam(*y)
        return abs(a11 * a22 - a12 * a21) == 1 == abs(b11 * b22 - b12 * b21)

    rng = random.Random(seed)

    def draw():
        return (rng.randint(-box, box), rng.randint(-box, box))

    ybe_failures, involutivity_failures, nondegeneracy_failures = [], [], []
    for _ in range(samples):
        x, y, z = draw(), draw(), draw()
        if not braid(x, y, z):
            ybe_failures.append([list(x), list(y), list(z)])
        if r_(*r_(x, y)) != (x, y):
            involutivity_failures.append([list(x), list(y)])
        if not nondegenerate(x, y):
            nondegeneracy_failures.append([list(x), list(y)])
    return {
        "ybe_failures": sorted(ybe_failures),
        "involutivity_failures": sorted(involutivity_failures),
        "nondegeneracy_failures": sorted(nondegeneracy_failures),
    }


FAILURE_KEYS = ("ybe_failures", "involutivity_failures", "nondegeneracy_failures")


def failure_lists(report):
    return {key: report[key] for key in FAILURE_KEYS}


def valid_specs_in_box(bound):
    box = list(enumerate_unimodular(bound))
    commuting = (BraceSpec(phi, psi) for phi in box for psi in box if commutes(phi, psi))
    return [spec for spec in commuting if check_pair(spec).valid]


class TestRMap:
    @given(x=vectors, y=vectors)
    def test_trivial_spec_gives_the_flip(self, x, y):
        assert r_map(TRIVIAL_SPEC)(*x, *y) == (*y, *x)

    def test_fixed_point(self):
        assert r_map(SPEC_12)(1, 0, 0, 1) == (1, 0, 0, 1)

    def test_hand_computed_image(self):
        assert r_map(SPEC_12)(0, 1, 1, 0) == (2, -1, -1, 2)

    @given(spec=valid_specs, x=vectors, y=vectors)
    def test_first_component_is_lambda_image(self, spec, x, y):
        assert r_map(spec)(*x, *y)[:2] == act(lambda_of(spec, x), y)

    def test_rejects_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            r_map(SPEC_BAD)

    @given(x=vectors)
    def test_trivial_diagonal_is_fixed(self, x):
        assert r_map(TRIVIAL_SPEC)(*x, *x) == (*x, *x)


class TestInvalidSpec:
    """_lambda_form decides validity, and the oracle lambda_map and every
    solution built from the form refuse an invalid pair."""

    def test_one_class_in_both_layers(self):
        assert ybe.InvalidSpec is brace.InvalidSpec is InvalidSpec

    @pytest.mark.parametrize("spec", INVALID_SPECS, ids=str)
    def test_lambda_map_r_map_and_sample_report_refuse(self, spec):
        assert not check_pair(spec).valid
        with pytest.raises(InvalidSpec):
            lambda_map(spec)
        with pytest.raises(InvalidSpec):
            r_map(spec)
        with pytest.raises(InvalidSpec):
            sample_report(spec, samples=5)
        # The spec is refused before the other arguments are read.
        with pytest.raises(InvalidSpec):
            sample_report(spec, samples=True, box=0)


class TestAgreementWithDefinition:
    def test_every_valid_pair_at_bound_3_on_a_grid(self):
        specs = valid_specs_in_box(3)
        grid = [Vec2(a, b) for a in range(-2, 3) for b in range(-2, 3)]
        mismatches = []
        for spec in specs:
            r = r_map(spec)
            mismatches += [
                (spec, x, y)
                for x in grid
                for y in grid
                if r(*x, *y) != definitional_r(spec, x, y)
            ]
        assert len(specs) == 122
        assert mismatches == []

    @given(spec=valid_specs, x=big_vectors(10**6), y=big_vectors(10**6))
    def test_fixture_families_at_large_coordinates(self, spec, x, y):
        assert r_map(spec)(*x, *y) == definitional_r(spec, x, y)


def braid_holds(r, x, y, z):
    return ybe_holds(r, r(*x, *y), *x, *y, *z)


def involutive(r, x, y):
    return involutive_at(r, r(*x, *y), *x, *y)


def nondegenerate(spec, x, y):
    return nondegenerate_at(lambda_map(spec), *x, *y)


class TestBraidRelation:
    @given(x=vectors, y=vectors, z=vectors)
    def test_flip_satisfies_it(self, x, y, z):
        assert braid_holds(r_map(TRIVIAL_SPEC), x, y, z)

    @given(spec=valid_specs, x=vectors, y=vectors, z=vectors)
    def test_valid_specs_satisfy_it(self, spec, x, y, z):
        assert braid_holds(r_map(spec), x, y, z)

    def test_zero_triple(self):
        zero = Vec2(0, 0)
        assert braid_holds(r_map(SPEC_12), zero, zero, zero)

    def test_rejects_invalid_spec(self):
        # The braid check runs on r_map's r, which an invalid pair never gets.
        zero = Vec2(0, 0)
        with pytest.raises(InvalidSpec):
            braid_holds(r_map(SPEC_BAD), zero, zero, zero)


class TestInvolutivity:
    def test_hand_computed_round_trip(self):
        r = r_map(SPEC_12)
        once = r(0, 1, 1, 0)
        assert once == (2, -1, -1, 2)
        assert r(*once) == (0, 1, 1, 0)
        assert involutive_at(r, once, 0, 1, 1, 0)

    @given(spec=valid_specs, x=vectors, y=vectors)
    def test_valid_specs_involutive(self, spec, x, y):
        assert involutive(r_map(spec), x, y)

    @given(x=vectors, y=vectors)
    def test_block4_family_involutive(self, x, y):
        assert involutive(r_map(ROW_SPECS[RowLabel.R4_1]), x, y)


class TestNondegeneracy:
    @given(x=vectors, y=vectors)
    def test_flip(self, x, y):
        assert nondegenerate(TRIVIAL_SPEC, x, y)

    @given(spec=valid_specs, x=vectors, y=vectors)
    def test_valid_specs(self, spec, x, y):
        assert nondegenerate(spec, x, y)

    @given(x=vectors, y=vectors)
    def test_larger_family_12_member(self, x, y):
        from z2brace import RowParams, generate_row

        spec = generate_row(RowLabel.R1_2, RowParams(m=2, p=1, q=1))
        assert nondegenerate(spec, x, y)

    def test_determinant_two_is_degenerate_even_at_the_origin(self):
        # lambda_x = diag(2, 1) is injective but not onto Z^2.  At x = y = 0
        # both preimages are 0 and round-trip through r, so only the
        # determinant shows the failure.
        def det_two_at_origin(x1, x2):
            return (2, 0, 0, 1) if (x1, x2) == (0, 0) else (1, 0, 0, 1)

        for lam in (lambda x1, x2: (2, 0, 0, 1), det_two_at_origin):
            assert not nondegenerate_at(lam, 0, 0, 0, 0)
            assert not nondegenerate_at(lam, 0, 0, 1, 0)
            assert not nondegenerate_at(lam, 1, 0, 0, 0)
        assert nondegenerate_at(det_two_at_origin, 1, 0, 0, 1)

    @pytest.mark.parametrize("spec", ALL_FIXTURE_SPECS, ids=str)
    @given(x=big_vectors(10**9), y=big_vectors(10**9))
    def test_explicit_preimages_round_trip_at_large_coordinates(self, spec, x, y):
        left = act(lambda_of(spec, x).inverse(), y)
        right = act(lambda_of(spec, y), x)
        assert definitional_r(spec, x, left)[:2] == y
        assert definitional_r(spec, right, y)[2:] == x
        assert nondegenerate(spec, x, y)


class TestSampleReport:
    def test_deterministic(self):
        first = sample_report(SPEC_12, samples=50, seed=7, box=3)
        second = sample_report(SPEC_12, samples=50, seed=7, box=3)
        assert first == second

    def test_clean_for_valid_specs(self):
        report = sample_report(SPEC_12, samples=100, seed=0, box=4)
        assert report["ybe_failures"] == []
        assert report["involutivity_failures"] == []
        assert report["nondegeneracy_failures"] == []
        assert report["seed"] == 0 and report["samples"] == 100 and report["box"] == 4
        assert report["spec"] == SPEC_12.to_dict()

    def test_rejects_invalid_spec_and_bad_arguments(self):
        with pytest.raises(InvalidSpec):
            sample_report(SPEC_BAD, samples=5)
        with pytest.raises(ValueError):
            sample_report(SPEC_12, samples=0)
        with pytest.raises(ValueError):
            sample_report(SPEC_12, samples=5, box=0)

    @pytest.mark.parametrize("name", ["samples", "seed", "box"])
    @pytest.mark.parametrize(
        "value", [True, 2.5, "3", None], ids=["bool", "float", "str", "none"]
    )
    def test_rejects_arguments_that_are_not_plain_integers(self, name, value):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            sample_report(SPEC_12, **{name: value})


#: Width 3 redraws a quarter of the draws; 2^70 takes three words per draw.
BOXES = pytest.mark.parametrize("box", [1, 2, 8, 2**70], ids=["1", "2", "8", "2^70"])


def affine_form(spec):
    # (phi - E, psi - E) of any pair, as _lambda_form gives it for 1.2.
    a11, a12, a21, a22 = spec.phi
    b11, b12, b21, b22 = spec.psi
    return _LambdaAffine((a11 - 1, a12, a21, a22 - 1), (b11 - 1, b12, b21, b22 - 1))


def table_form(spec, n_phi, n_psi):
    # The values phi^i psi^j of any pair, multiplied out, as _lambda_form
    # tabulates them for a valid pair of finite orders n_phi and n_psi.
    rows = [
        [(spec.phi**i * spec.psi**j).entries() for j in range(n_psi)] for i in range(n_phi)
    ]
    return _LambdaTable(rows, n_phi, n_psi)


#: Entries of a lambda_x: the unimodular matrices with entries in [-3, 3],
#: or any four entries there (rarely unimodular).
lambda_entries = st.one_of(
    st.sampled_from([m.entries() for m in enumerate_unimodular(3)]),
    st.tuples(*[st.integers(-3, 3)] * 4),
)


@st.composite
def table_forms(draw):
    n_phi, n_psi = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [[draw(lambda_entries) for _ in range(n_psi)] for _ in range(n_phi)]
    return _LambdaTable(rows, n_phi, n_psi)


#: Forms of any pair of tables or affine coefficients, valid or not.
lambda_forms = st.one_of(
    table_forms(),
    st.builds(_LambdaAffine, *[st.tuples(*[st.integers(-3, 3)] * 4)] * 2),
)


def form_lambda(form):
    # lambda_x read off a form, entry by entry, for the randint loop.
    if isinstance(form, _LambdaTable):
        rows, n_phi, n_psi = form
        return lambda x1, x2: rows[x1 % n_phi][x2 % n_psi]
    a, b = form
    return lambda x1, x2: tuple(
        e + x1 * p + x2 * q for e, p, q in zip(IDENTITY.entries(), a, b)
    )


class TestPerFormR:
    """The r of lambda_map, read off lambda's closed form, against the
    definitional r of the brace multiplication on a grid and against the
    r of lambda_of's products of powers on 64-bit members; and the
    sampling kernel of each form against the randint loop on random forms
    and near each pair's own form."""

    @pytest.mark.parametrize("spec", MEMBER_AND_FIXTURE_SPECS, ids=str)
    def test_equals_the_lambda_map_r_on_a_grid(self, spec):
        # Every residue of (x, y) modulo the periods (at most 3) and both
        # signs of every coordinate, on members beyond the bound-3 box
        # that TestAgreementWithDefinition covers.
        r = r_map(spec)
        grid = range(-4, 5)
        wrong = [
            point
            for point in product(grid, repeat=4)
            if r(*point) != definitional_r(spec, Vec2(*point[:2]), Vec2(*point[2:]))
        ]
        assert wrong == []

    @given(
        member=st.sampled_from(MEMBERS_64_BIT),
        x1=coordinates_64_bit,
        x2=coordinates_64_bit,
        y1=coordinates_64_bit,
        y2=coordinates_64_bit,
    )
    def test_equals_the_lambda_r_on_64_bit_members(self, member, x1, x2, y1, y2):
        _, _, spec = member
        powers = lambda v1, v2: lambda_of(spec, Vec2(v1, v2)).entries()
        assert r_map(spec)(x1, x2, y1, y2) == r_of_lambda(powers, x1, x2, y1, y2)

    def test_forms_of_the_64_bit_members(self):
        # 1.2 reads the affine form; every other family a table.
        kinds = {label.value: type(_lambda_form(spec)) for label, _, spec in MEMBERS_64_BIT}
        assert kinds.pop("1.2") is _LambdaAffine
        assert set(kinds.values()) == {_LambdaTable}

    @BOXES
    @given(form=lambda_forms, seed=st.integers(0, 2**32))
    def test_kernels_agree_with_the_randint_loop_on_any_form(self, form, seed, box):
        # Random forms, almost none of a valid pair, fill every failure
        # list; each kernel must fill them as the loop does.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ybe, "_lambda_form", lambda spec: form)
            report = sample_report(SPEC_12, samples=20, seed=seed, box=box)
        assert failure_lists(report) == randint_sample_report(form_lambda(form), 20, seed, box)

    @pytest.mark.parametrize("spec", MEMBER_AND_FIXTURE_SPECS, ids=str)
    def test_kernels_agree_with_the_randint_loop_near_each_form(self, spec, monkeypatch):
        # The pair's own form with one value changed: a table's last cell
        # times [[2, 1], [1, 1]] (still unimodular, of infinite order) or
        # times diag(2, 1), an affine
        # form with a12 or b21 raised by one.  A table then fails only on
        # the samples that read that cell, so the kernel must index each
        # cell, and the cell of -y, as the loop does.
        form = _lambda_form(spec)
        if isinstance(form, _LambdaTable):
            rows, n_phi, n_psi = form
            p, q, r, s = rows[-1][-1]
            corrupted = [
                ((2 * p + q, p + q, 2 * r + s, r + s), True),
                ((2 * p, q, 2 * r, s), False),
            ]
            near = []
            for cell, unimodular in corrupted:
                changed = [list(row) for row in rows]
                changed[-1][-1] = cell
                near.append((_LambdaTable(changed, n_phi, n_psi), unimodular))
        else:
            a, b = form
            near = [
                (_LambdaAffine((a[0], a[1] + 1, *a[2:]), b), False),
                (_LambdaAffine(a, (*b[:2], b[2] + 1, b[3])), False),
            ]
        for changed, unimodular in near:
            lam = form_lambda(changed)
            monkeypatch.setattr(ybe, "_lambda_form", lambda spec: changed)
            failures = dict.fromkeys(FAILURE_KEYS, 0)
            for seed, box in product(range(3), [8, 2**70]):
                report = failure_lists(sample_report(spec, samples=30, seed=seed, box=box))
                assert report == randint_sample_report(lam, 30, seed, box)
                for key in FAILURE_KEYS:
                    failures[key] += len(report[key])
            assert failures["ybe_failures"] + failures["involutivity_failures"] > 0
            assert (failures["nondegeneracy_failures"] == 0) == unimodular


#: Forms of invalid pairs, whose lambda is not a homomorphism Z^2 -> GL2(Z)
#: with lambda_-y = lambda_y^-1, so r breaks the braid relation and
#: involutivity; and whether every lambda_x of the form is unimodular.  The
#: affine form of INVALID_SPECS[0] is [[1, x1], [x2, 1]], of determinant
#: 1 - x1 x2; SPEC_BAD's is its shear power; the table is phi^i psi^j for the
#: non-commuting diag(1, -1) and swap.
NON_HOMOMORPHIC_FORMS = [
    pytest.param(affine_form(INVALID_SPECS[0]), False, id="affine-noncommuting"),
    pytest.param(affine_form(SPEC_BAD), True, id="affine-SPEC_BAD"),
    pytest.param(
        table_form(BraceSpec(Mat2(1, 0, 0, -1), Mat2(0, 1, 1, 0)), 2, 2),
        True,
        id="table-noncommuting",
    ),
]


class TestAgreementWithRandintLoop:
    """sample_report against randint_sample_report: the getrandbits draws
    name the same samples as randint, and the per-form r gives the same
    verdicts as the tuple r, failures included.  The failures are injected
    at the form seam: ybe._lambda_form is replaced by one returning a form
    of an invalid pair, which both r and the non-degeneracy check read."""

    @pytest.mark.parametrize("spec", MEMBER_AND_FIXTURE_SPECS, ids=str)
    @BOXES
    def test_valid_specs_at_five_seeds(self, spec, box):
        lam = lambda_map(spec)
        for seed in range(5):
            report = sample_report(spec, samples=30, seed=seed, box=box)
            assert failure_lists(report) == randint_sample_report(lam, 30, seed, box)
            assert failure_lists(report) == dict.fromkeys(FAILURE_KEYS, [])

    @pytest.mark.parametrize("form, unimodular", NON_HOMOMORPHIC_FORMS)
    @BOXES
    def test_non_homomorphic_lambda_fills_braid_and_involutivity(
        self, monkeypatch, form, unimodular, box
    ):
        lam = form_lambda(form)
        monkeypatch.setattr(ybe, "_lambda_form", lambda spec: form)
        for seed in range(5):
            report = failure_lists(sample_report(SPEC_12, samples=30, seed=seed, box=box))
            assert report == randint_sample_report(lam, 30, seed, box)
            assert report["ybe_failures"] and report["involutivity_failures"]
            if unimodular:
                assert report["nondegeneracy_failures"] == []
            else:
                assert report["nondegeneracy_failures"]

    @BOXES
    def test_determinant_two_fills_nondegeneracy(self, monkeypatch, box):
        form = _LambdaTable([[(2, 0, 0, 1)]], 1, 1)
        lam = form_lambda(form)
        monkeypatch.setattr(ybe, "_lambda_form", lambda spec: form)
        for seed in range(5):
            report = failure_lists(sample_report(SPEC_12, samples=30, seed=seed, box=box))
            assert report == randint_sample_report(lam, 30, seed, box)
            assert len(report["nondegeneracy_failures"]) == 30


def braid_sides(r, x1, x2, y1, y2, z1, z2):
    """r12 r23 r12 and r23 r12 r23 at (x, y, z), then r(r(x, y)), as one
    tuple of 16 integers, each point named as the kernels name it."""
    u1, u2, v1, v2 = r(x1, x2, y1, y2)
    s1, s2, w1, w2 = r(v1, v2, z1, z2)
    d1, d2, e1, e2 = r(u1, u2, s1, s2)
    f1, f2, g1, g2 = r(y1, y2, z1, z2)
    h1, h2, i1, i2 = r(x1, x2, f1, f2)
    j1, j2, k1, k2 = r(i1, i2, g1, g2)
    return (d1, d2, e1, e2, w1, w2, h1, h2, j1, j2, k1, k2, *r(u1, u2, v1, v2))


def times(m, n):
    # The product of two 2x2 matrices given as entry tuples.
    m11, m12, m21, m22 = m
    n11, n12, n21, n22 = n
    return (
        m11 * n11 + m12 * n21, m11 * n12 + m12 * n22,
        m21 * n11 + m22 * n21, m21 * n12 + m22 * n22,
    )


@lru_cache(maxsize=None)
def valid_forms_at_bound_3():
    return [(spec, _lambda_form(spec)) for spec in valid_specs_in_box(3)]


def certificate_grid(form):
    """The sampling kernel of a valid pair's form, the grid of (x, y, z)
    on which it decides the braid relation and involutivity on all of Z^6,
    and the stride and order of the finite differences that vanish: a
    table's grid is [0, 2P)^6, an affine form's [0, 3)^6."""
    if isinstance(form, _LambdaTable):
        _, n_phi, n_psi = form
        period = lcm(n_phi, n_psi)
        return ybe._sample_table, product(range(2 * period), repeat=6), period, 2
    return ybe._sample_affine, product(range(3), repeat=6), 1, 3


class TestGridCertificate:
    """A bound-free Yang-Baxter certificate for each valid pair at B = 3,
    run on the sampling kernels: agreement on a finite grid of (x, y, z)
    implies agreement on all of Z^6.

    Lemma.  Let F be a coordinate of r12 r23 r12 or r23 r12 r23 at
    (x, y, z), or of r(r(x, y)).
      * Table form, lambda_x read off the cell (x1 mod n_phi, x2 mod
        n_psi), with P = lcm(n_phi, n_psi) in {1, 2, 3}.  Each lambda_x is
        an integer matrix, so lambda_x y mod P depends only on the cell
        of x and on y mod P.  On each residue class of (x, y, z) mod P,
        every intermediate point's residue mod P, and so its cell, is
        therefore fixed, and F is a fixed linear form in the six
        variables.  A function of degree at most 1 in each variable on
        the class is fixed by its values at the class's 2^6 points of
        [0, 2P)^6, so the kernel on [0, 2P)^6 decides F on all of Z^6.
      * Affine form (1.2), lambda_x = E + m_x with m_x = x1 a + x2 b, so
        r(p, q) = (q + m_p q, p - m_q p) is linear in p and in q.  In the
        kernels' names, u, v, f and g have degree at most 1 in each
        variable; s, w, h and i too, since each takes one variable that
        u, v, f or g does not; d, e, j, k and r(u, v) multiply two points
        that share a variable, so F has degree at most 2 in each
        variable, and the 3^6 points of [0, 3)^6 fix it.
    Non-degeneracy comes from an argument, not from the grid.  The table
    grid meets every cell, so the kernel reads det lambda = +-1 off every
    table value.  For an affine form lambda_x - E = x1 a + x2 b is
    nilpotent (a^2 = b^2 = ab + ba = 0), so det lambda_x = 1 on all of Z^2.
    """

    def test_every_valid_pair_at_bound_3_holds_on_its_grid(self):
        # 122 valid pairs: 89 tables with P = 2, 12 with P = 3, 1 with
        # P = 1 and 20 affine forms, on 939,060 grid points in all.
        kinds, points, failing = Counter(), 0, []
        for spec, form in valid_forms_at_bound_3():
            kernel, grid, period, _ = certificate_grid(form)
            grid = list(grid)
            kinds[kernel.__name__, period] += 1
            points += len(grid)
            if any(kernel(form, grid)):
                failing.append(spec)
            if kernel is ybe._sample_affine:
                a, b = form
                ab, ba = times(a, b), times(b, a)
                assert times(a, a) == times(b, b) == (0, 0, 0, 0), spec
                assert [s + t for s, t in zip(ab, ba)] == [0, 0, 0, 0], spec
        assert failing == []
        assert kinds == {
            ("_sample_table", 2): 89,
            ("_sample_table", 3): 12,
            ("_sample_table", 1): 1,
            ("_sample_affine", 1): 20,
        }
        assert points == 939_060

    def test_finite_differences_bound_the_degree(self):
        # The lemma's degree bound, checked with oracles.r_map and not with
        # the kernels: at seeded points, the finite difference of order
        # degree + 1 with stride P (2nd for a table, 3rd for an affine
        # form) of every coordinate of both braid sides and of r(r(x, y))
        # vanishes in each variable.
        rng = random.Random(15)
        for spec, form in valid_forms_at_bound_3():
            r = r_map(spec)
            _, _, stride, order = certificate_grid(form)
            for _ in range(2):
                point = [rng.randint(-50, 50) for _ in range(6)]
                for axis in range(6):
                    difference = [0] * 16
                    for step in range(order + 1):
                        shifted = list(point)
                        shifted[axis] += step * stride
                        weight = (-1) ** (order - step) * comb(order, step)
                        sides = braid_sides(r, *shifted)
                        difference = [t + weight * v for t, v in zip(difference, sides)]
                    assert difference == [0] * 16, (spec, point, axis)

    def test_near_forms_fail_on_their_grid(self):
        # The changes test_kernels_agree_with_the_randint_loop_near_each_form
        # makes, a table's last cell times [[2, 1], [1, 1]] and an affine
        # form's a12 + 1, each break the braid relation or involutivity
        # somewhere on the grid, on the first valid pair of each kind and
        # period.
        chosen = {}
        for _, form in valid_forms_at_bound_3():
            kernel, _, period, _ = certificate_grid(form)
            chosen.setdefault((kernel.__name__, period), form)
        assert len(chosen) == 4
        for form in chosen.values():
            if isinstance(form, _LambdaTable):
                rows, n_phi, n_psi = form
                p, q, r, s = rows[-1][-1]
                changed = [list(row) for row in rows]
                changed[-1][-1] = (2 * p + q, p + q, 2 * r + s, r + s)
                near = _LambdaTable(changed, n_phi, n_psi)
            else:
                a, b = form
                near = _LambdaAffine((a[0], a[1] + 1, *a[2:]), b)
            kernel, grid, _, _ = certificate_grid(near)
            ybe_failures, involutivity_failures, _ = kernel(near, grid)
            assert ybe_failures or involutivity_failures, form


class TestBoundedMemory:
    """sample_report draws one sample at a time, so its peak memory does
    not grow with `samples`, even at three words per coordinate: about
    6 KiB on a table member and on 1.2, where drawing every coordinate
    first would take 450-630 KiB at 2,000 samples and ten times that at
    20,000.  tracemalloc slows the bigint arithmetic some 70-fold, so
    2,000 samples keep the test to about two seconds per member."""

    @pytest.mark.parametrize(
        "spec", [BraceSpec.from_dict(YBE_MEMBERS[i]) for i in (0, 1)], ids=["1.1", "1.2"]
    )
    def test_peak_below_64_kib(self, spec):
        tracemalloc.start()
        try:
            report = sample_report(spec, samples=2_000, seed=0, box=2**70)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert failure_lists(report) == dict.fromkeys(FAILURE_KEYS, [])
        assert peak < 64 * 1024


def test_members_are_the_benchmark_members():
    # One list of the twelve: the benchmark's, read from its file.
    workloads = runpy.run_path(
        str(Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py")
    )
    assert YBE_MEMBERS == list(workloads["YBE_MEMBERS"].values())
