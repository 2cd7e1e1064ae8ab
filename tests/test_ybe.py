"""Yang-Baxter layer: the map built from a valid pair, braid relation,
involutivity, non-degeneracy, and the seeded sampling report.

r_map(spec) is the closed form (lambda_x(y), lambda_y^-1(x)) on four
integers, built once per pair; definitional_r below recomputes r from the
brace multiplication and its inverse, as an independent oracle for it.
The braid, involutivity and non-degeneracy checks are ybe's private
helpers, run on that r and on lambda_map.
"""

import random
import re
from itertools import product

import pytest
from hypothesis import given, strategies as st

import z2brace.brace as brace
import z2brace.ybe as ybe

from conftest import (
    ALL_FIXTURE_SPECS,
    CI_64_BIT_MEMBERS,
    ROW_SPECS,
    TRIVIAL_SPEC,
    YBE_MEMBERS,
)

from oracles import Vec2, act, lambda_of, odot, odot_inverse, r_of_lambda
from z2brace import (
    BraceSpec,
    IDENTITY,
    InvalidSpec,
    Mat2,
    RowLabel,
    check_pair,
    commutes,
    enumerate_unimodular,
    lambda_map,
    r_map,
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
    """lambda_map decides validity, and every solution built from it
    refuses an invalid pair."""

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
    return ybe._ybe_holds(r, r(*x, *y), *x, *y, *z)


def involutive(r, x, y):
    return ybe._involutive_at(r, r(*x, *y), *x, *y)


def nondegenerate(spec, x, y):
    return ybe._nondegenerate_at(lambda_map(spec), *x, *y)


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
        assert ybe._involutive_at(r, once, 0, 1, 1, 0)

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
            assert not ybe._nondegenerate_at(lam, 0, 0, 0, 0)
            assert not ybe._nondegenerate_at(lam, 0, 0, 1, 0)
            assert not ybe._nondegenerate_at(lam, 1, 0, 0, 0)
        assert ybe._nondegenerate_at(det_two_at_origin, 1, 0, 0, 1)

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
    """r_map's r (ybe._r_of_form), with lambda read in place from its
    closed form, against oracles.r_of_lambda, which calls a lambda map twice per point:
    lambda_map's, and lambda_of's products of powers."""

    @pytest.mark.parametrize("spec", MEMBER_AND_FIXTURE_SPECS, ids=str)
    def test_equals_the_lambda_map_r_on_a_grid(self, spec):
        # Every residue of (x, y) modulo the periods (at most 3) and both
        # signs of every coordinate.
        lam = lambda_map(spec)
        r = r_map(spec)
        grid = range(-4, 5)
        wrong = [
            point
            for point in product(grid, repeat=4)
            if r(*point) != r_of_lambda(lam, *point)
        ]
        assert wrong == []

    @given(
        member=st.sampled_from(CI_64_BIT_MEMBERS),
        x1=coordinates_64_bit,
        x2=coordinates_64_bit,
        y1=coordinates_64_bit,
        y2=coordinates_64_bit,
    )
    def test_equals_the_lambda_r_on_64_bit_members(self, member, x1, x2, y1, y2):
        _, spec = member
        r = r_map(spec)
        assert r(x1, x2, y1, y2) == r_of_lambda(lambda_map(spec), x1, x2, y1, y2)
        powers = lambda v1, v2: lambda_of(spec, Vec2(v1, v2)).entries()
        assert r(x1, x2, y1, y2) == r_of_lambda(powers, x1, x2, y1, y2)

    def test_forms_of_the_ci_members(self):
        # 1.2 reads the affine form; every other family a table.
        kinds = {label.value: type(_lambda_form(spec)) for label, spec in CI_64_BIT_MEMBERS}
        assert kinds.pop("1.2") is _LambdaAffine
        assert set(kinds.values()) == {_LambdaTable}

    @pytest.mark.parametrize("spec", MEMBER_AND_FIXTURE_SPECS, ids=str)
    def test_seven_r_evaluations_per_sample(self, spec, monkeypatch):
        # u = r(x, y) is shared by the braid relation (3 + 3 evaluations)
        # and the involutivity check (1 more).
        calls = []
        r_of_form = ybe._r_of_form

        def counting_r_of_form(form):
            r = r_of_form(form)

            def counted(*point):
                calls.append(point)
                return r(*point)

            return counted

        monkeypatch.setattr(ybe, "_r_of_form", counting_r_of_form)
        report = sample_report(spec, samples=40, seed=1, box=8)
        assert failure_lists(report) == dict.fromkeys(FAILURE_KEYS, [])
        assert len(calls) == 7 * 40


#: Width 3 redraws a quarter of the draws; 2^70 takes three words per draw.
BOXES = pytest.mark.parametrize("box", [1, 2, 8, 2**70], ids=["1", "2", "8", "2^70"])

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
