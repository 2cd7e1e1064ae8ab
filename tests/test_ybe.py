"""Yang-Baxter layer: the map built from a valid pair, braid relation,
involutivity, non-degeneracy, and the seeded sampling report.

r_map is the closed form (lambda_x(y), lambda_y^-1(x)); definitional_r
below recomputes r from the brace multiplication and its inverse, as an
independent oracle for it.
"""

import pytest
from hypothesis import given, strategies as st

from conftest import ALL_FIXTURE_SPECS, ROW_SPECS, TRIVIAL_SPEC

from z2brace import (
    BraceSpec,
    IDENTITY,
    InvalidSpec,
    Mat2,
    PairZ2,
    RowLabel,
    Vec2,
    act,
    check_pair,
    commutes,
    enumerate_unimodular,
    involutive_at,
    lambda_of,
    nondegenerate_at,
    odot,
    odot_inverse,
    r_map,
    sample_report,
    ybe_holds,
)

SPEC_12 = BraceSpec(Mat2(2, 1, -1, 0), Mat2(2, 1, -1, 0))
SPEC_BAD = BraceSpec(Mat2(1, 1, 0, 1), IDENTITY)

vectors = st.builds(Vec2, st.integers(-4, 4), st.integers(-4, 4))
valid_specs = st.sampled_from(ALL_FIXTURE_SPECS)


def big_vectors(limit):
    return st.builds(Vec2, st.integers(-limit, limit), st.integers(-limit, limit))


def definitional_r(spec, x, y):
    """r(x, y) = (-x + x*y, (-x + x*y)^-1 * x * y) in the brace multiplication."""
    xy = odot(spec, x, y)
    first = -x + xy
    return PairZ2(first, odot(spec, odot_inverse(spec, first), xy))


def valid_specs_in_box(bound):
    box = list(enumerate_unimodular(bound))
    commuting = (BraceSpec(phi, psi) for phi in box for psi in box if commutes(phi, psi))
    return [spec for spec in commuting if check_pair(spec).valid]


class TestRMap:
    @given(x=vectors, y=vectors)
    def test_trivial_spec_gives_the_flip(self, x, y):
        assert r_map(TRIVIAL_SPEC, x, y) == PairZ2(y, x)

    def test_fixed_point(self):
        x, y = Vec2(1, 0), Vec2(0, 1)
        assert r_map(SPEC_12, x, y) == PairZ2(x, y)

    def test_hand_computed_image(self):
        assert r_map(SPEC_12, Vec2(0, 1), Vec2(1, 0)) == PairZ2(Vec2(2, -1), Vec2(-1, 2))

    @given(spec=valid_specs, x=vectors, y=vectors)
    def test_first_component_is_lambda_image(self, spec, x, y):
        assert r_map(spec, x, y).first == act(lambda_of(spec, x), y)

    def test_rejects_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            r_map(SPEC_BAD, Vec2(0, 0), Vec2(0, 0))

    @given(x=vectors)
    def test_trivial_diagonal_is_fixed(self, x):
        assert r_map(TRIVIAL_SPEC, x, x) == PairZ2(x, x)


class TestAgreementWithDefinition:
    def test_every_valid_pair_at_bound_3_on_a_grid(self):
        specs = valid_specs_in_box(3)
        grid = [Vec2(a, b) for a in range(-2, 3) for b in range(-2, 3)]
        mismatches = [
            (spec, x, y)
            for spec in specs
            for x in grid
            for y in grid
            if r_map(spec, x, y) != definitional_r(spec, x, y)
        ]
        assert len(specs) == 122
        assert mismatches == []

    @given(spec=valid_specs, x=big_vectors(10**6), y=big_vectors(10**6))
    def test_fixture_families_at_large_coordinates(self, spec, x, y):
        assert r_map(spec, x, y) == definitional_r(spec, x, y)


class TestBraidRelation:
    @given(x=vectors, y=vectors, z=vectors)
    def test_flip_satisfies_it(self, x, y, z):
        assert ybe_holds(TRIVIAL_SPEC, x, y, z)

    @given(spec=valid_specs, x=vectors, y=vectors, z=vectors)
    def test_valid_specs_satisfy_it(self, spec, x, y, z):
        assert ybe_holds(spec, x, y, z)

    def test_zero_triple(self):
        zero = Vec2(0, 0)
        assert ybe_holds(SPEC_12, zero, zero, zero)

    def test_rejects_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            ybe_holds(SPEC_BAD, Vec2(0, 0), Vec2(0, 0), Vec2(0, 0))


class TestInvolutivity:
    def test_hand_computed_round_trip(self):
        x, y = Vec2(0, 1), Vec2(1, 0)
        once = r_map(SPEC_12, x, y)
        assert once == PairZ2(Vec2(2, -1), Vec2(-1, 2))
        assert r_map(SPEC_12, once.first, once.second) == PairZ2(x, y)
        assert involutive_at(SPEC_12, x, y)

    @given(spec=valid_specs, x=vectors, y=vectors)
    def test_valid_specs_involutive(self, spec, x, y):
        assert involutive_at(spec, x, y)

    @given(x=vectors, y=vectors)
    def test_block4_family_involutive(self, x, y):
        assert involutive_at(ROW_SPECS[RowLabel.R4_1], x, y)


class TestNondegeneracy:
    @given(x=vectors, y=vectors)
    def test_flip(self, x, y):
        assert nondegenerate_at(TRIVIAL_SPEC, x, y)

    @given(spec=valid_specs, x=vectors, y=vectors)
    def test_valid_specs(self, spec, x, y):
        assert nondegenerate_at(spec, x, y)

    @given(x=vectors, y=vectors)
    def test_larger_family_12_member(self, x, y):
        from z2brace import RowParams, generate_row

        spec = generate_row(RowLabel.R1_2, RowParams(m=2, p=1, q=1))
        assert nondegenerate_at(spec, x, y)

    @pytest.mark.parametrize("spec", ALL_FIXTURE_SPECS, ids=str)
    @given(x=big_vectors(10**9), y=big_vectors(10**9))
    def test_explicit_preimages_round_trip_at_large_coordinates(self, spec, x, y):
        left = act(lambda_of(spec, x).inverse(), y)
        right = act(lambda_of(spec, y), x)
        assert definitional_r(spec, x, left).first == y
        assert definitional_r(spec, right, y).second == x
        assert nondegenerate_at(spec, x, y)


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
