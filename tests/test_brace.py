"""Brace layer: the multiplication built from a matrix pair, the validity
verdict, and the holomorph closure property.
"""

import random
from collections import Counter
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    ALL_FIXTURE_SPECS,
    MEMBERS_64_BIT,
    ROW_SPECS,
    TRIVIAL_SPEC,
    holomorph_reading,
    hyperbolic_pair,
    repeated_powers,
)

from oracles import (
    HolElement,
    Vec2,
    ZERO,
    act,
    h_lambda_closed,
    hol_mul,
    identities_hold,
    in_lambda_kernel,
    lambda_map,
    lambda_of,
    odot,
    odot_associative,
    odot_inverse,
    order_by_iteration,
    r_map,
    spec_from_dict_by_checks,
)
from z2brace import (
    BraceSpec,
    IDENTITY,
    InvalidSpec,
    Mat2,
    NotUnimodular,
    RowLabel,
    RowParams,
    Verdict,
    check_pair,
    commutes,
    enumerate_unimodular,
    generate_row,
)
from z2brace import brace
from z2brace.brace import _lambda_form, _valid_partners
from z2brace.gl2z import _powers

M_2110 = Mat2(2, 1, -1, 0)
SPEC_12 = BraceSpec(M_2110, M_2110)
# Commuting pair that is not a brace: the second power identity fails.
SPEC_BAD = BraceSpec(Mat2(1, 1, 0, 1), IDENTITY)


def hyperbolic_test_pairs(bits):
    # Pairs of bits-bit hyperbolic matrices, commuting or not, and each
    # such matrix beside +-E in either order.
    m, n = hyperbolic_pair(bits)
    return (
        (m, m), (m, m.inverse()), (m, -m), (m, n), (n, -m),
        (m, IDENTITY), (m, -IDENTITY), (IDENTITY, m), (-IDENTITY, m),
    )


def commuting_power_pairs(a):
    # The commuting pairs (M^i, M^j), i, j in [-2, 2], of the hyperbolic
    # M = [[a, a+1], [a-1, a]]: psi^-l goes through inverse() wherever
    # l > 0, and identities hold where i or j is 0.
    m = Mat2(a, a + 1, a - 1, a)
    return [(m**i, m**j) for i in range(-2, 3) for j in range(-2, 3)]


def hyperbolic_inputs(bit_sizes):
    # hyperbolic_test_pairs at each size, with the size as its id, then the
    # commuting powers at a = 10 and 22, whose entries reach 2a(a+1) = 220
    # and 1012: pairs of 8 and 10 bits.
    return [pytest.param(hyperbolic_test_pairs(bits), id=str(bits)) for bits in bit_sizes] + [
        pytest.param(commuting_power_pairs(a), id=f"powers-{bits}-bit")
        for a, bits in ((10, 8), (22, 10))
    ]


vectors = st.builds(Vec2, st.integers(-4, 4), st.integers(-4, 4))
valid_specs = st.sampled_from(ALL_FIXTURE_SPECS)


class TestVec2:
    def test_add_and_negate(self):
        assert Vec2(1, 2) + Vec2(3, 4) == Vec2(4, 6)
        assert -ZERO == ZERO

    @given(a=vectors)
    def test_additive_inverse(self, a):
        assert a + (-a) == ZERO


class TestBraceSpec:
    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            BraceSpec(Mat2(2, 0, 0, 2), IDENTITY)

    def test_json_round_trip(self):
        data = {"phi": [[2, 1], [-1, 0]], "psi": [[1, 0], [0, 1]]}
        spec = BraceSpec.from_dict(data)
        assert spec.to_dict() == data

    @pytest.mark.parametrize(
        "data",
        [
            {"phi": [[1, 0], [0, 1]]},
            {"phi": [[1, 0], [0, 1]], "psi": [[1, 0], [0, 1]], "x": 1},
            [[1, 0], [0, 1]],
        ],
        ids=["missing key", "extra key", "not an object"],
    )
    def test_from_dict_rejects_wrong_keys(self, data):
        with pytest.raises(ValueError) as exc:
            BraceSpec.from_dict(data)
        assert str(exc.value) == (
            f'expected an object with exactly the keys "phi" and "psi", got {data!r}'
        )


#: A 4,000-digit integer, below Python's 4,300-digit limit on int to str.
HUGE = 10**3999 + 7

#: Matrix entries as JSON may carry them: small and 4,000-digit integers,
#: bools, floats, strings and null.
json_entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from((HUGE, -HUGE, HUGE + 1)),
    st.booleans(),
    st.floats(),
    st.text(max_size=2),
    st.none(),
)

#: Values in the matrix slot: unimodular and non-unimodular 2x2s of small
#: and 4,000-digit entries, rows and pairs of wrong lengths, lists and
#: tuples, and scalars.
json_matrices = st.one_of(
    st.sampled_from([m.rows() for m in enumerate_unimodular(1)]),
    st.sampled_from([[[HUGE, HUGE + 1], [HUGE - 1, HUGE]], [[HUGE, HUGE], [HUGE, HUGE]]]),
    st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.lists(json_entries, max_size=3), max_size=3),
    st.tuples(st.tuples(json_entries, json_entries), st.lists(json_entries, min_size=2, max_size=2)),
    json_entries,
)

#: Whole JSON values: objects with any of the keys phi, psi and a stray
#: one, and values that are no object at all.
json_specs = st.one_of(
    st.dictionaries(st.sampled_from(["phi", "psi", "x"]), json_matrices),
    st.fixed_dictionaries({"phi": json_matrices, "psi": json_matrices}),
    json_matrices,
)


def decoded(decode, data):
    # The spec with the types of its parts, or the error's type and text.
    try:
        spec = decode(data)
    except Exception as exc:
        return type(exc), str(exc)
    return spec, type(spec), [type(m) for m in spec]


class TestSpecDecoding:
    """BraceSpec.from_dict, Mat2.from_rows and BraceSpec's constructor in
    one pass, against the bodies they replaced (oracles.*_by_checks)."""

    @settings(max_examples=500)
    @given(data=json_specs)
    def test_same_spec_or_same_error(self, data):
        assert decoded(BraceSpec.from_dict, data) == decoded(spec_from_dict_by_checks, data)

    @pytest.mark.parametrize(
        "data",
        [
            {"phi": [[1, 0], [0, 1]], "psi": [[2, 1], [-1, 0]]},
            {"phi": [[HUGE, HUGE + 1], [HUGE - 1, HUGE]], "psi": [[1, 0], [0, 1]]},
            {"phi": [[2, 0], [0, 2]], "psi": [[1, 0], [0, 1]]},
            {"phi": [[1, 0], [0, 1]], "psi": [[1, 1], [1, 1]]},
            {"phi": [[2, 0], [0, 2]], "psi": [[1, 0], [0]]},
            {"phi": [[HUGE, HUGE], [HUGE, HUGE]], "psi": [[1, 0], [0, 1]]},
            {"phi": [[1, 0], [0, 1]], "psi": [[HUGE, 0], [0, HUGE]]},
            {"phi": [[True, 0], [0, 1]], "psi": [[1, 0], [0, 1]]},
            {"phi": ((1, 0), [0, 1]), "psi": [(1, 0), (0, 1)]},
            {"psi": [[1, 0], [0, 1]], "phi": [[1, 0], [0, 1]]},
        ],
    )
    def test_same_spec_or_same_error_on_edges(self, data):
        # Non-unimodular after a malformed psi, a bool entry, tuples, keys in
        # the other order, and 4,000-digit entries whose determinant is too
        # long to print, which both readings refuse alike.
        assert decoded(BraceSpec.from_dict, data) == decoded(spec_from_dict_by_checks, data)

    def test_subclasses_are_accepted(self):
        class Rows(list):
            pass

        class Object(dict):
            pass

        data = Object(phi=Rows([Rows([2, 1]), (-1, 0)]), psi=((1, 0), (0, 1)))
        assert BraceSpec.from_dict(data) == BraceSpec(Mat2(2, 1, -1, 0), IDENTITY)
        assert decoded(BraceSpec.from_dict, data) == decoded(spec_from_dict_by_checks, data)

class TestLambda:
    @given(a=vectors)
    def test_trivial_spec_is_constant(self, a):
        assert lambda_of(TRIVIAL_SPEC, a) == IDENTITY

    def test_exponent_sum(self):
        assert lambda_of(SPEC_12, Vec2(1, 1)) == Mat2(3, 2, -2, -1)

    def test_cancelling_exponents(self):
        assert lambda_of(SPEC_12, Vec2(1, -1)) == IDENTITY

    @given(a=vectors, b=vectors)
    def test_homomorphic_whenever_pair_commutes(self, a, b):
        # Needs only commutation, not validity: SPEC_BAD qualifies.
        for spec in (SPEC_12, SPEC_BAD):
            assert lambda_of(spec, a + b) == lambda_of(spec, a) * lambda_of(spec, b)


class TestOdot:
    def test_trivial_spec_is_addition(self):
        assert odot(TRIVIAL_SPEC, Vec2(1, 2), Vec2(3, 4)) == Vec2(4, 6)

    def test_generator_product(self):
        assert odot(SPEC_12, Vec2(1, 0), Vec2(0, 1)) == Vec2(2, 0)

    @given(spec=valid_specs, b=vectors)
    def test_zero_is_left_identity(self, spec, b):
        assert odot(spec, ZERO, b) == b

    def test_inverse_examples(self):
        assert odot_inverse(TRIVIAL_SPEC, Vec2(1, 2)) == Vec2(-1, -2)
        assert odot_inverse(SPEC_12, Vec2(1, 0)) == Vec2(0, -1)
        assert odot_inverse(SPEC_12, ZERO) == ZERO

    @given(spec=valid_specs, a=vectors)
    def test_inverse_is_two_sided_for_valid_specs(self, spec, a):
        inv = odot_inverse(spec, a)
        assert odot(spec, a, inv) == ZERO
        assert odot(spec, inv, a) == ZERO


class TestKernel:
    @given(spec=valid_specs)
    def test_zero_in_kernel(self, spec):
        assert in_lambda_kernel(spec, ZERO)

    def test_cancelling_vector(self):
        assert in_lambda_kernel(SPEC_12, Vec2(1, -1))

    def test_shear_generator_not_in_kernel(self):
        assert not in_lambda_kernel(SPEC_BAD, Vec2(1, 0))


class TestCheckPair:
    def test_trivial_pair_valid(self):
        verdict = check_pair(TRIVIAL_SPEC)
        assert verdict.valid and verdict.commuting
        assert all(verdict.power_identities)

    def test_known_family_valid(self):
        assert check_pair(SPEC_12).valid

    def test_shear_pair_fails_second_identity(self):
        verdict = check_pair(SPEC_BAD)
        assert not verdict.valid
        assert verdict.commuting
        assert verdict.power_identities == (True, False, True, True)

    def test_verdict_consistency_over_small_box(self):
        # On every unimodular pair with entries in [-1, 1], valid is the
        # conjunction of the parts; on the commuting ones the entry reading
        # agrees pairwise with the holomorph closure at the generators.
        candidates = list(enumerate_unimodular(1))
        commuting_pairs = 0
        for phi in candidates:
            for psi in candidates:
                spec = BraceSpec(phi, psi)
                verdict = check_pair(spec)
                assert verdict.valid == (
                    verdict.commuting and all(verdict.power_identities)
                )
                if verdict.commuting:
                    commuting_pairs += 1
                    assert verdict.power_identities == holomorph_reading(spec), spec
        assert len(candidates) ** 2 == 1600 and commuting_pairs == 280


def direct_products_check_pair(spec):
    # The verdict written out with the products phi^k psi^l themselves,
    # independent of lambda_of and in_lambda_kernel.
    phi, psi = spec.phi, spec.psi
    commuting = phi * psi == psi * phi
    power = (
        phi ** (phi.a11 - 1) * psi ** phi.a21 == IDENTITY,
        phi ** phi.a12 * psi ** (phi.a22 - 1) == IDENTITY,
        phi ** (psi.a11 - 1) * psi ** psi.a21 == IDENTITY,
        phi ** psi.a12 * psi ** (psi.a22 - 1) == IDENTITY,
    )
    return Verdict(
        valid=commuting and all(power), commuting=commuting, power_identities=power
    )


class TestSharedEvaluation:
    """check_pair's verdict against the direct-products oracle: two
    readings of the same four conditions."""

    def test_matches_two_reading_verdicts_at_bound2(self):
        box = list(enumerate_unimodular(2))
        assert len(box) ** 2 == 10816
        for phi in box:
            for psi in box:
                spec = BraceSpec(phi, psi)
                assert check_pair(spec) == direct_products_check_pair(spec), spec

    @pytest.mark.parametrize("pairs", hyperbolic_inputs(range(8, 13)))
    def test_matches_two_reading_verdicts_on_hyperbolic_pairs(self, pairs):
        for phi, psi in pairs:
            spec = BraceSpec(phi, psi)
            assert check_pair(spec) == direct_products_check_pair(spec), spec


def squared_power(m, k):
    # m^k by square-and-multiply through Mat2.__mul__ and Mat2.inverse,
    # never through Mat2.power_map or Mat2.__pow__.
    if k < 0:
        m, k = m.inverse(), -k
    result = IDENTITY
    while k:
        if k & 1:
            result = result * m
        k >>= 1
        if k:
            m = m * m
    return result


def condition_exponents(phi, psi):
    # The exponents (k, l) of the four conditions phi^k psi^l = E, in the
    # order of Verdict.power_identities: the columns of phi - E and psi - E.
    return (
        (phi.a11 - 1, phi.a21),
        (phi.a12, phi.a22 - 1),
        (psi.a11 - 1, psi.a21),
        (psi.a12, psi.a22 - 1),
    )


def squared_check_pair(spec):
    # The old entry reading of the four conditions, phi^k psi^l = E, with
    # both powers taken by squared_power.
    phi, psi = spec.phi, spec.psi
    commuting = phi * psi == psi * phi
    power = tuple(
        squared_power(phi, k) * squared_power(psi, l) == IDENTITY
        for k, l in condition_exponents(phi, psi)
    )
    return Verdict(
        valid=commuting and all(power), commuting=commuting, power_identities=power
    )


BOX_3 = list(enumerate_unimodular(3))

#: The finite-order matrices with entries in [-2, 2], orders read by
#: explicit multiplication, not by the det/trace table lambda_map reads.
FINITE_BOX_2 = [m for m in enumerate_unimodular(2) if order_by_iteration(m) is not None]

#: generate_row members whose parameters reach 64 bits: every member of
#: MEMBERS_64_BIT but 1.2's, each finite-order in both matrices, and 4.1's
#: free-p branch with p drawn.
FINITE_MEMBERS_64_BIT = [
    spec for label, _, spec in MEMBERS_64_BIT if label is not RowLabel.R1_2
]
free_p_4_1 = st.builds(
    lambda m, p: generate_row(RowLabel.R4_1, RowParams(m=m, n=m, p=p)),
    st.sampled_from((0, -1)),
    st.integers(-(2**64), 2**64),
)
finite_64_bit_specs = st.one_of(st.sampled_from(FINITE_MEMBERS_64_BIT), free_p_4_1)
finite_64_bit = finite_64_bit_specs.flatmap(st.sampled_from)
coordinates_64_bit = st.integers(-(2**63), 2**63)


def affine_lambda(spec, x1, x2):
    # E + x1 (phi - E) + x2 (psi - E), entry by entry.
    identity = IDENTITY.entries()
    return tuple(
        e + x1 * (p - e) + x2 * (q - e) for e, p, q in zip(identity, spec.phi, spec.psi)
    )


def has_infinite_order(spec):
    return order_by_iteration(spec.phi) is None or order_by_iteration(spec.psi) is None


class TestLambdaMap:
    """lambda_map against repeated Mat2 multiplication, and check_pair
    against the entry reading with squared powers."""

    def test_every_valid_pair_at_bound_3(self):
        # x in [-6, 6]^2: lambda_x = phi^x1 psi^x2 from one product per step.
        # The pairs with a generator of infinite order take the affine
        # branch, and there lambda_x is E + x1 (phi - E) + x2 (psi - E).
        pairs = (BraceSpec(phi, psi) for phi in BOX_3 for psi in BOX_3)
        valid = [spec for spec in pairs if check_pair(spec).valid]
        affine = [spec for spec in valid if has_infinite_order(spec)]
        wrong = []
        for spec in valid:
            lam = lambda_map(spec)
            phi_powers = repeated_powers(spec.phi, 6)
            psi_powers = repeated_powers(spec.psi, 6)
            for x1 in range(-6, 7):
                for x2 in range(-6, 7):
                    expected = (phi_powers[x1] * psi_powers[x2]).entries()
                    if lam(x1, x2) != expected:
                        wrong.append((spec, x1, x2))
                    if spec in affine and affine_lambda(spec, x1, x2) != expected:
                        wrong.append((spec, x1, x2, "affine"))
        assert len(valid) == 122
        assert len(affine) == 20
        assert wrong == []

    @given(spec=valid_specs, x1=coordinates_64_bit, x2=coordinates_64_bit)
    def test_fixture_families_at_64_bit_coordinates(self, spec, x1, x2):
        expected = squared_power(spec.phi, x1) * squared_power(spec.psi, x2)
        assert lambda_map(spec)(x1, x2) == expected.entries()
        assert lambda_of(spec, Vec2(x1, x2)) == expected

    def test_table_matches_products_on_every_finite_order_pair_at_bound_2(self):
        # Every ordered pair, commuting or not: on the valid ones the lookup
        # at (x1 mod n_phi, x2 mod n_psi) against phi^x1 psi^x2 multiplied
        # out; every other one is refused.
        assert len(FINITE_BOX_2) == 40
        assert {order_by_iteration(m) for m in FINITE_BOX_2} == {1, 2, 3, 4, 6}
        powers = {m: repeated_powers(m, 6) for m in FINITE_BOX_2}
        grid = [(x1, x2) for x1 in range(-6, 7) for x2 in range(-6, 7)]
        kinds = set()
        valid = refused = 0
        for phi in FINITE_BOX_2:
            for psi in FINITE_BOX_2:
                spec = BraceSpec(phi, psi)
                is_valid = check_pair(spec).valid
                kinds.add((commutes(phi, psi), is_valid))
                if not is_valid:
                    with pytest.raises(InvalidSpec):
                        lambda_map(spec)
                    refused += 1
                    continue
                valid += 1
                lam = lambda_map(spec)
                for x1, x2 in grid:
                    expected = (powers[phi][x1] * powers[psi][x2]).entries()
                    assert lam(x1, x2) == expected, (spec, x1, x2)
        assert kinds == {(False, False), (True, False), (True, True)}
        assert (valid, refused) == (78, 1522)

    @given(spec=finite_64_bit_specs, x1=coordinates_64_bit, x2=coordinates_64_bit)
    def test_table_matches_products_on_64_bit_finite_order_pairs(self, spec, x1, x2):
        assert not has_infinite_order(spec)
        assert check_pair(spec).valid
        expected = squared_power(spec.phi, x1) * squared_power(spec.psi, x2)
        assert lambda_map(spec)(x1, x2) == expected.entries()
        assert lambda_of(spec, Vec2(x1, x2)) == expected

    @given(phi=finite_64_bit, psi=finite_64_bit, x1=coordinates_64_bit, x2=coordinates_64_bit)
    def test_refuses_invalid_64_bit_finite_order_pairs(self, phi, psi, x1, x2):
        spec = BraceSpec(phi, psi)
        assume(not check_pair(spec).valid)
        assert not has_infinite_order(spec)
        with pytest.raises(InvalidSpec):
            lambda_map(spec)
        expected = squared_power(phi, x1) * squared_power(psi, x2)
        assert lambda_of(spec, Vec2(x1, x2)) == expected

    @given(
        m=st.integers(-(2**64), 2**64).filter(bool),
        p=st.integers(-(2**64), 2**64),
        q=st.integers(-(2**64), 2**64),
        x1=coordinates_64_bit,
        x2=coordinates_64_bit,
    )
    def test_affine_branch_on_64_bit_members_of_1_2(self, m, p, q, x1, x2):
        assume(gcd(p, q) == 1)
        spec = generate_row(RowLabel.R1_2, RowParams(m=m, p=p, q=q))
        assert has_infinite_order(spec)
        expected = squared_power(spec.phi, x1) * squared_power(spec.psi, x2)
        assert lambda_map(spec)(x1, x2) == expected.entries()
        assert affine_lambda(spec, x1, x2) == expected.entries()

    def test_no_pair_with_a_hyperbolic_member_is_valid_at_bound_3(self):
        # The lemma lambda_map refuses a hyperbolic generator by, on every
        # box up to bound 3; hyperbolic is the formula t^2 > 4 det + 4 here.
        hyperbolic = {m for m in BOX_3 if m.trace() ** 2 > 4 * m.det() + 4}
        pairs = [
            BraceSpec(phi, psi)
            for phi in BOX_3
            for psi in BOX_3
            if phi in hyperbolic or psi in hyperbolic
        ]
        assert (len(hyperbolic), len(pairs)) == (120, 41_280)
        assert [spec for spec in pairs if check_pair(spec).valid] == []

    @pytest.mark.parametrize("bits", [14, 41, 256])
    def test_refuses_a_hyperbolic_generator_before_check_pair(self, bits, monkeypatch):
        # At 41 bits check_pair on (m, m) takes powers too large to finish,
        # so the refusal must come before check_pair or any power map.
        def no_check_pair(spec):
            raise AssertionError(f"check_pair called on {spec}")

        def no_power_map(m):
            raise AssertionError(f"power map built for {m}")

        monkeypatch.setattr(brace, "check_pair", no_check_pair)
        monkeypatch.setattr(Mat2, "power_map", no_power_map)
        m, n = hyperbolic_pair(bits)
        for phi, psi in ((m, m), (m, n), (m, IDENTITY), (-IDENTITY, m), (M_2110, m)):
            with pytest.raises(InvalidSpec, match="fails the pair conditions"):
                lambda_map(BraceSpec(phi, psi))

    @pytest.mark.parametrize(
        "spec", [*ALL_FIXTURE_SPECS, *(spec for _, _, spec in MEMBERS_64_BIT)], ids=str
    )
    def test_one_power_map_per_generator_per_build(self, spec, monkeypatch):
        # _lambda_form decides validity and fills the table from the same
        # power data, built once per generator (gl2z._powers), and builds
        # no power map; lambda_map and the r_map on it build nothing more,
        # and evaluating r builds no power data at all.
        built = []

        def counting_powers(m, det, trace):
            built.append(m)
            return _powers(m, det, trace)

        def no_power_map(m):
            raise AssertionError(f"power map built for {m}")

        monkeypatch.setattr(brace, "_powers", counting_powers)
        monkeypatch.setattr(Mat2, "power_map", no_power_map)
        for build in (_lambda_form, lambda_map):
            built.clear()
            build(spec)
            assert built == [spec.phi, spec.psi], build
        built.clear()
        r = r_map(spec)
        assert built == [spec.phi, spec.psi]
        for point in product(range(-4, 5), repeat=4):
            r(*point)
        assert built == [spec.phi, spec.psi]
        with pytest.raises(InvalidSpec):
            r_map(SPEC_BAD)

    def test_check_pair_matches_the_entry_reading_on_every_pair_at_bound_3(self):
        assert len(BOX_3) ** 2 == 53824
        for phi in BOX_3:
            for psi in BOX_3:
                spec = BraceSpec(phi, psi)
                assert check_pair(spec) == squared_check_pair(spec), spec

    @pytest.mark.parametrize("pairs", hyperbolic_inputs(range(10, 15)))
    def test_check_pair_matches_the_entry_reading_on_hyperbolic_pairs(self, pairs):
        for phi, psi in pairs:
            spec = BraceSpec(phi, psi)
            assert check_pair(spec) == squared_check_pair(spec), spec


class TestPowerIdentities:
    """_valid_partners, the early-exit row decider of the search and of
    _lambda_form, against check_pair's public verdict and the per-pair
    decider it replaced (oracles.identities_hold), and the powers each of
    them draws."""

    def test_matches_check_pair_on_every_pair_at_bound_3(self):
        # Every pair of the box with no hyperbolic member, on the power data
        # of both, each psi as a one-item row: the in-class matrices the
        # search meets, and the trace -2 parabolics and the orders 4 and 6
        # that _lambda_form can meet.
        assert len(BOX_3) ** 2 == 53824
        data = {m: _powers(m, m.det(), m.trace()) for m in BOX_3 if not m.is_hyperbolic()}
        assert {m._shape() for m in data} == {
            (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (4, 0), (6, 0)
        }
        for phi, phi_powers in data.items():
            for psi, psi_powers in data.items():
                verdict = check_pair(BraceSpec(phi, psi))
                kept = _valid_partners(phi, phi_powers, (psi,), data)
                assert kept in ([], [psi]), (phi, psi)
                held = verdict.commuting and kept == [psi]
                assert held == verdict.valid, (phi, psi)
                by_pair = identities_hold(phi, psi, phi_powers, psi_powers)
                assert (kept == [psi]) == by_pair, (phi, psi)

    @pytest.mark.parametrize("pairs", hyperbolic_inputs(range(8, 15)))
    def test_matches_check_pair_on_hyperbolic_pairs(self, pairs):
        # phi^k psi^l = E iff phi^k = psi^(-l) on any pair, so the four
        # identities read through Mat2.power_map, every power taken in
        # full, are the plain reading here too.  check_pair's hyperbolic
        # rule skips those powers where the flags differ or the pair does
        # not commute; its verdict must not change by it.
        for phi, psi in pairs:
            verdict = check_pair(BraceSpec(phi, psi))
            phi_power, psi_power = phi.power_map(), psi.power_map()
            held = all(phi_power(k) == psi_power(-l) for k, l in condition_exponents(phi, psi))
            assert held == all(verdict.power_identities), (phi, psi)
            assert (verdict.commuting and held) == verdict.valid, (phi, psi)

    def test_parabolic_powers_are_written_out_right_on_either_side(self):
        # Beside each parabolic m of the box (trace 2 or -2), on either side,
        # stands a table side whose entry tuple only sets the exponents: two
        # of the four identities take m to any k and j in [-6, 6], and its
        # table of 101 entries holds, at each index an identity reads, the
        # power of m, by repeated products, that the identity must meet.  So
        # all four hold exactly when every power of m written out is right,
        # unless m's own two identities need different powers at one index
        # (fits is False), as they do for 8 of the 40 matrices.
        size, unused = 101, (0, 0, 0, 0)

        def table(needs):
            entries, fits = [unused] * size, True
            for index, power in needs:
                fits = fits and entries[index % size] in (unused, power)
                entries[index % size] = power
            return tuple(entries), fits

        parabolic = {m: _powers(m, m.det(), m.trace()) for m in BOX_3}
        parabolic = {m: s for m, s in parabolic.items() if type(s) is int}
        assert sorted(Counter(parabolic.values()).items()) == [(-1, 20), (1, 20)]
        held = 0
        for m, sign in parabolic.items():
            power = {k: p.entries() for k, p in repeated_powers(m, 12).items()}
            m11, m12, m21, m22 = m
            for k, j in product(range(-6, 7), repeat=2):
                entries, fits = table(
                    [(50, power[k]), (60, power[j]), (m11 - 1, power[-m21]), (m12, power[1 - m22])]
                )
                kept = _valid_partners((51, 60, -k, 1 - j), entries, (m,), {m: sign})
                assert kept == [m] * fits, (m, k, j)
                held += fits
                entries, fits = table(
                    [(-m21, power[m11 - 1]), (1 - m22, power[m12]), (50, power[k]), (60, power[j])]
                )
                psi = (k + 1, j, -50, -59)
                assert _valid_partners(m, sign, (psi,), {psi: entries}) == [psi] * fits, (m, k, j)
                held += fits
        assert held == 32 * 2 * 13**2

    def test_identities_are_decided_as_they_are_drawn(self, monkeypatch):
        # For (R, E) with the reflection R = [[1, 1], [0, -1]], and for
        # (shear, E), the first identity, phi^0 psi^0 = E, holds and the
        # second, phi^1 psi^(-l) = E, fails.  _valid_partners reads R's own
        # two powers once for the row, then E's table twice for each psi
        # and stops there, where check_pair decides all four.  A shear's
        # powers are written out, so only E's table is read.
        reflection, shear = Mat2(1, 1, 0, -1), Mat2(1, 1, 0, 1)
        read = []

        class RecordingTable(tuple):
            def __getitem__(self, index):
                read.append((len(self), index))
                return tuple.__getitem__(self, index)

        power = {IDENTITY: RecordingTable(_powers(IDENTITY, 1, 2))}
        reflection_powers = RecordingTable(_powers(reflection, -1, 0))
        assert _valid_partners(reflection, reflection_powers, (IDENTITY,), power) == []
        assert read == [(2, 0), (2, 1), (1, 0), (1, 0)]
        read.clear()
        row = (IDENTITY, IDENTITY)
        assert _valid_partners(reflection, reflection_powers, row, power) == []
        assert read == [(2, 0), (2, 1), (1, 0), (1, 0), (1, 0), (1, 0)]
        read.clear()
        assert _valid_partners(shear, _powers(shear, 1, 2), (IDENTITY,), power) == []
        assert read == [(1, 0), (1, 0)]

        exponents = []
        power_map = Mat2.power_map

        def recording_power_map(m):
            power = power_map(m)
            if m not in (reflection, shear):
                return power

            def recording_power(k):
                exponents.append(k)
                return power(k)

            return recording_power

        monkeypatch.setattr(Mat2, "power_map", recording_power_map)
        for phi in (reflection, shear):
            exponents.clear()
            verdict = check_pair(BraceSpec(phi, IDENTITY))
            assert verdict.power_identities == (True, False, True, True)
            assert len(exponents) == 4


# The finite-order matrices of GL2(Z) up to conjugation, other than +-E:
# the two reflection classes (order 2, det -1) and the rotations of orders
# 3, 4 and 6 with their inverses.
FINITE_ORDER_CLASSES = [
    Mat2(1, 0, 0, -1),
    Mat2(0, 1, 1, 0),
    Mat2(0, -1, 1, -1),
    Mat2(-1, 1, -1, 0),
    Mat2(0, -1, 1, 0),
    Mat2(0, 1, -1, 0),
    Mat2(0, -1, 1, 1),
    Mat2(1, 1, -1, 0),
]


def conjugate(c, s, t):
    # g^-1 c g for g = [[1, s], [0, 1]] [[1, 0], [t, 1]]; with |s|, |t| up
    # to 2^16 the entries reach about 2^64 times those of c.
    g = Mat2(1, s, 0, 1) * Mat2(1, 0, t, 1)
    return g.inverse() * c * g


# Finite-order classes and the parabolic classes +-(E + mN), N = [[0, 1], [0, 0]]:
# their powers are periodic or affine in k, so squared_power stays cheap at
# exponents the size of the entries.
class_representatives = st.one_of(
    st.sampled_from(FINITE_ORDER_CLASSES),
    st.builds(
        lambda sign, m: Mat2(sign, sign * m, 0, sign),
        st.sampled_from((1, -1)),
        st.integers(-16, 16).filter(bool),
    ),
)
large_conjugates = st.builds(
    conjugate,
    class_representatives,
    st.integers(-(2**16), 2**16),
    st.integers(-(2**16), 2**16),
)


class TestNonCommutingPairs:
    """check_pair's rule on pairs that do not commute: no identity holds
    through a hyperbolic power, so phi^k psi^l = E iff phi^k = sE and
    psi^l = sE for one s = +-1."""

    def test_hyperbolic_powers_are_the_powers_of_hyperbolic_matrices_on_box_3(self):
        # The rule's premise, against iterated products: is_hyperbolic flags
        # exactly the matrices that are neither +-E, parabolic ((m - sE)^2
        # = 0 for s = +-1) nor of finite order, and m^k for k != 0 is
        # flagged iff m is.
        zero = Mat2(0, 0, 0, 0)
        wrong = []
        hyperbolic = 0
        for m in BOX_3:
            unipotent_up_to_sign = any(
                n * n == zero
                for n in (Mat2(m.a11 - s, m.a12, m.a21, m.a22 - s) for s in (1, -1))
            )
            expected = not unipotent_up_to_sign and order_by_iteration(m) is None
            hyperbolic += expected
            if m.is_hyperbolic() != expected:
                wrong.append((m, None))
            for k in range(-13, 14):
                if k and squared_power(m, k).is_hyperbolic() != expected:
                    wrong.append((m, k))
        assert wrong == []
        assert (hyperbolic, len(BOX_3)) == (120, 232)

    def test_identities_hold_through_both_signs_at_bound_3(self):
        # Every identity that holds on a non-commuting pair of the box holds
        # through phi^k = +-E, and both signs occur, the positive one also
        # at k != 0.
        through_neg = through_pos = 0
        not_scalar = []
        for phi in BOX_3:
            for psi in BOX_3:
                verdict = check_pair(BraceSpec(phi, psi))
                if verdict.commuting:
                    continue
                for (k, l), holds in zip(condition_exponents(phi, psi), verdict.power_identities):
                    if not holds:
                        continue
                    x = squared_power(phi, k)
                    through_neg += x == -IDENTITY
                    through_pos += x == IDENTITY and k != 0
                    if x not in (IDENTITY, -IDENTITY):
                        not_scalar.append((phi, psi, k, l))
        assert not_scalar == []
        assert (through_neg, through_pos) == (104, 4022)

    @pytest.mark.parametrize(
        "phi, psi, k, l",
        [
            # psi - E has the columns (2, -4): phi^2 = -E beside psi^-4 = E.
            (Mat2(0, -1, 1, 0), Mat2(3, 2, -4, -3), 2, -4),
            # phi - E has the columns (0, +-2): phi^0 = E beside psi^+-2 = -E.
            (Mat2(1, 0, 2, -1), Mat2(0, -1, 1, 0), 0, 2),
        ],
        ids=["phi-power-minus-E", "psi-power-minus-E"],
    )
    def test_opposite_signs_do_not_cancel(self, phi, psi, k, l):
        assert {squared_power(phi, k), squared_power(psi, l)} == {IDENTITY, -IDENTITY}
        spec = BraceSpec(phi, psi)
        assert check_pair(spec) == Verdict(
            valid=False, commuting=False, power_identities=(False, False, False, False)
        )
        assert check_pair(spec) == squared_check_pair(spec)

    @pytest.mark.parametrize("bits", [14, 256, 13_288])
    def test_two_hyperbolic_matrices_build_no_power_map(self, bits, monkeypatch):
        # No identity of a pair of two hyperbolic matrices has k = l = 0, so
        # on a non-commuting one the rule settles all four and check_pair
        # builds no power map, at 4,000 digits (13,288 bits) too.
        def no_power_map(m):
            raise AssertionError(f"power map built for {m}")

        monkeypatch.setattr(Mat2, "power_map", no_power_map)
        m, n = hyperbolic_pair(bits)
        for spec in (BraceSpec(m, n), BraceSpec(n, m)):
            assert check_pair(spec) == Verdict(
                valid=False, commuting=False, power_identities=(False, False, False, False)
            )

    @given(phi=large_conjugates, psi=large_conjugates)
    def test_conjugates_with_64_bit_entries_match_the_entry_reading(self, phi, psi):
        assume(not commutes(phi, psi))
        spec = BraceSpec(phi, psi)
        assert check_pair(spec) == squared_check_pair(spec)


class TestAssociativity:
    def test_negative_witness(self):
        a, b, c = Vec2(1, 0), Vec2(0, 1), Vec2(0, 1)
        assert odot(SPEC_BAD, a, odot(SPEC_BAD, b, c)) == Vec2(3, 2)
        assert odot(SPEC_BAD, odot(SPEC_BAD, a, b), c) == Vec2(4, 2)
        assert not odot_associative(SPEC_BAD, a, b, c)

    @given(spec=valid_specs, a=vectors, b=vectors, c=vectors)
    def test_holds_for_valid_specs(self, spec, a, b, c):
        assert odot_associative(spec, a, b, c)

    def test_an_associative_pair_that_check_pair_rejects(self):
        # check_pair decides lambda-homomorphic braces, not every brace:
        # this pair does not commute, so lambda is no homomorphism, yet the
        # multiplication is associative on a seeded box.
        spec = BraceSpec(Mat2(1, 0, 2, 1), Mat2(-1, 0, 0, 1))
        verdict = check_pair(spec)
        assert not verdict.valid and not verdict.commuting
        rng = random.Random(2026)
        triples = [
            [Vec2(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(3)]
            for _ in range(3000)
        ]
        assert [t for t in triples if not odot_associative(spec, *t)] == []


class TestHolomorph:
    def test_identity_element(self):
        h = HolElement(Vec2(3, -2), M_2110)
        assert hol_mul(HolElement(ZERO, IDENTITY), h) == h

    def test_product_example(self):
        left = HolElement(Vec2(1, 0), M_2110)
        right = HolElement(Vec2(0, 1), M_2110)
        assert hol_mul(left, right) == HolElement(Vec2(2, 0), Mat2(3, 2, -2, -1))

    def test_projection_is_first_coordinate(self):
        left = HolElement(Vec2(1, 2), M_2110)
        right = HolElement(Vec2(-1, 3), IDENTITY)
        product = hol_mul(left, right)
        assert product.g == left.g + act(left.f, right.g)

    def test_rejects_non_unimodular_automorphism(self):
        with pytest.raises(NotUnimodular):
            HolElement(ZERO, Mat2(1, 0, 0, 2))

    @given(spec=valid_specs, a=vectors, b=vectors)
    def test_lambda_graph_closed_for_valid_specs(self, spec, a, b):
        assert h_lambda_closed(spec, a, b)

    def test_lambda_graph_not_closed_for_bad_pair(self):
        assert not h_lambda_closed(SPEC_BAD, Vec2(1, 0), Vec2(0, 1))

    @given(spec=valid_specs)
    def test_closure_agrees_with_entry_reading_for_valid_specs(self, spec):
        assert check_pair(spec).power_identities == holomorph_reading(spec)

    @pytest.mark.parametrize("bits", range(8, 13))
    def test_closure_agrees_with_entry_reading_on_hyperbolic_pairs(self, bits):
        m, n = hyperbolic_pair(bits)
        for phi, psi in ((m, m), (m, m.inverse()), (m, -m), (n, n)):
            spec = BraceSpec(phi, psi)
            verdict = check_pair(spec)
            assert verdict.commuting
            assert verdict.power_identities == holomorph_reading(spec), spec


class TestRowFixturesAreValid:
    @pytest.mark.parametrize("label", list(RowLabel), ids=lambda l: l.value)
    def test_fixture_valid(self, label):
        assert check_pair(ROW_SPECS[label]).valid
