"""Matrix layer: exact products, inverses, powers, the (det, trace) order
table, centralizers and commutants.  Where a value was derived by hand it
is frozen here and, for the cheap cases, re-checked against a naive
textbook computation.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import order_by_shape, repeated_powers

from oracles import centralizer_finite, commutant_in_box, order_by_iteration
from z2brace import IDENTITY, Mat2, NotUnimodular, commutes, enumerate_unimodular
from z2brace.gl2z import _SHAPES

M_2110 = Mat2(2, 1, -1, 0)
SWAP = Mat2(0, 1, 1, 0)
SHEAR = Mat2(1, 1, 0, 1)

UNIMODULAR_3 = list(enumerate_unimodular(3))

unimodular_3 = st.sampled_from(UNIMODULAR_3)
small_exponents = st.integers(min_value=-8, max_value=8)
big_ints = st.integers(min_value=-(2**256), max_value=2**256)
big_matrices = st.builds(Mat2, big_ints, big_ints, big_ints, big_ints)


def naive_mul(a: Mat2, b: Mat2) -> Mat2:
    # Textbook row-by-column product, independent of Mat2.__mul__.
    rows_a, rows_b = a.rows(), b.rows()
    return Mat2.from_rows(
        [
            [
                sum(rows_a[i][k] * rows_b[k][j] for k in range(2))
                for j in range(2)
            ]
            for i in range(2)
        ]
    )


class TestProduct:
    def test_identity(self):
        assert IDENTITY * M_2110 == M_2110
        assert M_2110 * IDENTITY == M_2110

    def test_hand_squared(self):
        assert M_2110 * M_2110 == Mat2(3, 2, -2, -1)

    def test_swap_involution(self):
        assert SWAP * SWAP == IDENTITY

    @given(a=unimodular_3, b=unimodular_3)
    def test_matches_naive(self, a, b):
        assert a * b == naive_mul(a, b)

    @given(a=unimodular_3, b=unimodular_3)
    def test_det_multiplicative(self, a, b):
        assert (a * b).det() == a.det() * b.det()


class TestInverse:
    def test_identity(self):
        assert IDENTITY.inverse() == IDENTITY

    @pytest.mark.parametrize(
        "matrix,expected",
        [
            (M_2110, Mat2(0, -1, 1, 2)),
            (Mat2(3, 2, 1, 1), Mat2(1, -2, -1, 3)),
        ],
    )
    def test_hand_inverses(self, matrix, expected):
        assert matrix.inverse() == expected
        assert matrix * expected == IDENTITY

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            Mat2(2, 0, 0, 2).inverse()
        with pytest.raises(NotUnimodular):
            Mat2(1, 2, 3, 4).inverse()

    @given(a=unimodular_3)
    def test_two_sided(self, a):
        assert a * a.inverse() == IDENTITY
        assert a.inverse() * a == IDENTITY


class TestPower:
    def test_shear_cubed(self):
        assert SHEAR**3 == Mat2(1, 3, 0, 1)

    def test_zero_exponent(self):
        assert M_2110**0 == IDENTITY
        assert Mat2(1, 2, 3, 4) ** 0 == IDENTITY

    def test_negative_one_is_inverse(self):
        assert M_2110**-1 == M_2110.inverse()

    def test_negative_exponent_needs_unimodular(self):
        with pytest.raises(NotUnimodular):
            Mat2(1, 2, 3, 4) ** -2

    @given(a=unimodular_3, k=small_exponents)
    def test_power_cancels_with_negative(self, a, k):
        assert a**k * a**-k == IDENTITY

    @given(a=unimodular_3, j=small_exponents, k=small_exponents)
    def test_power_additive(self, a, j, k):
        assert a ** (j + k) == a**j * a**k


ENTRY_BOX_4 = [
    Mat2(a11, a12, a21, a22)
    for a11 in range(-4, 5)
    for a12 in range(-4, 5)
    for a21 in range(-4, 5)
    for a22 in range(-4, 5)
]

# Family 1.2 at m = 2^256 + 1, p = 2, q = -3: phi = E + m p (pq, q^2; -p^2, -pq)
# and psi = E + m q (pq, q^2; -p^2, -pq), both parabolic.
ROW12_M = 2**256 + 1
ROW12_PHI = Mat2(1 - 12 * ROW12_M, 18 * ROW12_M, -8 * ROW12_M, 1 + 12 * ROW12_M)
ROW12_PSI = Mat2(1 + 18 * ROW12_M, -27 * ROW12_M, 12 * ROW12_M, 1 - 18 * ROW12_M)

#: One matrix of each class raised in closed form: +-E, orders 2/3/4/6,
#: shears of both signs and both matrices of a 1.2 member.
CLOSED_FORM = {
    "E": IDENTITY,
    "-E": -IDENTITY,
    "order 2, det -1": SWAP,
    "order 3": Mat2(0, -1, 1, -1),
    "order 4": Mat2(1, 2, -1, -1),
    "order 6": Mat2(2, 3, -1, -1),
    "shear": SHEAR,
    "negative shear": Mat2(-1, 0, 7, -1),
    "1.2 member phi": ROW12_PHI,
    "1.2 member psi": ROW12_PSI,
}

huge_exponents = st.integers(min_value=-(2**256), max_value=2**256)


class TestPowerClosedForm:
    def test_agrees_with_repeated_multiplication_on_entry_box(self):
        # Every integer matrix with entries in [-4, 4], unimodular or not;
        # a negative power of a non-unimodular one must raise.
        k_max = 20
        wrong, not_raised = [], []
        for a in ENTRY_BOX_4:
            powers = repeated_powers(a, k_max)
            for k in range(-k_max, k_max + 1):
                if k in powers:
                    if a**k != powers[k]:
                        wrong.append((a, k))
                    continue
                try:
                    a**k
                except NotUnimodular:
                    continue
                not_raised.append((a, k))
        assert wrong == []
        assert not_raised == []

    def test_classes_are_what_the_names_say(self):
        assert ROW12_PHI * ROW12_PSI == ROW12_PSI * ROW12_PHI
        for name, a in CLOSED_FORM.items():
            order = order_by_iteration(a)
            if name.startswith("order"):
                assert order == int(name[6])
            elif name in ("E", "-E"):
                assert order is not None
            else:
                assert order is None and abs(a.trace()) == 2

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM))
    def test_huge_exponents_use_no_matrix_product(self, name, monkeypatch):
        a = CLOSED_FORM[name]
        exponents = [0, 1, -1, 2**4096, -(2**4096), 2**4096 - 1, 1 - 2**4096, 3**2500]
        expected = {k: a**k for k in exponents}
        calls = []
        product = Mat2.__mul__

        def counting_mul(self, other):
            calls.append(1)
            return product(self, other)

        monkeypatch.setattr(Mat2, "__mul__", counting_mul)
        for k in exponents:
            calls.clear()
            assert a**k == expected[k]
            assert calls == [], (name, k)
        monkeypatch.undo()
        order = order_by_iteration(a)
        if order is not None:
            small = repeated_powers(a, order)
            for k in exponents:
                assert expected[k] == small[k % order]
        else:
            # Parabolic: a = s (E + N) with N = s a - E, N^2 = 0.
            s = a.trace() // 2
            n11, n12, n21, n22 = s * a.a11 - 1, s * a.a12, s * a.a21, s * a.a22 - 1
            assert Mat2(n11, n12, n21, n22) * Mat2(n11, n12, n21, n22) == Mat2(0, 0, 0, 0)
            for k in exponents:
                sign = s ** (k % 2)
                assert expected[k] == Mat2(
                    sign * (1 + k * n11), sign * k * n12, sign * k * n21, sign * (1 + k * n22)
                )

    @given(name=st.sampled_from(sorted(CLOSED_FORM)), j=huge_exponents, k=huge_exponents)
    def test_exponents_add_at_256_bits(self, name, j, k):
        a = CLOSED_FORM[name]
        assert a**j * a**k == a ** (j + k)
        assert a**k * a**-k == IDENTITY


ENTRY_BOX_3 = [
    Mat2(a11, a12, a21, a22)
    for a11 in range(-3, 4)
    for a12 in range(-3, 4)
    for a21 in range(-3, 4)
    for a22 in range(-3, 4)
]


class TestPowerMap:
    def test_agrees_with_repeated_multiplication_at_bound_3(self):
        # Every integer matrix with entries in [-3, 3] and every |k| <= 12
        # through one map per matrix, as check_pair and ybe use it: the
        # affine, period-table and binary-exponentiation branches, and
        # NotUnimodular for a negative power without an integer inverse.
        k_max = 12
        wrong, not_raised = [], []
        for a in ENTRY_BOX_3:
            power = a.power_map()
            powers = repeated_powers(a, k_max)
            for k in range(-k_max, k_max + 1):
                if k in powers:
                    if power(k) != powers[k].entries():
                        wrong.append((a, k))
                    continue
                try:
                    power(k)
                except NotUnimodular:
                    continue
                not_raised.append((a, k))
        assert len(ENTRY_BOX_3) == 2401
        assert wrong == []
        assert not_raised == []


class TestDetTrace:
    @pytest.mark.parametrize(
        "matrix,det,trace",
        [
            (IDENTITY, 1, 2),
            (M_2110, 1, 2),
            (Mat2(1, 2, 0, -1), -1, 0),
        ],
    )
    def test_values(self, matrix, det, trace):
        assert matrix.det() == det
        assert matrix.trace() == trace


class TestOrders:
    """The order Mat2._shape reads off _SHAPES (order_by_shape), against
    the powers multiplied out (oracles.order_by_iteration)."""

    @pytest.mark.parametrize(
        "matrix,n",
        [
            (IDENTITY, 1),
            (-IDENTITY, 2),
            (SWAP, 2),
            (Mat2(0, -1, 1, 0), 4),
            (Mat2(0, -1, 1, -1), 3),
            (Mat2(0, -1, 1, 1), 6),
            # Diagonal with a shape but not +-E: degree 0, order 2.
            (Mat2(1, 0, 0, -1), 2),
        ],
    )
    def test_predicate_finite(self, matrix, n):
        assert order_by_shape(matrix) == n
        assert order_by_iteration(matrix) == n

    def test_predicate_infinite(self):
        assert order_by_shape(SHEAR) is None

    @pytest.mark.parametrize(
        "matrix",
        [
            -SHEAR,  # (1, -2): degree 1, not -E
            Mat2(1, 0, 1, 1),  # (1, 2): the lower shear
            Mat2(2, 1, 1, 1),  # det 1, trace 3: hyperbolic
            Mat2(1, 1, 1, 0),  # det -1, trace 1: hyperbolic
            Mat2(-2, 1, 1, 0),  # det -1, trace -2: hyperbolic
        ],
        ids=["minus-shear", "lower-shear", "det1-trace3", "det-1-trace1", "det-1-trace-2"],
    )
    def test_degree_1_or_no_shape_has_no_finite_order(self, matrix):
        assert order_by_shape(matrix) is None
        assert order_by_iteration(matrix) is None

    def test_iteration_examples(self):
        assert order_by_iteration(IDENTITY) == 1
        assert order_by_iteration(-IDENTITY) == 2
        assert order_by_iteration(Mat2(0, -1, 1, -1)) == 3
        assert order_by_iteration(SHEAR) is None

    def test_non_unimodular_has_no_order(self):
        # No key of _SHAPES has a determinant other than +-1, and no power
        # of 2E is E.
        assert Mat2(2, 0, 0, 2)._shape() is None
        assert order_by_shape(Mat2(2, 0, 0, 2)) is None
        assert order_by_iteration(Mat2(2, 0, 0, 2)) is None

    @given(a=unimodular_3)
    def test_predicate_agrees_with_iteration(self, a):
        assert order_by_shape(a) == order_by_iteration(a)

    def test_shapes_name_only_the_finite_orders_of_gl2z(self):
        # Degree 0 periods are orders; every key is a unimodular class.
        periods = {period for period, degree in _SHAPES.values() if not degree}
        assert periods == {2, 3, 4, 6}
        assert {period for period, _ in _SHAPES.values()} == {1, 2, 3, 4, 6}
        assert {det for det, _ in _SHAPES} == {1, -1}


def hyperbolic_by_formula(m: Mat2) -> bool:
    # The test Mat2.is_hyperbolic made before _SHAPES: t^2 > 4 det + 4.
    t = m.trace()
    return t * t > 4 * m.det() + 4


def second_difference(powers, k, p):
    # Entries of M^(k+2p) - 2 M^(k+p) + M^k.
    return tuple(
        a - 2 * b + c for a, b, c in zip(powers[k + 2 * p], powers[k + p], powers[k])
    )


SHAPE_EXPONENTS = 12
NO_DIFFERENCE = (0, 0, 0, 0)


def shape_disagreements(m: Mat2) -> list:
    """Where m._shape() disagrees with its three references, [] if nowhere.

    m^k for |k| <= 12 comes from repeated multiplication, and power_map
    must give the same entries.  Then: None exactly when the old formula
    says hyperbolic; degree 0 exactly when order_by_iteration finds a
    finite order, and then period = order; with degree 0, M^(k+period) =
    M^k; with degree 1, the second differences with step period vanish on
    every residue class, the first differences do not, and no shorter
    step makes the second differences vanish; with None, no step up to 6
    does (M^2p - 2M^p + E = (M^p - E)^2 = 0 would make M^p unipotent).
    """
    shape = m._shape()
    powers = {k: p.entries() for k, p in repeated_powers(m, SHAPE_EXPONENTS).items()}
    power = m.power_map()
    wrong = [("power_map", k) for k in powers if power(k) != powers[k]]
    if (shape is None) != hyperbolic_by_formula(m):
        wrong.append("formula")
    order = order_by_iteration(m)
    if shape is None:
        if order is not None:
            wrong.append("order")
        if any(second_difference(powers, 0, p) == NO_DIFFERENCE for p in range(1, 7)):
            wrong.append("powers")
        return wrong
    period, degree = shape
    if (order is None) != bool(degree) or (not degree and order != period):
        wrong.append("order")
    ks = range(-SHAPE_EXPONENTS, SHAPE_EXPONENTS + 1 - 2 * period)
    if degree:
        affine = all(
            second_difference(powers, k, period) == NO_DIFFERENCE
            and powers[k + period] != powers[k]
            for k in ks
        )
        shortest = all(
            second_difference(powers, 0, p) != NO_DIFFERENCE for p in range(1, period)
        )
        if not (affine and shortest):
            wrong.append("powers")
    elif any(powers[k + period] != powers[k] for k in ks):
        wrong.append("powers")
    return wrong


UNIMODULAR_8 = list(enumerate_unimodular(8))

# A representative of each shape up to conjugation in GL2(Z), with its
# shape: the classes an in-class matrix can come from (order 3, the two
# reflection classes, E + mN), then orders 4 and 6, trace -2 and two
# hyperbolic matrices.  +-E are central, so they have no other conjugate.
SHAPE_CLASSES = [
    pytest.param(Mat2(0, -1, 1, -1), (3, 0), id="order-3"),
    pytest.param(Mat2(1, 0, 0, -1), (2, 0), id="diag(1,-1)"),
    pytest.param(SWAP, (2, 0), id="swap"),
    pytest.param(Mat2(1, 5, 0, 1), (1, 1), id="E+5N"),
    pytest.param(Mat2(1, -1, 0, 1), (1, 1), id="E-N"),
    pytest.param(Mat2(0, -1, 1, 0), (4, 0), id="order-4"),
    pytest.param(Mat2(0, -1, 1, 1), (6, 0), id="order-6"),
    pytest.param(Mat2(-1, 3, 0, -1), (2, 1), id="trace-minus-2"),
    pytest.param(Mat2(2, 1, 1, 1), None, id="hyperbolic-det-1"),
    pytest.param(Mat2(1, 1, 1, 0), None, id="hyperbolic-det-minus-1"),
]


def conjugates_64_bit(c: Mat2, seed: int, count: int) -> list[Mat2]:
    # g^-1 c g for seeded g = [[1, s], [0, 1]] [[1, 0], [t, 1]], times the
    # swap for about half of them, with |s|, |t| < 2^32: g has entries of
    # about 64 bits, and the conjugates of SHAPE_CLASSES have 52 to 127.
    rng = random.Random(seed)
    result = []
    for _ in range(count):
        s, t = (rng.getrandbits(33) - 2**32 for _ in range(2))
        g = Mat2(1, s, 0, 1) * Mat2(1, 0, t, 1)
        if rng.getrandbits(1):
            g = g * SWAP
        result.append(g.inverse() * c * g)
    return result


class TestShape:
    """Mat2._shape, the one reading of _SHAPES, against order_by_iteration,
    repeated multiplication and the old hyperbolic formula."""

    def test_agrees_with_the_references_on_the_box_of_bound_8(self):
        assert [(m, wrong) for m in UNIMODULAR_8 if (wrong := shape_disagreements(m))] == []
        assert Counter(m._shape() for m in UNIMODULAR_8) == {
            (1, 0): 1, (2, 0): 133, (1, 1): 76, (2, 1): 76,
            (3, 0): 28, (4, 0): 26, (6, 0): 28, None: 1016,
        }

    def test_gives_the_iterated_order_on_the_box_of_bound_60(self):
        # Shape (n, 0) exactly when multiplying out finds order n, and
        # degree 1 or no shape exactly when it finds no finite order.
        box = list(enumerate_unimodular(60))
        wrong = [m for m in box if order_by_shape(m) != order_by_iteration(m)]
        assert len(box) == 70504
        assert wrong == []

    def test_plus_minus_identity_have_degree_0(self):
        assert IDENTITY._shape() == (1, 0)
        assert (-IDENTITY)._shape() == (2, 0)

    def test_non_unimodular_matrices_have_no_shape(self):
        for m in (Mat2(0, 0, 0, 0), Mat2(2, 0, 0, 2), Mat2(1, 1, 1, 1), Mat2(2, 1, 0, 0)):
            assert m._shape() is None

    @pytest.mark.parametrize("c,shape", SHAPE_CLASSES)
    def test_agrees_with_the_references_on_64_bit_conjugates(self, c, shape):
        assert c._shape() == shape
        for m in conjugates_64_bit(c, seed=2026, count=20):
            assert max(map(abs, m)).bit_length() >= 48
            assert m._shape() == shape, m
            assert shape_disagreements(m) == [], m


def order_by_recurrence(d: int, t: int) -> int | None:
    # Smallest n <= 12 with u_n = 0 and -d u_(n-1) = 1, else None.
    prev, cur = 0, 1
    for n in range(1, 13):
        if cur == 0 and -d * prev == 1:
            return n
        prev, cur = cur, t * cur - d * prev
    return None


class TestOrderLemma:
    """_SHAPES on all of Z^2, with no box.

    Cayley-Hamilton gives M^n = u_n M - d u_(n-1) E for det d and trace t,
    where u_0 = 0, u_1 = 1 and u_(n+1) = t u_n - d u_(n-1).  For non-scalar
    M, E and M are linearly independent, so M^n = E iff u_n = 0 and
    -d u_(n-1) = 1, a condition on (d, t) alone; every finite order in
    GL2(Z) divides 12, so the recurrence run to n = 12 decides the order of
    every non-scalar unimodular M with |t| <= 3, and the companion matrix
    ((0, -d), (1, t)) stands for all of them.  Every other non-scalar
    unimodular M has no finite order: its eigenvalues are the roots of
    x^2 - t x + d, real because t^2 - 4d > 0 when |t| >= 3 or d = -1, with
    product d = +-1 and not +-1 themselves (a root +-1 needs t = +-2 for
    d = 1 and t = 0 for d = -1).  So one eigenvalue has absolute value
    above 1, and so does some eigenvalue of every power M^n, n >= 1.  With
    +-E, of orders 1 and 2, this is _SHAPES, as Mat2._shape reads it, on
    every unimodular matrix: finite order n exactly when the shape is
    (n, 0).
    """

    @pytest.mark.parametrize("d", [1, -1])
    @pytest.mark.parametrize("t", range(-3, 4))
    def test_recurrence_gives_the_shape(self, d, t):
        companion = Mat2(0, -d, 1, t)
        assert (companion.det(), companion.trace()) == (d, t)
        assert order_by_shape(companion) == order_by_recurrence(d, t)
        # The recurrence is Cayley-Hamilton: M^n = u_n M - d u_(n-1) E.
        prev, cur, power = 0, 1, companion
        for _ in range(12):
            assert power == Mat2(-d * prev, -d * cur, cur, t * cur - d * prev)
            prev, cur, power = cur, t * cur - d * prev, power * companion

    def test_every_finite_order_is_reached(self):
        orders = {order_by_recurrence(d, t) for d in (1, -1) for t in range(-3, 4)}
        assert orders == {None, 2, 3, 4, 6}


class TestCommutes:
    def test_with_identity_and_self(self):
        assert commutes(M_2110, IDENTITY)
        assert commutes(M_2110, M_2110)

    def test_shears_do_not_commute(self):
        assert not commutes(SHEAR, Mat2(1, 0, 1, 1))

    def test_matches_products_on_every_pair_at_bound3(self):
        # All 232^2 = 53,824 ordered pairs of the box.
        pairs = [(a, b) for a in UNIMODULAR_3 for b in UNIMODULAR_3]
        assert len(pairs) == 53_824
        mismatches = [(a, b) for a, b in pairs if commutes(a, b) != (a * b == b * a)]
        assert mismatches == []

    @given(a=big_matrices, b=big_matrices)
    def test_matches_products_at_256_bits(self, a, b):
        assert commutes(a, b) == (a * b == b * a)

    @given(
        n=big_matrices,
        coeffs=st.tuples(big_ints, big_ints, big_ints, big_ints),
        offset=st.tuples(*[st.integers(min_value=-2, max_value=2)] * 4),
    )
    def test_matches_products_on_polynomials_in_one_matrix(self, n, coeffs, offset):
        # xE + tN and yE + uN commute; a small offset on one of them mostly
        # breaks that, so both answers are hit at 256 bits.
        x, t, y, u = coeffs
        a = Mat2(x + t * n.a11, t * n.a12, t * n.a21, x + t * n.a22)
        b = Mat2(y + u * n.a11, u * n.a12, u * n.a21, y + u * n.a22)
        assert commutes(a, b)
        assert a * b == b * a
        shifted = Mat2(*(e + d for e, d in zip(b.entries(), offset)))
        assert commutes(a, shifted) == (a * shifted == shifted * a)


class TestCentralizer:
    def test_order_two(self):
        expected = {IDENTITY, -IDENTITY, SWAP, -SWAP}
        assert centralizer_finite(SWAP) == expected

    def test_order_three_has_six_elements(self):
        a = Mat2(0, -1, 1, -1)
        result = centralizer_finite(a)
        assert result == {IDENTITY, -IDENTITY, a, -a, a.inverse(), -a.inverse()}
        assert len(result) == 6

    def test_order_six_has_six_elements(self):
        a = Mat2(0, -1, 1, 1)
        assert len(centralizer_finite(a)) == 6

    @pytest.mark.parametrize("matrix", [IDENTITY, -IDENTITY, SHEAR])
    def test_rejects_infinite_centralizers(self, matrix):
        with pytest.raises(ValueError):
            centralizer_finite(matrix)

    def test_members_commute(self):
        for a in (SWAP, Mat2(0, -1, 1, -1), Mat2(0, -1, 1, 0), Mat2(0, -1, 1, 1)):
            for b in centralizer_finite(a):
                assert commutes(a, b)

    def test_complete_within_small_box(self):
        # Brute force: unimodular matrices commuting with an order-2 element
        # are exactly its centralizer.
        a = SWAP
        box = [b for b in enumerate_unimodular(2) if commutes(a, b)]
        assert set(box) == centralizer_finite(a)


def brute_commutant(a: Mat2, bound: int) -> list[Mat2]:
    # The scan commutant_in_box replaces: filter the whole box, sorted.
    return sorted(b for b in enumerate_unimodular(bound) if commutes(a, b))


class TestCommutantInBox:
    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_matches_brute_force_on_every_box_member(self, bound):
        for a in enumerate_unimodular(bound):
            if a in (IDENTITY, -IDENTITY):
                continue
            assert commutant_in_box(a, bound) == brute_commutant(a, bound), a

    @pytest.mark.parametrize("scalar", [IDENTITY, -IDENTITY, Mat2(0, 0, 0, 0), Mat2(2, 0, 0, 2)])
    def test_rejects_scalar_matrices(self, scalar):
        # Every matrix commutes with a scalar one; the caller scans the box.
        with pytest.raises(ValueError):
            commutant_in_box(scalar, 2)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            commutant_in_box(SHEAR, 0)

    @pytest.mark.parametrize("a", [Mat2(1, 0, 0, -1), Mat2(-1, 0, 0, 1), Mat2(3, 0, 0, -2)])
    @pytest.mark.parametrize("bound", [1, 3])
    def test_diagonal_non_scalar(self, a, bound):
        # N is diagonal, so only |x| <= bound and |x + t| <= bound limit t,
        # and diag(1, -1) needs |t| = 2 > bound at bound 1.
        result = commutant_in_box(a, bound)
        assert result == brute_commutant(a, bound)
        assert set(result) == {
            Mat2(s1, 0, 0, s2) for s1 in (1, -1) for s2 in (1, -1)
        }

    @pytest.mark.parametrize("a", [SWAP, Mat2(1, 2, 0, -1), Mat2(2, 1, 1, 0), Mat2(0, 1, 1, 3)])
    def test_det_minus_one(self, a):
        assert a.det() == -1
        result = commutant_in_box(a, 3)
        assert result == brute_commutant(a, 3)
        assert a in result and -a in result
        assert any(b.det() == -1 for b in result)

    @pytest.mark.parametrize(
        "a",
        [
            Mat2(0, -1, 1, -1),  # order 3
            Mat2(0, -1, 1, 0),  # order 4
            Mat2(0, -1, 1, 1),  # order 6
            Mat2(1, 2, -1, -1),  # order 4
            Mat2(2, 3, -1, -1),  # order 6
            Mat2(1, 1, 0, -1),  # order 2, det -1
        ],
    )
    def test_finite_order_matches_centralizer(self, a):
        # The box holds a and a^-1, so it holds the whole finite centralizer.
        assert set(commutant_in_box(a, 3)) == centralizer_finite(a)

    def test_infinite_order_in_wider_box(self):
        for a in (SHEAR, M_2110, Mat2(2, 1, 1, 1), Mat2(1, 2, 2, 5)):
            result = commutant_in_box(a, 8)
            assert result == brute_commutant(a, 8)
            assert a in result and a.inverse() in result

    def test_non_unimodular_input(self):
        a = Mat2(2, 4, 6, 8)
        assert commutant_in_box(a, 3) == brute_commutant(a, 3)


class TestConstruction:
    @given(a=unimodular_3, b=unimodular_3)
    def test_products_negatives_and_inverses_are_mat2(self, a, b):
        # Made by tuple.__new__ from their entry tuples, each is a Mat2
        # with the entries of its formula.
        product, negative, inverse = a * b, -a, a.inverse()
        assert type(product) is type(negative) is type(inverse) is Mat2
        assert product == naive_mul(a, b)
        assert negative.entries() == tuple(-e for e in a)
        assert naive_mul(a, inverse) == IDENTITY

    def test_from_rows_round_trip(self):
        m = Mat2.from_rows([[1, 2], [3, 4]])
        assert m == Mat2(1, 2, 3, 4)
        assert m.rows() == [[1, 2], [3, 4]]

    def test_from_rows_accepts_tuple_rows(self):
        for rows in ([(1, 2), (3, 4)], ((1, 2), [3, 4]), ((1, 2), (3, 4))):
            m = Mat2.from_rows(rows)
            assert m == Mat2(1, 2, 3, 4) and type(m.a11) is int

    @pytest.mark.parametrize(
        "bad, shape",
        [
            ([[1, 2], [3]], True),
            ([1, 2, 3, 4], True),
            ("ab", True),
            (["ab", "cd"], True),
            ([{"a": 1, "b": 2}, [3, 4]], True),
            ([[1, 2, 0], [3, 4]], True),
            ([[1, 2], [3, 4], [5, 6]], True),
            (None, True),
            ({"phi": 1, "psi": 2}, True),
            ([[1, 2], [3, "4"]], False),
            ([[1, 2], [3, True]], False),
            ([[1, 2.0], [3, 4]], False),
            ([[1, 2], [3, None]], False),
        ],
    )
    def test_from_rows_rejects_malformed(self, bad, shape):
        # A wrong shape and a non-integer entry each have their own message,
        # which the CLI prints after "error: ".
        message = (
            f"expected a 2x2 nested list, got {bad!r}"
            if shape
            else f"matrix entries must be integers, got {bad!r}"
        )
        with pytest.raises(ValueError) as exc:
            Mat2.from_rows(bad)
        assert str(exc.value) == message
