"""Reference readings that the tests check the program against.

None of these runs in a CLI command; each is a second, slower or more
literal path to a fact the program computes another way, and it uses only
public z2brace names:

  * commutant_in_box lists the whole commutant of a matrix in an entry box.
    It checks the partners that classification._search_partners gives
    exhaustive_search for each phi, and, through a search over every
    commutant (test_classification), the search report itself.
  * centralizer_finite lists the whole centralizer of a finite-order
    matrix other than +-E by group theory, with no box.  It checks
    commutant_in_box (test_gl2z), the brute-force commutant of a box
    (test_acceptance), and that the finite-order partners _search_partners
    reads off phi's own powers need no box filter (test_classification).
  * HolElement, hol_mul and h_lambda_closed read the pair conditions as
    closure of {(a, lambda_a)} in the holomorph Z^2 x| GL2(Z).  Through
    conftest.holomorph_reading they check the four power identities of
    check_pair.
  * odot_inverse is the inverse of the brace multiplication by its
    definition.  test_ybe builds the definitional r(x, y) from it and checks
    r_map against that.
  * in_lambda_kernel is the kernel of lambda by its definition,
    lambda_v = E, read off lambda_of, so it takes any pair, valid or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from z2brace import (
    IDENTITY,
    BraceSpec,
    Mat2,
    NotUnimodular,
    Vec2,
    act,
    lambda_of,
    odot,
    order_by_predicate,
)


def commutant_in_box(a: Mat2, bound: int) -> list[Mat2]:
    """Unimodular matrices with entries in [-bound, bound] that commute with a.

    a must not be scalar.  For a = ((a11, a12), (a21, a22)) the integer
    matrices commuting with a are exactly x E + t N with N = (a - a11 E)/g,
    g = gcd(a12, a21, a22 - a11), and x, t integers (the Latimer-MacDuffee
    correspondence: N is primitive with N11 = 0).  For each t that keeps the
    off-diagonal entries in the box, det(x E + t N) = +-1 is a quadratic in x
    solved exactly, so the cost is O(bound).  The result is sorted in the
    lexicographic (a11, a12, a21, a22) order of enumerate_unimodular.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    g = gcd(a.a12, a.a21, a.a22 - a.a11)
    if g == 0:
        raise ValueError(f"{a} is scalar; every matrix commutes with it")
    n12, n21, n22 = a.a12 // g, a.a21 // g, (a.a22 - a.a11) // g
    # Off-diagonal entries t*n12, t*n21 must fit; a diagonal a has n22 = +-1,
    # and |x|, |x + t*n22| <= bound then gives |t| <= 2*bound.
    off = max(abs(n12), abs(n21))
    t_max = bound // off if off else 2 * bound
    found = []
    for t in range(-t_max, t_max + 1):
        b12, b21, tn22 = t * n12, t * n21, t * n22
        # det = x^2 + tn22 x - b12 b21 = det_target, for det_target = +-1.
        for det_target in (1, -1):
            disc = tn22 * tn22 + 4 * (b12 * b21 + det_target)
            if disc < 0:
                continue
            root = isqrt(disc)
            if root * root != disc:
                continue
            # disc = tn22^2 mod 4, so root = tn22 mod 2 and both roots are integers.
            for x in {(-tn22 - root) // 2, (-tn22 + root) // 2}:
                if abs(x) <= bound and abs(x + tn22) <= bound:
                    found.append(Mat2(x, b12, b21, x + tn22))
    found.sort(key=Mat2.entries)
    return found


def centralizer_finite(a: Mat2) -> frozenset[Mat2]:
    """The centralizer of a in GL2(Z) when a has finite order and a != +-E.

    For order 2 or 4 this is {+-E, +-a}; for order 3 or 6 it is
    {+-E, +-a, +-a^-1}.  The identity, -E and infinite-order matrices have
    infinite centralizers and are rejected.
    """
    order = order_by_predicate(a)
    if not order.is_finite or order.n == 1 or a == -IDENTITY:
        raise ValueError(
            f"{a} has an infinite centralizer (order {order}); use commutes() directly"
        )
    members = {IDENTITY, -IDENTITY, a, -a}
    if order.n in (3, 6):
        inv = a.inverse()
        members.update((inv, -inv))
    return frozenset(members)


@dataclass(frozen=True, slots=True)
class HolElement:
    """Element (g, f) of the holomorph Z^2 x| GL2(Z)."""

    g: Vec2
    f: Mat2

    def __post_init__(self) -> None:
        if not self.f.is_unimodular():
            raise NotUnimodular(f"automorphism part {self.f} has determinant {self.f.det()}")


def hol_mul(h1: HolElement, h2: HolElement) -> HolElement:
    """Semidirect product law (g1, f1)(g2, f2) = (g1 + f1(g2), f1 f2)."""
    return HolElement(h1.g + act(h1.f, h2.g), h1.f * h2.f)


def h_lambda_closed(spec: BraceSpec, a: Vec2, b: Vec2) -> bool:
    """Whether (a, lambda_a)(b, lambda_b) = (a*b, lambda_(a*b)) in the holomorph.

    For a valid spec this closure holds for all a, b, which is what makes
    {(a, lambda_a)} a subgroup of the holomorph.
    """
    product = hol_mul(
        HolElement(a, lambda_of(spec, a)),
        HolElement(b, lambda_of(spec, b)),
    )
    ab = odot(spec, a, b)
    return product == HolElement(ab, lambda_of(spec, ab))


def odot_inverse(spec: BraceSpec, a: Vec2) -> Vec2:
    """-(lambda_a^-1(a)), the inverse of a for the multiplication.

    a odot result is always (0, 0); result odot a is (0, 0) whenever the
    spec is valid (for arbitrary pairs the multiplication need not be a
    group operation).
    """
    return -act(lambda_of(spec, a).inverse(), a)


def in_lambda_kernel(spec: BraceSpec, v: Vec2) -> bool:
    """True iff lambda_v = phi^v1 * psi^v2 is the identity."""
    return lambda_of(spec, v) == IDENTITY
