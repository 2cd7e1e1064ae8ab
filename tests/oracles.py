"""Reference readings that the tests check the program against.

None of these runs in a CLI command; each is a second, slower or more
literal path to a fact the program computes another way.  They import the
package; nothing in the package imports them.

  * Vec2, ZERO, act, lambda_of, odot and odot_associative are the brace by
    its definition: a (*) b = a + lambda_a(b) on vectors of Z^2, with
    lambda_a = phi^a1 psi^a2 formed as one product of two powers
    (Mat2.__pow__) for any pair, valid or not.  The tests check
    check_pair, lambda_map and r_map against this multiplication.
  * commutant_in_box lists the whole commutant of a matrix in an entry box.
    It checks the partners exhaustive_search decides for each phi, which
    the bound-free classification._search_partners gives and the search
    keeps when they have a power map in its pass's dict, and, through a
    search over every commutant (test_classification), the search report
    itself.
  * order_by_iteration is a matrix's multiplicative order found by
    multiplying out its powers up to the 12th, with no determinant or
    trace read.  test_gl2z holds Mat2._shape, the package's one reading of
    the (det, trace) order table gl2z._SHAPES, to it on every matrix of
    the box of bound 60, and the tests that need a matrix's order read it
    here, never off the table they check.
  * centralizer_finite lists the whole centralizer of a finite-order
    matrix other than +-E by group theory, with no box.  It checks
    commutant_in_box (test_gl2z), the brute-force commutant of a box
    (test_acceptance), and that the finite-order partners _search_partners
    reads off phi's own powers all lie in the box, so the search's box
    test drops none of them (test_classification).
  * norm_form_partners solves the partners a non-scalar phi can have on
    all of Z^2 from the norm form of its centralizer Z E + Z N: one
    quadratic equation in y per target class, and for a parabolic phi
    the exact integer roots of the four identity polynomials in y on the
    line E + y N0.  test_classification holds _search_partners to it in
    every box up to bound 20 and on 256-bit conjugates of each class.
  * HolElement, hol_mul and h_lambda_closed read the pair conditions as
    closure of {(a, lambda_a)} in the holomorph Z^2 x| GL2(Z).  Through
    conftest.holomorph_reading they check the four power identities of
    check_pair.
  * odot_inverse is the inverse of the brace multiplication by its
    definition.  test_ybe builds the definitional r(x, y) from it and checks
    r_map against that.
  * in_lambda_kernel is the kernel of lambda by its definition,
    lambda_v = E, read off lambda_of, so it takes any pair, valid or not.
  * r_of_lambda is r(x, y) = (lambda_x y, lambda_-y x) on four integers
    from any lambda map, two calls to it per point: the evaluation ybe
    made before it read lambda's closed form in place.  r_map(spec) is
    r_of_lambda on lambda_map(spec), the Yang-Baxter map of a valid pair
    that the sampling kernels write out inline; test_ybe and test_brace
    check it against the definitional r and lambda_of.
  * ybe_holds, involutive_at and nondegenerate_at are the braid,
    involutivity and non-degeneracy checks at one point, on r_map's r and
    a lambda map, one call of r or lambda per evaluation: the checks
    sample_report made before its kernels wrote each sample's seven r's
    out inline.  test_ybe runs them on every family's r.
  * ROW_BLOCKS is the (det phi, det psi) block of each family, read off
    the paper's numbering alone: label b.x lies in block b, and blocks 1
    to 4 are (1, 1), (1, -1), (-1, 1) and (-1, -1).  test_classification
    checks every signature of every family record against it.
  * row12_parameters recovers (m, p, q) of a 1.2 member through the
    parameter recovery and exact regeneration row_membership uses, and
    names the canonical form; test_classification and test_acceptance
    check it on the family's members and on non-members.
  * block_membership is row_membership as it was before the pair's
    (det, trace) signature named its candidate families: it tries every
    family of the pair's determinant block in ROW_BLOCKS.  It and
    row12_parameters read a private name, the parameter recovery and
    exact regeneration (_member_params) that row_membership uses, so only
    the choice of candidates differs.  test_classification checks
    row_membership against it.
  * enumerate_by_constructor is enumerate_unimodular as it was before
    the listing was streamed and each matrix made by tuple.__new__: the
    (a12, a21) pairs of the box indexed by their product, each a11 group
    looked up and sorted, with Mat2's own constructor called per matrix.
    test_classification holds the listing to it.
  * rows_by_checks, spec_by_checks and spec_from_dict_by_checks are
    Mat2.from_rows, BraceSpec's constructor and BraceSpec.from_dict as
    they were before decoding was written as one pass: a key set, index
    and length checks per row, and a determinant method call for each
    matrix's check and another for its message.  test_brace holds the
    decoder to them on JSON-shaped values, results and errors alike.
  * lambda_map is the lambda of a valid pair read off brace._lambda_form,
    on two integers: the map the ybe kernels replaced, which no command
    calls.  test_brace checks it against lambda_of and the brace
    identities, and r_map reads it.
  * row_instances_by_record is classification._row_instances written
    one record at a time, with no call to a record's members: every
    parameter set goes through the record's own build, and the pair is
    kept if it fits in the box.  It draws 1.1's four sign pairs and 1.2's
    (m, p, q) itself, and reads each table family's parameters off the
    in-class matrices of its M's (det, trace) with the record's read.
    test_classification holds the member dict to it, keys and position
    lists alike.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from itertools import product
from math import gcd, isqrt
from typing import Callable, Iterator, NamedTuple

from z2brace import IDENTITY, BraceSpec, Mat2, NotUnimodular, RowLabel
from z2brace.brace import _lambda_form, _LambdaTable
from z2brace.classification import _FAMILIES, BadParams, _member_params
from z2brace.gl2z import _no_concatenation, _undefined


class Vec2(NamedTuple):
    """Element of Z^2, the tuple (x1, x2); addition is componentwise."""

    x1: int
    x2: int

    def __add__(self, other: "Vec2") -> "Vec2":
        if not isinstance(other, Vec2):
            return NotImplemented
        return Vec2(self.x1 + other.x1, self.x2 + other.x2)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x1, -self.x2)

    def __sub__(self, other: "Vec2") -> "Vec2":
        if not isinstance(other, Vec2):
            return NotImplemented
        return Vec2(self.x1 - other.x1, self.x2 - other.x2)

    __mul__ = __rmul__ = _undefined
    __radd__ = _no_concatenation

    def __str__(self) -> str:
        return f"({self.x1},{self.x2})"


ZERO = Vec2(0, 0)


def act(m: Mat2, v: Vec2) -> Vec2:
    """The automorphism m applied to v."""
    a11, a12, a21, a22 = m
    x1, x2 = v
    return Vec2(a11 * x1 + a12 * x2, a21 * x1 + a22 * x2)


def lambda_of(spec: BraceSpec, a: Vec2) -> Mat2:
    """The automorphism lambda_a = phi^a1 * psi^a2: one power of each
    generator (Mat2.__pow__) and one product, with no table built."""
    return spec.phi ** a.x1 * spec.psi ** a.x2


def odot(spec: BraceSpec, a: Vec2, b: Vec2) -> Vec2:
    """The candidate multiplication a + lambda_a(b)."""
    return a + act(lambda_of(spec, a), b)


def odot_associative(spec: BraceSpec, a: Vec2, b: Vec2, c: Vec2) -> bool:
    """Exact check of a*(b*c) = (a*b)*c at one triple."""
    return odot(spec, a, odot(spec, b, c)) == odot(spec, odot(spec, a, b), c)


def commutant_in_box(a: Mat2, bound: int) -> list[Mat2]:
    """Unimodular matrices with entries in [-bound, bound] that commute with a.

    a must not be scalar.  For a = ((a11, a12), (a21, a22)) the integer
    matrices commuting with a are exactly x E + t N with N = (a - a11 E)/g,
    g = gcd(a12, a21, a22 - a11), and x, t integers (the Latimer-MacDuffee
    correspondence: N is primitive with N11 = 0).  For each t that keeps the
    off-diagonal entries in the box, det(x E + t N) = +-1 is a quadratic in x
    solved exactly, so the cost is O(bound).  The result is sorted
    lexicographically in (a11, a12, a21, a22).
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


def order_by_iteration(m: Mat2) -> int | None:
    """The multiplicative order of m, found by multiplying out m, m^2, ...
    up to m^12, or None when none of them is E.

    Every finite order in GL2(Z) divides 12, so None means infinite order;
    a matrix that is not unimodular has no power E and gets None too.
    """
    power = m
    for n in range(1, 13):
        if power == IDENTITY:
            return n
        power = power * m
    return None


def centralizer_finite(a: Mat2) -> frozenset[Mat2]:
    """The centralizer of a in GL2(Z) when a has finite order and a != +-E.

    For order 2 or 4 this is {+-E, +-a}; for order 3 or 6 it is
    {+-E, +-a, +-a^-1}.  The identity, -E and infinite-order matrices have
    infinite centralizers and are rejected.
    """
    order = order_by_iteration(a)
    if order is None or order == 1 or a == -IDENTITY:
        raise ValueError(
            f"{a} has an infinite centralizer (order {order or 'inf'}); use commutes() directly"
        )
    members = {IDENTITY, -IDENTITY, a, -a}
    if order in (3, 6):
        inv = a.inverse()
        members.update((inv, -inv))
    return frozenset(members)


def _integer_roots(c0: int, c1: int, c2: int) -> set[int] | None:
    """The integer roots of c0 + c1 y + c2 y^2, solved exactly, or None
    when the polynomial is 0 and every y is a root."""
    if c2:
        disc = c1 * c1 - 4 * c2 * c0
        root = isqrt(disc) if disc >= 0 else -1
        if root * root != disc:
            return set()
        return {(r - c1) // (2 * c2) for r in (root, -root) if (r - c1) % (2 * c2) == 0}
    if c1:
        return {-c0 // c1} if c0 % c1 == 0 else set()
    return None if c0 == 0 else set()


def norm_form_partners(phi: Mat2) -> list[Mat2]:
    """The psi on all of Z^2 that can make (phi, psi) valid, for a
    non-scalar phi of the classes classification._pair_classes keeps,
    read off the norm form of phi's centralizer, with no box.

    The integer matrices commuting with phi are xE + yN with
    N = (phi - a11 E)/g, g = gcd(a12, a21, a22 - a11) (Latimer-MacDuffee,
    as in commutant_in_box).  psi = xE + yN has trace T = 2x + y tr N and
    det D = (T^2 - y^2 disc N)/4, so the psi of each class (D, T) solve
    y^2 disc N = T^2 - 4D, with x = (T - y tr N)/2 an integer.
      * disc N != 0 (phi of order 3 or a reflection): y^2 is one exact
        quotient, so each class gives at most two psi.
      * disc N = 0 (phi parabolic of trace 2): of the classes only (1, 2)
        and (1, -2) solve, each for every y.  The trace-2 psi form the line
        E + yN0, with N0 = N - (tr N / 2) E the primitive nilpotent, and
        phi = E + g N0.  As N0^2 = 0, phi^k psi^l = E + (kg + ly) N0, so
        the identity at the exponents (k, l), a column of phi - E or of
        psi - E, reads kg + ly = 0: of degree 1 in y at phi's columns and
        2 at psi's.  The y kept are the exact integer roots common to all
        four.
    The class (1, -2) holds -E alone, kept only beside an involution: the
    identity at the column (-2, 0) of -E - E reads phi^-2 = E.  The result
    is sorted lexicographically in (a11, a12, a21, a22).
    """
    a11, a12, a21, a22 = phi
    g = gcd(a12, a21, a22 - a11)
    if g == 0:
        raise ValueError(f"{phi} is scalar; every matrix commutes with it")
    n12, n21, n22 = a12 // g, a21 // g, (a22 - a11) // g
    disc = n22 * n22 + 4 * n12 * n21
    found = [-IDENTITY] if phi * phi == IDENTITY else []
    if disc:
        for det, trace in ((1, 2), (-1, 0), (1, -1)):
            square, rest = divmod(trace * trace - 4 * det, disc)
            if rest or square < 0 or isqrt(square) ** 2 != square:
                continue
            for y in {isqrt(square), -isqrt(square)}:
                twice_x = trace - y * n22
                if twice_x % 2 == 0:
                    x = twice_x // 2
                    found.append(Mat2(x, y * n12, y * n21, x + y * n22))
        return sorted(found)
    if a11 + a22 != 2:
        raise ValueError(f"{phi} is in none of the classes of a valid pair")
    # disc N = 0 makes n22 even.  Each column (u, v) of N0 is a column of
    # phi - E times g and of psi - E times y.
    h = n22 // 2
    ys = None
    for u, v in ((-h, n21), (n12, h)):
        for poly in ((g * g * u, g * v, 0), (0, g * u, v)):
            roots = _integer_roots(*poly)
            if roots is not None:
                ys = roots if ys is None else ys & roots
    found += (Mat2(1 - y * h, y * n12, y * n21, 1 + y * h) for y in ys)
    return sorted(found)


@dataclass(frozen=True, slots=True)
class HolElement:
    """Element (g, f) of the holomorph Z^2 x| GL2(Z)."""

    g: Vec2
    f: Mat2

    def __post_init__(self) -> None:
        if self.f.det() not in (1, -1):
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


def r_of_lambda(lam, x1: int, x2: int, y1: int, y2: int) -> tuple[int, int, int, int]:
    """(lambda_x y, lambda_-y x) as four integers, lam(x1, x2) giving the
    entries of lambda_x (as lambda_map does)."""
    a11, a12, a21, a22 = lam(x1, x2)
    b11, b12, b21, b22 = lam(-y1, -y2)
    return (
        a11 * y1 + a12 * y2,
        a21 * y1 + a22 * y2,
        b11 * x1 + b12 * x2,
        b21 * x1 + b22 * x2,
    )


def ybe_holds(r, u: tuple, x1: int, x2: int, y1: int, y2: int, z1: int, z2: int) -> bool:
    """r12 r23 r12 against r23 r12 r23 at (x, y, z), applied right to left,
    for r on four integers (as r_map returns it) and u = r(x, y)."""
    a1, a2, b1, b2 = u
    b1, b2, c1, c2 = r(b1, b2, z1, z2)
    left = (*r(a1, a2, b1, b2), c1, c2)
    b1, b2, c1, c2 = r(y1, y2, z1, z2)
    a1, a2, b1, b2 = r(x1, x2, b1, b2)
    right = (a1, a2, *r(b1, b2, c1, c2))
    return left == right


def involutive_at(r, u: tuple, x1: int, x2: int, y1: int, y2: int) -> bool:
    """r(r(x, y)) = (x, y), with u = r(x, y)."""
    return r(*u) == (x1, x2, y1, y2)


def nondegenerate_at(lam, x1: int, x2: int, y1: int, y2: int) -> bool:
    """det lambda_x = +-1 = det lambda_y, for lam(x1, x2) giving the entries
    of lambda_x.  v -> first(r(x, v)) is lambda_x and w -> second(r(w, y))
    is lambda_y^-1; an integer matrix is a bijection of Z^2 iff its
    determinant is +-1, so no preimage is built."""
    a11, a12, a21, a22 = lam(x1, x2)
    b11, b12, b21, b22 = lam(y1, y2)
    return abs(a11 * a22 - a12 * a21) == 1 == abs(b11 * b22 - b12 * b21)


#: (det phi, det psi) of blocks 1 to 4, in the paper's numbering.
_BLOCK_DETS = {"1": (1, 1), "2": (1, -1), "3": (-1, 1), "4": (-1, -1)}

#: The block of each family: label b.x lies in block b.
ROW_BLOCKS: dict[RowLabel, tuple[int, int]] = {
    label: _BLOCK_DETS[label.value.split(".")[0]] for label in RowLabel
}


def row12_parameters(spec: BraceSpec) -> tuple[int, int, int] | None:
    """Recover (m, p, q) for family 1.2, or None if the pair is not in it.

    The family is

        phi = (1 + m p^2 q,  m p q^2)      psi = (1 + m p q^2,  m q^3)
              (   -m p^3,  1 - m p^2 q)          (  -m p^2 q,  1 - m p q^2)

    with gcd(p, q) = 1.  (m, p, q) and (-m, -p, -q) give the same pair, so
    the answer is canonicalized to p > 0, or p = 0 with q > 0; the identity
    pair reports (0, 1, 0).  The parameters are read off the pair by the
    recover of 1.2's record and must regenerate it exactly.
    """
    return _member_params(RowLabel.R1_2, *spec)


def block_membership(spec: BraceSpec) -> set[RowLabel]:
    """Every family that has the pair among its members, trying each
    family of the pair's (det phi, det psi) block in ROW_BLOCKS."""
    phi, psi = spec
    block = (phi.det(), psi.det())
    return {
        label
        for label in RowLabel
        if ROW_BLOCKS[label] == block and _member_params(label, phi, psi) is not None
    }


def enumerate_by_constructor(bound: int) -> Iterator[Mat2]:
    """The box listing by an index: the (a12, a21) pairs indexed by their
    product, each a11 group looked up and sorted, with Mat2's constructor
    called per matrix.  bound must be a positive integer."""
    rng = range(-bound, bound + 1)
    by_product: dict[int, list[tuple[int, int]]] = {}
    for a12, a21 in product(rng, rng):
        by_product.setdefault(a12 * a21, []).append((a12, a21))
    for a11 in rng:
        group = sorted(
            (a12, a21, a22)
            for a22 in rng
            for det in (1, -1)
            for a12, a21 in by_product.get(a11 * a22 - det, ())
        )
        for a12, a21, a22 in group:
            yield Mat2(a11, a12, a21, a22)


def row_instances_by_record(bound: int, groups: dict) -> dict:
    """The in-box family members, as a dict from each pair of entry tuples
    to the positions in _FAMILIES of its families, built one record at a
    time: each parameter set goes through the record's build and the pair
    is kept if it fits in the box.  groups is _pair_classes(bound).groups.

    1.1 takes its four sign pairs.  1.2 takes every (m, p, q) with
    gcd(p, q) = 1, |p|, |q| <= cap and |m| <= bound, where cap is the
    largest with cap^3 <= bound: a member with m != 0 has the entries
    -m p^3 and m q^3, and m = 0 gives (E, E) for every (p, q).  A table
    family takes what its read returns on each in-class matrix of its
    M's (det, trace)."""
    cap = max(c for c in range(bound + 1) if c**3 <= bound)
    near = range(-cap, cap + 1)
    drawn = {
        RowLabel.R1_1: list(product((1, -1), repeat=2)),
        RowLabel.R1_2: [
            (m, p, q)
            for m in range(-bound, bound + 1)
            for p in near
            for q in near
            if gcd(p, q) == 1
        ],
    }
    found: dict = {}
    for position, (label, family) in enumerate(_FAMILIES.items()):
        params_list = drawn.get(label)
        if params_list is None:
            read = map(family.read, groups.get((family.det, family.trace), ()))
            params_list = [params for params in read if params is not None]
        for params in params_list:
            try:
                pair = family.build(*params)
            except BadParams:
                continue
            if max(map(abs, pair[0] + pair[1])) <= bound:
                positions = found.setdefault(pair, [])
                if position not in positions:
                    positions.append(position)
    return found


def rows_by_checks(rows: object) -> Mat2:
    """Mat2 from the JSON form [[a11, a12], [a21, a22]]: the pair and
    each row a list or tuple of length 2, each entry a plain int."""
    if (
        isinstance(rows, (list, tuple)) and len(rows) == 2
        and isinstance(rows[0], (list, tuple)) and len(rows[0]) == 2
        and isinstance(rows[1], (list, tuple)) and len(rows[1]) == 2
    ):
        (a11, a12), (a21, a22) = rows
        if type(a11) is int and type(a12) is int and type(a21) is int and type(a22) is int:
            return Mat2(a11, a12, a21, a22)
        raise ValueError(f"matrix entries must be integers, got {rows!r}")
    raise ValueError(f"expected a 2x2 nested list, got {rows!r}")


def spec_by_checks(phi: Mat2, psi: Mat2) -> BraceSpec:
    """The pair, once both matrices are unimodular, phi checked first.  A
    determinant past the digits Python prints is given by its bit length."""
    for name, m in (("phi", phi), ("psi", psi)):
        if m.det() not in (1, -1):
            # Python before 3.10.7 has no limit on int to str.
            det, limit = m.det(), getattr(sys, "get_int_max_str_digits", int)()
            shown = f"<{det.bit_length()}-bit integer>" if limit and abs(det) >= 10**limit else det
            raise NotUnimodular(f"{name} = {m} has determinant {shown}")
    return tuple.__new__(BraceSpec, (phi, psi))


def spec_from_dict_by_checks(data: object) -> BraceSpec:
    """The pair from the JSON form {"phi": [[..]], "psi": [[..]]}."""
    if not isinstance(data, dict) or set(data) != {"phi", "psi"}:
        raise ValueError(
            f'expected an object with exactly the keys "phi" and "psi", got {data!r}'
        )
    return spec_by_checks(rows_by_checks(data["phi"]), rows_by_checks(data["psi"]))


def lambda_map(spec: BraceSpec) -> Callable[[int, int], tuple[int, int, int, int]]:
    """The lambda of a valid pair: (x1, x2) -> entries (a11, a12, a21, a22)
    of phi^x1 * psi^x2.  Raises InvalidSpec unless the pair is valid,
    deciding as check_pair does, through _lambda_form: before any power is
    taken if a generator is hyperbolic, then unless the pair commutes and
    the four identities hold.

    The map is read off lambda's closed form, built here once from one
    power map per generator: if both shapes (Mat2._shape) have degree 0,
    with periods n_phi and n_psi, each evaluation is a lookup at
    (x1 mod n_phi, x2 mod n_psi) in a table of the at most 9 values;
    otherwise it is E + x1 (phi - E) + x2 (psi - E).  No evaluation forms
    a matrix product (brace's module docstring says why these are the
    only two forms).
    """
    form = _lambda_form(spec)
    if isinstance(form, _LambdaTable):
        rows, n_phi, n_psi = form
        return lambda x1, x2: rows[x1 % n_phi][x2 % n_psi]
    (a11, a12, a21, a22), (b11, b12, b21, b22) = form
    return lambda x1, x2: (
        1 + x1 * a11 + x2 * b11,
        x1 * a12 + x2 * b12,
        x1 * a21 + x2 * b21,
        1 + x1 * a22 + x2 * b22,
    )


def r_map(spec: BraceSpec) -> Callable[[int, int, int, int], tuple[int, int, int, int]]:
    """The Yang-Baxter map of a valid pair on four integers, (x1, x2, y1,
    y2) -> the coordinates of r(x, y) = (lambda_x y, lambda_-y x), read
    off lambda_map.  Raises InvalidSpec, from lambda_map, unless the pair
    is valid."""
    return partial(r_of_lambda, lambda_map(spec))
