"""Braces on Z^2 defined by a pair of unimodular integer matrices.

The additive group is Z^2 with componentwise addition.  A pair (phi, psi)
of unimodular matrices assigns to each a = (a1, a2) the automorphism
lambda_a = phi^a1 * psi^a2, and the candidate multiplication is
a (*) b = a + lambda_a(b).  check_pair decides exactly when this makes
(Z^2, +, *) a brace: phi and psi must commute and four power identities
phi^k psi^l = E, whose exponents are read off the entries of phi and psi,
must all hold.

lambda_map is the lambda of a brace: it raises InvalidSpec unless
check_pair finds the pair valid, and returns a -> entries of lambda_a as
plain integers in one of two closed forms.  By the partner rules of the
search (classification._in_pair_class, _search_partners) each generator of
a valid pair is +-E, of order 3, a reflection or parabolic of trace 2, and
a parabolic E + A pairs only with E + B, B a multiple of A's primitive
part.  So either both orders are finite (1, 2 or 3), and lambda_map
tabulates the at most 9 values phi^i psi^j once from the two power maps,
each evaluation a lookup; or (phi - E)(psi - E) = 0, and lambda_a =
E + a1 (phi - E) + a2 (psi - E) is affine in a.  The orders are read
through order_by_predicate, the det/trace table Mat2.power_map reads.  A
valid pair commutes, so lambda is a homomorphism: lambda_a^-1 = lambda_-a.
lambda_of forms the single product phi^a1 psi^a2 for any pair, valid or
not.

The four identities are decided in one place, _power_identities, which
reads each phi^k psi^l = E as phi^k = psi^(-l): it compares the two
powers from the two power maps, forms no product of them, and yields the
truths one at a time.  check_pair calls it with the pair's own two power
maps and hyperbolic flags, built once per call, and keeps all four
truths; classification.exhaustive_search calls it with one power map per
in-class matrix, built once per search, and both flags false, and stops
at the first false identity.

Before it takes a power, _power_identities applies one rule to each
identity.  phi^k psi^l = E says phi^k = psi^(-l).  A nonzero power of a
hyperbolic matrix is hyperbolic and no power of any other matrix is
(Mat2.is_hyperbolic), so the two sides can be equal only if phi^k and
psi^l are both hyperbolic powers or neither is.  Two equal hyperbolic
powers X commute with phi and with psi, and the centralizer of the
non-scalar X is commutative, so phi and psi commute.  Every other
identity compares phi^k with psi^(-l) without a hyperbolic power, in O(1)
at any entry size; only a commuting pair of two hyperbolic matrices still
takes powers whose cost grows with its entries.

The module holds the paper's objects and the verdict, all NamedTuples
like Mat2: a Vec2 is its coordinate tuple, and BraceSpec checks its two
matrices in the __new__ of a subclass of its NamedTuple fields.  The
holomorph reading of the pair conditions, which the tests check
check_pair against, lives in tests/oracles.py.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from .gl2z import (
    Mat2,
    NotUnimodular,
    _no_concatenation,
    _undefined,
    commutes,
    order_by_predicate,
)

__all__ = [
    "BraceSpec",
    "Vec2",
    "Verdict",
    "ZERO",
    "act",
    "check_pair",
    "lambda_map",
    "lambda_of",
    "odot",
    "odot_associative",
]


class InvalidSpec(ValueError):
    """The pair does not define a brace, so there is no solution to build."""


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

    def coords(self) -> tuple[int, int]:
        """The coordinates as a plain tuple, not a Vec2."""
        return tuple(self)

    def __str__(self) -> str:
        return f"({self.x1},{self.x2})"


ZERO = Vec2(0, 0)


def act(m: Mat2, v: Vec2) -> Vec2:
    """The automorphism m applied to v."""
    a11, a12, a21, a22 = m
    x1, x2 = v
    return Vec2(a11 * x1 + a12 * x2, a21 * x1 + a22 * x2)


class _BraceSpecFields(NamedTuple):
    phi: Mat2
    psi: Mat2


class BraceSpec(_BraceSpecFields):
    """Candidate pair (phi, psi): the automorphisms attached to the generators.

    Construction only enforces membership in GL2(Z); whether the pair
    actually defines a brace is decided by check_pair.
    """

    __slots__ = ()

    def __new__(cls, phi: Mat2, psi: Mat2) -> "BraceSpec":
        for name, m in (("phi", phi), ("psi", psi)):
            if not m.is_unimodular():
                raise NotUnimodular(f"{name} = {m} has determinant {m.det()}")
        return super().__new__(cls, phi, psi)

    # _replace builds through _make, which would skip the check above.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @classmethod
    def from_dict(cls, data: object) -> "BraceSpec":
        """Parse the JSON form {"phi": [[..]], "psi": [[..]]}."""
        if not isinstance(data, dict) or set(data) != {"phi", "psi"}:
            raise ValueError(
                f'expected an object with exactly the keys "phi" and "psi", got {data!r}'
            )
        return cls(Mat2.from_rows(data["phi"]), Mat2.from_rows(data["psi"]))

    def to_dict(self) -> dict:
        return {"phi": self.phi.rows(), "psi": self.psi.rows()}

    def __str__(self) -> str:
        return f"(phi={self.phi}, psi={self.psi})"


class Verdict(NamedTuple):
    """Outcome of check_pair.

    power_identities holds the four entry-exponent conditions
    phi^k psi^l = E in generator order (phi on x, phi on y, psi on x, psi
    on y).  check_pair decides each by the same rule for every pair,
    commuting or not, so each entry is the truth of its identity.  valid
    is commuting together with all four power identities.
    """

    valid: bool
    commuting: bool
    power_identities: tuple[bool, bool, bool, bool]

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "commuting": self.commuting,
            "power_identities": list(self.power_identities),
        }


def lambda_map(spec: BraceSpec) -> Callable[[int, int], tuple[int, int, int, int]]:
    """The lambda of a valid pair: (x1, x2) -> entries (a11, a12, a21, a22)
    of phi^x1 * psi^x2.  Raises InvalidSpec if check_pair finds the pair
    invalid.

    If phi and psi have finite orders n_phi and n_psi, each evaluation is a
    lookup at (x1 mod n_phi, x2 mod n_psi) in a table of the at most 9
    values, built here; otherwise it is E + x1 (phi - E) + x2 (psi - E).
    No evaluation forms a matrix product (the module docstring says why
    these are the only two shapes).
    """
    if not check_pair(spec).valid:
        raise InvalidSpec(f"{spec} fails the pair conditions; run check_pair for details")
    phi, psi = spec
    n_phi, n_psi = order_by_predicate(phi).n, order_by_predicate(psi).n
    if n_phi is None or n_psi is None:
        a11, a12, a21, a22 = phi
        b11, b12, b21, b22 = psi
        a11, a22, b11, b22 = a11 - 1, a22 - 1, b11 - 1, b22 - 1
        return lambda x1, x2: (
            1 + x1 * a11 + x2 * b11,
            x1 * a12 + x2 * b12,
            x1 * a21 + x2 * b21,
            1 + x1 * a22 + x2 * b22,
        )
    phi_power, psi_power = phi.power_map(), psi.power_map()
    rows = [
        [(Mat2(*phi_power(i)) * Mat2(*psi_power(j))).entries() for j in range(n_psi)]
        for i in range(n_phi)
    ]
    return lambda x1, x2: rows[x1 % n_phi][x2 % n_psi]


def lambda_of(spec: BraceSpec, a: Vec2) -> Mat2:
    """The automorphism lambda_a = phi^a1 * psi^a2: one power of each
    generator (Mat2.__pow__) and one product, with no table built."""
    return spec.phi ** a.x1 * spec.psi ** a.x2


def odot(spec: BraceSpec, a: Vec2, b: Vec2) -> Vec2:
    """The candidate multiplication a + lambda_a(b)."""
    return a + act(lambda_of(spec, a), b)


def _power_identities(
    phi: tuple[int, int, int, int],
    psi: tuple[int, int, int, int],
    phi_power: Callable[[int], tuple[int, int, int, int]],
    psi_power: Callable[[int], tuple[int, int, int, int]],
    commuting: bool,
    phi_big: bool,
    psi_big: bool,
) -> Iterator[bool]:
    """The four power identities of the pair with entries phi and psi,
    yielded one at a time in generator order.

    phi_power and psi_power are the pair's power maps (Mat2.power_map),
    commuting says whether the pair commutes and phi_big, psi_big whether
    phi, psi are hyperbolic.  Each identity phi^k psi^l = E, with (k, l) a
    column of phi - E or psi - E, goes through one rule.  Let big_k say
    that phi is hyperbolic and k != 0, and big_l the same for psi and l.
    The identity is false if big_k != big_l, or if both hold on a pair
    that does not commute; otherwise it holds iff phi^k = psi^(-l), two
    entry tuples from the power maps compared as they are, so no product
    is formed and the comparison stops at the first entry that differs.
    Every power map takes negative exponents (Mat2.power_map).  So a
    hyperbolic power is taken only on a commuting pair of two hyperbolic
    matrices.  An identity is decided only when it is drawn, so all()
    stops at the first false one.  Nothing else decides the identities:
    check_pair and the exhaustive search both call this.
    """
    p11, p12, p21, p22 = phi
    q11, q12, q21, q22 = psi
    for k, l in ((p11 - 1, p21), (p12, p22 - 1), (q11 - 1, q21), (q12, q22 - 1)):
        big = phi_big and k != 0
        if big != (psi_big and l != 0) or (big and not commuting):
            yield False
            continue
        yield phi_power(k) == psi_power(-l)


def check_pair(spec: BraceSpec) -> Verdict:
    """Decide whether (phi, psi) defines a brace on Z^2.

    The pair is valid iff phi*psi = psi*phi and the four conditions

        phi^(phi11-1) psi^(phi21) = E,   phi^(phi12) psi^(phi22-1) = E,
        phi^(psi11-1) psi^(psi21) = E,   phi^(psi12) psi^(psi22-1) = E

    hold exactly; the exponents (k, l) of each condition are a column of
    phi - E or psi - E.  Commutation is gl2z.commutes.  The conditions are
    decided by _power_identities, each as phi^k = psi^(-l), from the pair's
    two power maps and hyperbolic flags (Mat2.is_hyperbolic), built here
    once per pair; all four are drawn, so the verdict names each one.
    """
    phi, psi = spec
    commuting = commutes(phi, psi)
    power = tuple(_power_identities(
        phi,
        psi,
        phi.power_map(),
        psi.power_map(),
        commuting,
        phi.is_hyperbolic(),
        psi.is_hyperbolic(),
    ))
    return Verdict(
        valid=commuting and all(power), commuting=commuting, power_identities=power
    )


def odot_associative(spec: BraceSpec, a: Vec2, b: Vec2, c: Vec2) -> bool:
    """Exact check of a*(b*c) = (a*b)*c at one triple."""
    return odot(spec, a, odot(spec, b, c)) == odot(spec, odot(spec, a, b), c)
