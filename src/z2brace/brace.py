"""Braces on Z^2 defined by a pair of unimodular integer matrices.

The additive group is Z^2 with componentwise addition.  A pair (phi, psi)
of unimodular matrices assigns to each a = (a1, a2) the automorphism
lambda_a = phi^a1 * psi^a2, and the candidate multiplication is
a (*) b = a + lambda_a(b).  check_pair decides exactly when this makes
(Z^2, +, *) a lambda-homomorphic brace: phi and psi must commute and four
power identities phi^k psi^l = E, whose exponents are read off the entries
of phi and psi, must all hold.

_lambda_form is the lambda of a brace in closed form: it raises
InvalidSpec unless check_pair finds the pair valid.  By the class lemma
of the search's pass (classification._pair_classes) each generator of a
valid pair is +-E, of order 3, a reflection or parabolic of trace 2, and
by the partner rules, which read no bound and hold on all of Z^2
(classification._search_partners), a parabolic E + A pairs only with
E + B, B a multiple of A's primitive part.  So either both shapes
(Mat2._shape, the (period, degree) of gl2z._SHAPES, which Mat2.power_map
and the search read through gl2z._power_map) have degree 0, and lambda
is the table of the at most 9 values phi^i psi^j, i and j below the
periods; or (phi - E)(psi - E) = 0, and lambda_a = E + a1 (phi - E) +
a2 (psi - E) is affine in a.  _lambda_form decides validity and builds
that form once from one power map per generator; the Yang-Baxter
kernels of the ybe module read it.  A valid pair commutes, so lambda is
a homomorphism: lambda_a^-1 = lambda_-a.

The exponents (k, l) of the four identities are the columns of phi - E
and psi - E, and each identity phi^k psi^l = E is read as phi^k =
psi^(-l): two powers from the two power maps compared, with no product
of them formed.  _identities_hold decides all four for a pair with no
hyperbolic member, reading the exponents in place off the entries and
stopping at the first false identity; classification.exhaustive_search
calls it with one power map per in-class matrix, built once per search,
and _lambda_form with the pair's own two.  check_pair, the one caller
that can meet a hyperbolic matrix, decides each identity from the pair's
hyperbolic flags and, once an identity reaches a comparison, the pair's
two power maps, and keeps all four truths.

Before it takes a power, check_pair applies one rule to each identity.
phi^k psi^l = E says phi^k = psi^(-l).  A nonzero power of a
hyperbolic matrix is hyperbolic and no power of any other matrix is
(Mat2.is_hyperbolic), so the two sides can be equal only if phi^k and
psi^l are both hyperbolic powers or neither is.  Two equal hyperbolic
powers X commute with phi and with psi, and the centralizer of the
non-scalar X is commutative, so phi and psi commute.  Every other
identity compares phi^k with psi^(-l) without a hyperbolic power, in O(1)
at any entry size; only a commuting pair of two hyperbolic matrices still
takes powers whose cost grows with its entries.

BraceSpec and Verdict are NamedTuples like Mat2; BraceSpec checks its
two matrices in the __new__ of a subclass of its NamedTuple fields,
reading each determinant once off the entries, phi first.  The
multiplication by its definition, on vectors with lambda_a formed as the
product of two powers, the holomorph reading of the pair conditions and
lambda on two integers (lambda_map) live in tests/oracles.py, where the
tests check check_pair and _lambda_form against them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .gl2z import Mat2, NotUnimodular, _has_determinant, commutes

__all__ = ["BraceSpec", "Verdict", "check_pair"]


class InvalidSpec(ValueError):
    """The pair does not define a lambda-homomorphic brace, so there is no solution to build."""


class _BraceSpecFields(NamedTuple):
    phi: Mat2
    psi: Mat2


class BraceSpec(_BraceSpecFields):
    """Candidate pair (phi, psi): the automorphisms attached to the generators.

    Construction only enforces membership in GL2(Z); whether the pair
    actually defines a lambda-homomorphic brace is decided by check_pair.
    """

    __slots__ = ()

    def __new__(cls, phi: Mat2, psi: Mat2) -> "BraceSpec":
        a11, a12, a21, a22 = phi
        det = a11 * a22 - a12 * a21
        if det != 1 and det != -1:
            raise NotUnimodular(f"phi = {_has_determinant(phi, det)}")
        a11, a12, a21, a22 = psi
        det = a11 * a22 - a12 * a21
        if det != 1 and det != -1:
            raise NotUnimodular(f"psi = {_has_determinant(psi, det)}")
        return tuple.__new__(cls, (phi, psi))

    # _replace builds through _make, which would skip the check above.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @classmethod
    def from_dict(cls, data: object) -> "BraceSpec":
        """Parse the JSON form {"phi": [[..]], "psi": [[..]]}: an object
        with exactly those two keys, each a matrix for Mat2.from_rows."""
        if isinstance(data, dict) and len(data) == 2 and "phi" in data and "psi" in data:
            return cls(Mat2.from_rows(data["phi"]), Mat2.from_rows(data["psi"]))
        raise ValueError(
            f'expected an object with exactly the keys "phi" and "psi", got {data!r}'
        )

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


class _LambdaTable(NamedTuple):
    """lambda of a valid pair whose generators both have finite order:
    rows[i][j] is the entry tuple of phi^i psi^j, for i below n_phi and j
    below n_psi, the two periods."""

    rows: list[list[tuple[int, int, int, int]]]
    n_phi: int
    n_psi: int


class _LambdaAffine(NamedTuple):
    """lambda of a valid pair with a parabolic generator: the entry tuples
    of a = phi - E and b = psi - E, so lambda_x = E + x1 a + x2 b."""

    a: tuple[int, int, int, int]
    b: tuple[int, int, int, int]


def _lambda_form(spec: BraceSpec) -> _LambdaTable | _LambdaAffine:
    """lambda's closed form for a valid pair, built once per call.

    Raises InvalidSpec unless the pair is valid, deciding as check_pair
    does but with no verdict built: first, before any power is taken, if
    a generator is hyperbolic (a valid pair has (phi - E)Z^2 in ker
    lambda, which for a hyperbolic phi, det(phi - E) != 0, has finite
    index and so gives phi = lambda_e1 finite order; likewise for psi);
    then unless the pair commutes and _identities_hold from one pair of
    power maps.  With no hyperbolic generator the hyperbolic rule of
    check_pair never applies, so this is check_pair's verdict.
    If both shapes (Mat2._shape) have degree 0, the table is filled from
    those same power maps, each cell phi^i psi^j multiplied out on the
    entry tuples; otherwise the form is affine.
    """
    phi, psi = spec
    shapes = phi._shape(), psi._shape()
    valid = None not in shapes and commutes(phi, psi)
    if valid:
        phi_power, psi_power = phi.power_map(), psi.power_map()
        valid = _identities_hold(phi, psi, phi_power, psi_power)
    if not valid:
        raise InvalidSpec(f"{spec} fails the pair conditions; run check_pair for details")
    (n_phi, phi_degree), (n_psi, psi_degree) = shapes
    if phi_degree or psi_degree:
        a11, a12, a21, a22 = phi
        b11, b12, b21, b22 = psi
        return _LambdaAffine((a11 - 1, a12, a21, a22 - 1), (b11 - 1, b12, b21, b22 - 1))
    psi_powers = [psi_power(j) for j in range(n_psi)]
    rows = []
    for i in range(n_phi):
        p11, p12, p21, p22 = phi_power(i)
        rows.append([
            (p11 * q11 + p12 * q21, p11 * q12 + p12 * q22,
             p21 * q11 + p22 * q21, p21 * q12 + p22 * q22)
            for q11, q12, q21, q22 in psi_powers
        ])
    return _LambdaTable(rows, n_phi, n_psi)


def _identities_hold(
    phi: tuple[int, int, int, int],
    psi: tuple[int, int, int, int],
    phi_power: Callable[[int], tuple[int, int, int, int]],
    psi_power: Callable[[int], tuple[int, int, int, int]],
) -> bool:
    """Whether all four power identities hold for a commuting pair with no
    hyperbolic member, stopping at the first false one.

    phi_power and psi_power are the pair's power maps (Mat2.power_map).
    Each identity phi^k psi^l = E is read as phi^k = psi^(-l): two entry
    tuples from the power maps compared as they are, so no product is
    formed.  The exponents (k, l), a column of phi - E or psi - E in
    generator order, are read in place off the unpacked entries, in
    one short-circuiting expression.  The exhaustive search and
    _lambda_form decide validity here.
    """
    p11, p12, p21, p22 = phi
    q11, q12, q21, q22 = psi
    return (
        phi_power(p11 - 1) == psi_power(-p21)
        and phi_power(p12) == psi_power(1 - p22)
        and phi_power(q11 - 1) == psi_power(-q21)
        and phi_power(q12) == psi_power(1 - q22)
    )


def check_pair(spec: BraceSpec) -> Verdict:
    """Decide whether (phi, psi) defines a lambda-homomorphic brace on Z^2.

    The pair is valid iff phi*psi = psi*phi and the four conditions

        phi^(phi11-1) psi^(phi21) = E,   phi^(phi12) psi^(phi22-1) = E,
        phi^(psi11-1) psi^(psi21) = E,   phi^(psi12) psi^(psi22-1) = E

    hold exactly; the exponents (k, l) of each condition are a column of
    phi - E or psi - E.  Commutation is gl2z.commutes.  Each condition
    goes through one rule, from the pair's hyperbolic flags
    (Mat2.is_hyperbolic) and two power maps (Mat2.power_map), each built
    at most once per pair.
    Let big_k say that phi is hyperbolic and k != 0, and big_l the same
    for psi and l.  The condition is false if big_k != big_l, or if both
    hold on a pair that does not commute; otherwise it holds iff phi^k =
    psi^(-l), as in _identities_hold.  Every power map takes negative
    exponents.  So a hyperbolic power is taken only on a commuting pair of
    two hyperbolic matrices.  The power maps are built only once an
    identity reaches that comparison, so a pair whose identities the rule
    settles, such as a non-commuting pair of two hyperbolic matrices,
    builds none.  All four are drawn, so the verdict names each one.
    """
    phi, psi = spec
    commuting = commutes(phi, psi)
    phi_big, psi_big = phi.is_hyperbolic(), psi.is_hyperbolic()
    phi_power = psi_power = None
    truths = []
    p11, p12, p21, p22 = phi
    q11, q12, q21, q22 = psi
    for k, l in (p11 - 1, p21), (p12, p22 - 1), (q11 - 1, q21), (q12, q22 - 1):
        big = phi_big and k != 0
        if big != (psi_big and l != 0) or (big and not commuting):
            truths.append(False)
        else:
            if phi_power is None:
                phi_power, psi_power = phi.power_map(), psi.power_map()
            truths.append(phi_power(k) == psi_power(-l))
    power = tuple(truths)
    return Verdict(
        valid=commuting and all(power), commuting=commuting, power_identities=power
    )
