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
E + B, B a multiple of A's primitive part.  So either both generators
have power tables (gl2z._powers: degree 0 in the (period, degree) of
gl2z._SHAPES), and lambda is the table of the at most 9 values
phi^i psi^j, i and j below the periods; or (phi - E)(psi - E) = 0, and
lambda_a = E + a1 (phi - E) + a2 (psi - E) is affine in a.  _lambda_form
decides validity and builds that form once from the power data of each
generator; the Yang-Baxter kernels of the ybe module read it.  A valid
pair commutes, so lambda is a homomorphism: lambda_a^-1 = lambda_-a.

The exponents (k, l) of the four identities are the columns of phi - E
and psi - E, and each identity phi^k psi^l = E is read as phi^k =
psi^(-l): two powers compared, with no product of them formed.
_valid_partners decides all four for one phi beside each psi of a row,
with no hyperbolic member, from the matrices' power data (gl2z._powers),
reading the exponents in place off the entries and each power in place,
a table entry or a parabolic power written out, with no call per power.
phi's entries, its own two exponents and the two powers of phi they name
are read once per row, and each psi stops at its first false identity;
classification.exhaustive_search calls it once per in-class phi with the
data its pass builds once per in-class matrix, and _lambda_form with the
one-item row (psi,) and the pair's own two.  check_pair, the one caller
that can meet a hyperbolic matrix, decides each identity from the pair's
hyperbolic flags and, once an identity reaches a comparison, the pair's
two power maps (Mat2.power_map), and keeps all four truths.

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

from typing import Iterable, Mapping, NamedTuple

from .gl2z import Mat2, NotUnimodular, _has_determinant, _PowerData, _powers, commutes

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
    index and so gives phi = lambda_e1 finite order; likewise for psi),
    which is a generator with no power data (gl2z._powers); then unless
    the pair commutes and _valid_partners keeps psi in the one-item row
    (psi,) on the two generators' power data.  With no hyperbolic
    generator the hyperbolic rule of check_pair never applies, so this is
    check_pair's verdict.  If both generators
    have power tables (degree 0), lambda's table is filled from those two
    tables, each cell phi^i psi^j multiplied out on the entry tuples;
    otherwise a generator is parabolic and the form is affine.
    """
    phi, psi = spec
    phi_powers = _powers(phi, phi.det(), phi.trace())
    psi_powers = _powers(psi, psi.det(), psi.trace())
    if (
        phi_powers is None
        or psi_powers is None
        or not commutes(phi, psi)
        or not _valid_partners(phi, phi_powers, (psi,), {psi: psi_powers})
    ):
        raise InvalidSpec(f"{spec} fails the pair conditions; run check_pair for details")
    if type(phi_powers) is int or type(psi_powers) is int:
        a11, a12, a21, a22 = phi
        b11, b12, b21, b22 = psi
        return _LambdaAffine((a11 - 1, a12, a21, a22 - 1), (b11 - 1, b12, b21, b22 - 1))
    rows = [
        [
            (p11 * q11 + p12 * q21, p11 * q12 + p12 * q22,
             p21 * q11 + p22 * q21, p21 * q12 + p22 * q22)
            for q11, q12, q21, q22 in psi_powers
        ]
        for p11, p12, p21, p22 in phi_powers
    ]
    return _LambdaTable(rows, len(phi_powers), len(psi_powers))


def _valid_partners(
    phi: tuple[int, int, int, int],
    phi_powers: _PowerData,
    row: Iterable[tuple[int, int, int, int]],
    power: Mapping[tuple[int, int, int, int], _PowerData],
) -> list[tuple[int, int, int, int]]:
    """The psi of row, in row order, for which all four power identities
    hold beside phi, for a phi with no hyperbolic member and a row of
    partners that commute with it.

    phi_powers and each psi's entry in power are power data
    (gl2z._powers): a table t of the powers of a matrix of finite order,
    read in place as t[k % len(t)], or the sign s of a parabolic M, whose
    k-th power s^k (E + k(sM - E)) = s^k ((1 - k) E + k s M) is written
    out from M's entries.  A psi with no entry in power is skipped: that
    is the search's box test.  Each identity phi^k psi^l = E is read as
    phi^k = psi^(-l): two entry tuples compared as they are, so no product
    is formed and no function is called per power.  The exponents (k, l),
    a column of phi - E or psi - E in generator order, are read off the
    unpacked entries.  phi's entries, its own two columns and the two
    powers of phi they name are read once per row; each psi then draws
    its own powers and stops at its first false identity.  The exhaustive
    search calls this once per in-class phi, and _lambda_form with the row
    (psi,).
    """
    p11, p12, p21, p22 = phi
    # phi's own identities compare x1 = phi^(p11 - 1) with psi^l1 and
    # x2 = phi^p12 with psi^l2.
    l1, l2 = -p21, 1 - p22
    n = 0 if type(phi_powers) is int else len(phi_powers)
    if n:
        x1, x2 = phi_powers[(p11 - 1) % n], phi_powers[p12 % n]
    else:
        s, own = phi_powers, []
        for k in p11 - 1, p12:
            e = s if k & 1 else 1
            c, g = e * (1 - k), e * k * s
            own.append((c + g * p11, g * p12, g * p21, c + g * p22))
        x1, x2 = own
    valid = []
    for psi in row:
        psi_powers = power.get(psi)
        if psi_powers is None:
            continue
        q11, q12, q21, q22 = psi
        if n and type(psi_powers) is not int:
            m = len(psi_powers)
            if (
                x1 == psi_powers[l1 % m]
                and x2 == psi_powers[l2 % m]
                and phi_powers[(q11 - 1) % n] == psi_powers[-q21 % m]
                and phi_powers[q12 % n] == psi_powers[(1 - q22) % m]
            ):
                valid.append(psi)
            continue
        # A parabolic side: phi^k is x where the row has read it already.
        for x, k, l in (x1, 0, l1), (x2, 0, l2), (None, q11 - 1, -q21), (None, q12, 1 - q22):
            if x is None:
                if n:
                    x = phi_powers[k % n]
                else:
                    e = s if k & 1 else 1
                    c, g = e * (1 - k), e * k * s
                    x = (c + g * p11, g * p12, g * p21, c + g * p22)
            if type(psi_powers) is not int:
                y = psi_powers[l % len(psi_powers)]
            else:
                e = psi_powers if l & 1 else 1
                c, g = e * (1 - l), e * l * psi_powers
                y = (c + g * q11, g * q12, g * q21, c + g * q22)
            if x != y:
                break
        else:
            valid.append(psi)
    return valid


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
    psi^(-l), as in _valid_partners.  Every power map takes negative
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
