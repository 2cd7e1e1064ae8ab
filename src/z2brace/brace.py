"""Braces on Z^2 defined by a pair of unimodular integer matrices.

The additive group is Z^2 with componentwise addition.  A pair (phi, psi)
of unimodular matrices assigns to each a = (a1, a2) the automorphism
lambda_a = phi^a1 * psi^a2, and the candidate multiplication is
a (*) b = a + lambda_a(b).  check_pair decides exactly when this makes
(Z^2, +, *) a brace: phi and psi must commute and four power identities,
whose exponents are read off the entries of phi and psi, must all equal
the identity matrix.

lambda has one mechanism, lambda_map: it takes the power maps of phi and
psi once per pair and returns a -> entries of lambda_a as plain integers.
check_pair tests the four conditions of a commuting pair on one such map;
lambda_of wraps the same map in a Mat2.

A pair that does not commute needs no power of a hyperbolic matrix.  If
phi^k psi^l = E, then X = phi^k = psi^(-l) commutes with phi and with
psi.  The centralizer of a non-scalar 2x2 matrix is commutative, so if X
is not +-E, phi and psi both lie in it and commute.  For a non-commuting
pair an identity therefore holds iff phi^k = sE and psi^l = sE for the
same s = +-1, and whether M^k is +-E follows from the order of M: only
k = 0 for infinite order, a table or affine lookup for finite order.
Every non-commuting pair is thus decided in O(1) operations at any entry
size; only a commuting pair with a hyperbolic member still raises it to
exponents the size of its entries.

The module holds the paper's objects and the verdict; the holomorph
reading of the pair conditions, which the tests check check_pair
against, lives in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .gl2z import IDENTITY, Mat2, NotUnimodular, commutes, order_by_predicate

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


@dataclass(frozen=True, slots=True)
class Vec2:
    """Element of Z^2; addition is componentwise."""

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

    def coords(self) -> tuple[int, int]:
        return (self.x1, self.x2)

    def __str__(self) -> str:
        return f"({self.x1},{self.x2})"


ZERO = Vec2(0, 0)

# Entries of E and -E, as lambda_map and Mat2.power_map return them.
_E = IDENTITY.entries()
_NEG_E = (-IDENTITY).entries()


def act(m: Mat2, v: Vec2) -> Vec2:
    """The automorphism m applied to v."""
    return Vec2(m.a11 * v.x1 + m.a12 * v.x2, m.a21 * v.x1 + m.a22 * v.x2)


@dataclass(frozen=True, slots=True)
class BraceSpec:
    """Candidate pair (phi, psi): the automorphisms attached to the generators.

    Construction only enforces membership in GL2(Z); whether the pair
    actually defines a brace is decided by check_pair.
    """

    phi: Mat2
    psi: Mat2

    def __post_init__(self) -> None:
        for name, m in (("phi", self.phi), ("psi", self.psi)):
            if not m.is_unimodular():
                raise NotUnimodular(f"{name} = {m} has determinant {m.det()}")

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


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of check_pair.

    power_identities holds the four entry-exponent conditions in generator
    order (phi on x, phi on y, psi on x, psi on y).  valid is commuting
    together with all four power identities.
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
    """The map (x1, x2) -> entries (a11, a12, a21, a22) of phi^x1 * psi^x2.

    Built from the power maps of phi and psi, so each generator's power
    class is read once per pair, not once per exponent.
    """
    phi_power, psi_power = spec.phi.power_map(), spec.psi.power_map()

    def lam(x1, x2):
        a11, a12, a21, a22 = phi_power(x1)
        b11, b12, b21, b22 = psi_power(x2)
        return (
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
        )

    return lam


def lambda_of(spec: BraceSpec, a: Vec2) -> Mat2:
    """The automorphism lambda_a = phi^a1 * psi^a2, read off lambda_map."""
    return Mat2(*lambda_map(spec)(a.x1, a.x2))


def odot(spec: BraceSpec, a: Vec2, b: Vec2) -> Vec2:
    """The candidate multiplication a + lambda_a(b)."""
    return a + act(lambda_of(spec, a), b)


def _scalar_power(m: Mat2) -> Callable[[int], int]:
    """The map k -> s when m^k = sE with s = +-1, and k -> 0 otherwise.

    O(1) per k for every unimodular m: an infinite-order matrix has a
    scalar power only at k = 0, and a finite-order one reads m^k off its
    power map (a table, or affine in k for +-E).
    """
    if order_by_predicate(m).n is None:
        return lambda k: 1 if k == 0 else 0
    power = m.power_map()

    def sign(k):
        p = power(k)
        return 1 if p == _E else -1 if p == _NEG_E else 0

    return sign


def check_pair(spec: BraceSpec) -> Verdict:
    """Decide whether (phi, psi) defines a brace on Z^2.

    The pair is valid iff phi*psi = psi*phi and the four conditions

        phi^(phi11-1) psi^(phi21) = E,   phi^(phi12) psi^(phi22-1) = E,
        phi^(psi11-1) psi^(psi21) = E,   phi^(psi12) psi^(psi22-1) = E

    hold exactly; the exponents of each condition are a column of phi - E
    or psi - E.  Commutation is gl2z.commutes.  For a commuting pair one
    lambda_map serves all four.  For a non-commuting pair phi^k psi^l = E
    forces phi^k = psi^(-l) into the commutative centralizer of a
    non-scalar matrix unless it is +-E, so each condition is phi^k = sE and
    psi^l = sE for one s = +-1, decided by _scalar_power in O(1) at any
    entry size.  Only a commuting pair with a hyperbolic member still
    takes powers whose cost grows with its entries.
    """
    phi, psi = spec.phi, spec.psi
    commuting = commutes(phi, psi)
    if commuting:
        lam = lambda_map(spec)
        power = (
            lam(phi.a11 - 1, phi.a21) == _E,
            lam(phi.a12, phi.a22 - 1) == _E,
            lam(psi.a11 - 1, psi.a21) == _E,
            lam(psi.a12, psi.a22 - 1) == _E,
        )
    else:
        phi_s, psi_s = _scalar_power(phi), _scalar_power(psi)
        # Equal and nonzero: phi^k and psi^l are the same scalar sE.
        power = (
            phi_s(phi.a11 - 1) == psi_s(phi.a21) != 0,
            phi_s(phi.a12) == psi_s(phi.a22 - 1) != 0,
            phi_s(psi.a11 - 1) == psi_s(psi.a21) != 0,
            phi_s(psi.a12) == psi_s(psi.a22 - 1) != 0,
        )
    return Verdict(
        valid=commuting and all(power), commuting=commuting, power_identities=power
    )


def odot_associative(spec: BraceSpec, a: Vec2, b: Vec2, c: Vec2) -> bool:
    """Exact check of a*(b*c) = (a*b)*c at one triple."""
    return odot(spec, a, odot(spec, b, c)) == odot(spec, odot(spec, a, b), c)
