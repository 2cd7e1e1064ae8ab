"""Braces on Z^2 defined by a pair of unimodular integer matrices.

The additive group is Z^2 with componentwise addition.  A pair (phi, psi)
of unimodular matrices assigns to each a = (a1, a2) the automorphism
lambda_a = phi^a1 * psi^a2, and the candidate multiplication is
a (*) b = a + lambda_a(b).  check_pair decides exactly when this makes
(Z^2, +, *) a brace: phi and psi must commute and four power identities
phi^k psi^l = E, whose exponents are read off the entries of phi and psi,
must all hold.

lambda has one mechanism, lambda_map: it takes the power maps of phi and
psi once per pair and returns a -> entries of lambda_a as plain integers.
check_pair reads all four identities of every pair through one such map;
lambda_of wraps the same map in a Mat2.

Before it takes a power, check_pair applies one rule to each identity.
phi^k psi^l = E says phi^k = psi^(-l).  A nonzero power of a hyperbolic
matrix is hyperbolic and no power of any other matrix is
(Mat2.is_hyperbolic), so the two sides can be equal only if phi^k and
psi^l are both hyperbolic powers or neither is.  Two equal hyperbolic
powers X commute with phi and with psi, and the centralizer of the
non-scalar X is commutative, so phi and psi commute.  Every other
identity is read off lambda_map without a hyperbolic power, in O(1) at
any entry size; only a commuting pair of two hyperbolic matrices still
takes powers whose cost grows with its entries.

The module holds the paper's objects and the verdict; the holomorph
reading of the pair conditions, which the tests check check_pair
against, lives in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .gl2z import IDENTITY, Mat2, NotUnimodular, commutes

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

# Entries of E, as lambda_map returns them.
_E = IDENTITY.entries()


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


def check_pair(spec: BraceSpec) -> Verdict:
    """Decide whether (phi, psi) defines a brace on Z^2.

    The pair is valid iff phi*psi = psi*phi and the four conditions

        phi^(phi11-1) psi^(phi21) = E,   phi^(phi12) psi^(phi22-1) = E,
        phi^(psi11-1) psi^(psi21) = E,   phi^(psi12) psi^(psi22-1) = E

    hold exactly; the exponents (k, l) of each condition are a column of
    phi - E or psi - E.  Commutation is gl2z.commutes.  Each condition goes
    through one rule.  Let big_k say that phi is hyperbolic and k != 0, and
    big_l the same for psi and l.  The condition is false if big_k !=
    big_l, or if both hold on a pair that does not commute; otherwise it
    is lambda_map's value at (k, l) compared with E.  So a hyperbolic power
    is taken only on a commuting pair of two hyperbolic matrices.
    """
    phi, psi = spec.phi, spec.psi
    commuting = commutes(phi, psi)
    lam = lambda_map(spec)
    phi_big, psi_big = phi.is_hyperbolic(), psi.is_hyperbolic()

    def holds(k, l):
        big = phi_big and k != 0
        return big == (psi_big and l != 0) and (commuting or not big) and lam(k, l) == _E

    power = (
        holds(phi.a11 - 1, phi.a21),
        holds(phi.a12, phi.a22 - 1),
        holds(psi.a11 - 1, psi.a21),
        holds(psi.a12, psi.a22 - 1),
    )
    return Verdict(
        valid=commuting and all(power), commuting=commuting, power_identities=power
    )


def odot_associative(spec: BraceSpec, a: Vec2, b: Vec2, c: Vec2) -> bool:
    """Exact check of a*(b*c) = (a*b)*c at one triple."""
    return odot(spec, a, odot(spec, b, c)) == odot(spec, odot(spec, a, b), c)
