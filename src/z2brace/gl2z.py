"""Exact arithmetic on 2x2 integer matrices and the GL2(Z) facts the brace
machinery relies on: multiplicative orders read off determinant and trace,
and finite centralizers.

Powers use the same determinant and trace.  Mat2.power_map reads them
once and returns k -> entries of M^k: affine in k for a parabolic matrix
(det 1, trace +-2, including +-E), a lookup in the table of its n powers
for a matrix of finite order n, and binary exponentiation, O(log |k|)
products of growing integers, only for hyperbolic (Mat2.is_hyperbolic)
and non-unimodular matrices.  Mat2.__pow__ is that map applied once.

Everything works on plain Python integers, so every result is exact; there
is no floating point and no fixed-width wraparound anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "FINITE_ORDERS",
    "IDENTITY",
    "Mat2",
    "MatOrder",
    "NotUnimodular",
    "UnsupportedOrder",
    "centralizer_finite",
    "commutes",
    "order_by_iteration",
    "order_by_predicate",
]


class NotUnimodular(ValueError):
    """The operation needs determinant +1 or -1."""


class UnsupportedOrder(ValueError):
    """centralizer_finite was asked for a matrix whose centralizer is infinite."""


#: The finite multiplicative orders that occur in GL2(Z).
FINITE_ORDERS = (1, 2, 3, 4, 6)

#: (det, trace) -> order of every non-scalar finite-order matrix in GL2(Z).
#: No scalar matrix has these values; +-E are the only other finite orders.
_FINITE_ORDER = {(-1, 0): 2, (1, -1): 3, (1, 0): 4, (1, 1): 6}


@dataclass(frozen=True, slots=True)
class Mat2:
    """2x2 integer matrix ((a11, a12), (a21, a22)), immutable and hashable."""

    a11: int
    a12: int
    a21: int
    a22: int

    @classmethod
    def from_rows(cls, rows: object) -> "Mat2":
        """Build from the JSON form [[a11, a12], [a21, a22]].

        Entries must be plain integers (bools are rejected).
        """
        if (
            not isinstance(rows, (list, tuple))
            or len(rows) != 2
            or any(not isinstance(r, (list, tuple)) or len(r) != 2 for r in rows)
        ):
            raise ValueError(f"expected a 2x2 nested list, got {rows!r}")
        flat = [rows[0][0], rows[0][1], rows[1][0], rows[1][1]]
        if any(type(e) is not int for e in flat):
            raise ValueError(f"matrix entries must be integers, got {rows!r}")
        return cls(*flat)

    def rows(self) -> list[list[int]]:
        """JSON form [[a11, a12], [a21, a22]]."""
        return [[self.a11, self.a12], [self.a21, self.a22]]

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a11, self.a12, self.a21, self.a22)

    def det(self) -> int:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> int:
        return self.a11 + self.a22

    def is_unimodular(self) -> bool:
        return self.det() in (1, -1)

    def is_hyperbolic(self) -> bool:
        """Whether the unimodular self is hyperbolic: t^2 > 4 det + 4.

        That is |t| > 2 for det 1 and t != 0 for det -1, the unimodular
        matrices that are neither +-E, parabolic nor of finite order, and
        exactly those whose powers power_map forms by binary
        exponentiation.  A nonzero power of a hyperbolic matrix is
        hyperbolic, and no power of any other unimodular matrix is.
        """
        t = self.trace()
        return t * t > 4 * self.det() + 4

    def inverse(self) -> "Mat2":
        """Exact inverse: the adjugate for det +1, its negative for det -1."""
        d = self.det()
        if d == 1:
            return Mat2(self.a22, -self.a12, -self.a21, self.a11)
        if d == -1:
            return Mat2(-self.a22, self.a12, self.a21, -self.a11)
        raise NotUnimodular(f"{self} has determinant {d}, no integer inverse")

    def __mul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a11, -self.a12, -self.a21, -self.a22)

    def power_map(self) -> Callable[[int], tuple[int, int, int, int]]:
        """The map k -> entries (a11, a12, a21, a22) of self^k, any sign of k.

        Determinant and trace are read once, here, and pick how every power
        is formed.  Cayley-Hamilton (M^2 = tM - dE for det d, trace t) gives
        closed forms that use no matrix product and no inverse, so their
        cost does not grow with k:

          * det 1, trace 2s with s = +-1 (+-E and the parabolic matrices):
            N = sM - E has N^2 = 0, so M^k = s^k (E + kN), affine in k up
            to the sign s^k.
          * non-scalar finite order n (2, 3, 4 or 6, from _FINITE_ORDER):
            M^k is entry k mod n of the table E, M, ..., M^(n-1), built by
            M^(j+1) = t M^j - d M^(j-1).

        Every other matrix (is_hyperbolic, or not unimodular) is raised by
        binary exponentiation: O(log |k|) products whose entries grow with
        k itself.  There a negative exponent goes through inverse() and
        therefore requires determinant +1 or -1.
        """
        d, t = self.det(), self.trace()
        if d == 1 and t in (2, -2):
            s = t // 2
            n11, n12, n21, n22 = s * self.a11 - 1, s * self.a12, s * self.a21, s * self.a22 - 1

            def power(k):
                e = s if k & 1 else 1
                return (e * (1 + k * n11), e * k * n12, e * k * n21, e * (1 + k * n22))

            return power
        n = _FINITE_ORDER.get((d, t))
        if n is not None:
            table = [(1, 0, 0, 1), self.entries()]
            while len(table) < n:
                (p11, p12, p21, p22), (c11, c12, c21, c22) = table[-2], table[-1]
                table.append((
                    t * c11 - d * p11, t * c12 - d * p12, t * c21 - d * p21, t * c22 - d * p22
                ))
            return lambda k: table[k % n]

        def power(k):
            base = self
            if k < 0:
                base = self.inverse()
                k = -k
            result = IDENTITY
            while k:
                if k & 1:
                    result = result * base
                k >>= 1
                if k:
                    base = base * base
            return result.entries()

        return power

    def __pow__(self, k: int) -> "Mat2":
        """Exact k-th power, any sign of k: power_map applied once."""
        if not isinstance(k, int):
            return NotImplemented
        return Mat2(*self.power_map()(k))

    def __str__(self) -> str:
        return f"[[{self.a11},{self.a12}],[{self.a21},{self.a22}]]"


IDENTITY = Mat2(1, 0, 0, 1)
_NEG_IDENTITY = -IDENTITY


@dataclass(frozen=True, slots=True)
class MatOrder:
    """Multiplicative order of a GL2(Z) element: finite n, or infinite (n is None).

    Only 1, 2, 3, 4 and 6 occur as finite orders in GL2(Z); any other finite
    value is rejected so a wrong order computation fails loudly instead of
    being carried along.
    """

    n: int | None

    def __post_init__(self) -> None:
        if self.n is not None and self.n not in FINITE_ORDERS:
            raise ValueError(f"{self.n} is not a finite order of a GL2(Z) element")

    @classmethod
    def finite(cls, n: int) -> "MatOrder":
        return cls(n)

    @classmethod
    def infinite(cls) -> "MatOrder":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.n is not None

    def __str__(self) -> str:
        return "inf" if self.n is None else str(self.n)


def order_by_predicate(a: Mat2) -> MatOrder:
    """Multiplicative order from determinant and trace alone.

    For unimodular a: order 1 iff a = E, order 2 if a = -E; otherwise the
    order _FINITE_ORDER gives for (det, trace), or infinite if it gives
    none.  Mat2.power_map reads the same table.
    """
    if not a.is_unimodular():
        raise NotUnimodular(f"{a} has determinant {a.det()}")
    if a == IDENTITY:
        return MatOrder.finite(1)
    if a == _NEG_IDENTITY:
        return MatOrder.finite(2)
    n = _FINITE_ORDER.get((a.det(), a.trace()))
    return MatOrder.infinite() if n is None else MatOrder.finite(n)


#: Every finite order in GL2(Z) divides 12, so iteration stops there.
_ITERATION_CUTOFF = 12


def order_by_iteration(a: Mat2) -> MatOrder:
    """Order by explicitly multiplying out a, a^2, ... up to a^12.

    Independent of order_by_predicate, so the two can cross-check each
    other.
    """
    if not a.is_unimodular():
        raise NotUnimodular(f"{a} has determinant {a.det()}")
    power = a
    for n in range(1, _ITERATION_CUTOFF + 1):
        if power == IDENTITY:
            return MatOrder.finite(n)
        power = power * a
    return MatOrder.infinite()


def commutes(a: Mat2, b: Mat2) -> bool:
    """True iff ab = ba exactly, read off the entries without a product.

    ab - ba has the diagonal +-(a12 b21 - a21 b12), the upper entry
    b12 (a11 - a22) - a12 (b11 - b22) and the lower entry
    a21 (b11 - b22) - b21 (a11 - a22), so it vanishes iff these three do.
    """
    da, db = a.a11 - a.a22, b.a11 - b.a22
    return (
        a.a12 * b.a21 == a.a21 * b.a12
        and a.a12 * db == b.a12 * da
        and a.a21 * db == b.a21 * da
    )


def centralizer_finite(a: Mat2) -> frozenset[Mat2]:
    """The centralizer of a in GL2(Z) when a has finite order and a != +-E.

    For order 2 or 4 this is {+-E, +-a}; for order 3 or 6 it is
    {+-E, +-a, +-a^-1}.  The identity, -E and infinite-order matrices have
    infinite centralizers and are rejected.
    """
    order = order_by_predicate(a)
    if not order.is_finite or order.n == 1 or a == _NEG_IDENTITY:
        raise UnsupportedOrder(
            f"{a} has an infinite centralizer (order {order}); use commutes() directly"
        )
    members = {IDENTITY, _NEG_IDENTITY, a, -a}
    if order.n in (3, 6):
        inv = a.inverse()
        members.update((inv, -inv))
    return frozenset(members)
