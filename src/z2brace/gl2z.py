"""Exact arithmetic on 2x2 integer matrices and the GL2(Z) facts the brace
machinery relies on: multiplicative orders read off determinant and trace.

Powers use the same determinant and trace.  Mat2.power_map reads them
once and returns k -> entries of M^k: affine in k for a parabolic matrix
(det 1, trace +-2, including +-E), a lookup in the table of its n powers
for a matrix of finite order n, and binary exponentiation, O(log |k|)
products of growing integers, only for hyperbolic (Mat2.is_hyperbolic)
and non-unimodular matrices.  Mat2.__pow__ is that map applied once.

Everything works on plain Python integers, so every result is exact; there
is no floating point and no fixed-width wraparound anywhere.

A Mat2 is a typing.NamedTuple: the matrix is its own entry tuple
(a11, a12, a21, a22), and it hashes, compares and sorts as that tuple, so
callers key dicts, join sets and sort lists on matrices with no second
representation.  The tuple operators that mean nothing for a matrix,
concatenation and repetition by an integer, raise TypeError.  MatOrder
validates in its constructor: a NamedTuple base holds the field, and a
subclass with a checking __new__ (which NamedTuple forbids in its own body)
is the public type.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

__all__ = [
    "FINITE_ORDERS",
    "IDENTITY",
    "Mat2",
    "MatOrder",
    "NotUnimodular",
    "commutes",
    "order_by_iteration",
    "order_by_predicate",
]


class NotUnimodular(ValueError):
    """The operation needs determinant +1 or -1."""


#: (det, trace) -> order of every non-scalar finite-order matrix in GL2(Z).
#: No scalar matrix has these values; +-E are the only other finite orders.
_FINITE_ORDER = {(-1, 0): 2, (1, -1): 3, (1, 0): 4, (1, 1): 6}

#: The finite multiplicative orders in GL2(Z): E's 1, then the table's.
FINITE_ORDERS = (1, *sorted(set(_FINITE_ORDER.values())))


def _undefined(self, other):
    # A tuple operator that means nothing for a matrix or a vector.
    return NotImplemented


def _no_concatenation(self, other):
    # __radd__ of a matrix or vector: returning NotImplemented would let a
    # plain tuple on the left of + concatenate with it.
    raise TypeError(
        f"unsupported operand type(s) for +: '{type(other).__name__}' and '{type(self).__name__}'"
    )


class Mat2(NamedTuple):
    """2x2 integer matrix ((a11, a12), (a21, a22)), immutable and hashable.

    The matrix is the tuple (a11, a12, a21, a22): it hashes and compares
    as that tuple and sorts lexicographically by its entries.
    """

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
        """The entries as a plain tuple, not a Mat2."""
        return tuple(self)

    def det(self) -> int:
        a11, a12, a21, a22 = self
        return a11 * a22 - a12 * a21

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
        a11, a12, a21, a22 = self
        d = a11 * a22 - a12 * a21
        if d == 1:
            return Mat2(a22, -a12, -a21, a11)
        if d == -1:
            return Mat2(-a22, a12, a21, -a11)
        raise NotUnimodular(f"{self} has determinant {d}, no integer inverse")

    def __mul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        a11, a12, a21, a22 = self
        b11, b12, b21, b22 = other
        return Mat2(
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
        )

    __add__ = __rmul__ = _undefined
    __radd__ = _no_concatenation

    def __neg__(self) -> "Mat2":
        a11, a12, a21, a22 = self
        return Mat2(-a11, -a12, -a21, -a22)

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
            a11, a12, a21, a22 = self
            n11, n12, n21, n22 = s * a11 - 1, s * a12, s * a21, s * a22 - 1

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


class _MatOrderFields(NamedTuple):
    n: int | None


class MatOrder(_MatOrderFields):
    """Multiplicative order of a GL2(Z) element: finite n, or infinite (n is None).

    Only 1, 2, 3, 4 and 6 occur as finite orders in GL2(Z); any other finite
    value is rejected so a wrong order computation fails loudly instead of
    being carried along.
    """

    __slots__ = ()

    def __new__(cls, n: int | None) -> "MatOrder":
        if n is not None and n not in FINITE_ORDERS:
            raise ValueError(f"{n} is not a finite order of a GL2(Z) element")
        return super().__new__(cls, n)

    # _replace builds through _make, which would skip the check above.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

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
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    da, db = a11 - a22, b11 - b22
    return a12 * b21 == a21 * b12 and a12 * db == b12 * da and a21 * db == b21 * da

