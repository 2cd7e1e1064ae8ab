"""Exact arithmetic on 2x2 integer matrices and the GL2(Z) facts the brace
machinery relies on, all read off determinant and trace by one table.

_SHAPES, read only by Mat2._shape and _power_map, gives the (period,
degree) of k -> M^k: degree 1 for a parabolic M but +-E, degree 0 and
period n for +-E and each finite order n, none for a hyperbolic or
non-unimodular M.  It is the package's one statement of the finite orders
in GL2(Z): a matrix has finite order n exactly when its shape is (n, 0).
_power_map, Mat2.power_map's builder, forms M^k by the shape: affine in
k, a lookup among n powers, or binary exponentiation (O(log |k|)
products of growing integers); Mat2.__pow__ is that map applied once.

Everything works on plain Python integers, so every result is exact; there
is no floating point and no fixed-width wraparound anywhere.

A Mat2 is a typing.NamedTuple: the matrix is its own entry tuple
(a11, a12, a21, a22), and it hashes, compares and sorts as that tuple, so
callers key dicts, join sets and sort lists on matrices with no second
representation.  The tuple operators that mean nothing for a matrix,
concatenation and repetition by an integer, raise TypeError.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

_new = tuple.__new__

__all__ = ["IDENTITY", "Mat2", "NotUnimodular", "commutes"]


class NotUnimodular(ValueError):
    """The operation needs determinant +1 or -1."""


def _decimal(n: int) -> str:
    # n in decimal, or its bit length where n passes the digits Python
    # converts between int and str (sys.get_int_max_str_digits).
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit integer>"


def _has_determinant(m: Mat2, det: int) -> str:
    """"<m> has determinant <det>" for a NotUnimodular message, with a
    number too long to print given by its bit length."""
    return f"{m} has determinant {_decimal(det)}"


#: (det, trace) -> (period, degree): on each residue class of k mod period
#: the entries of M^k are polynomials in k of that degree.  The parabolic
#: keys also hold +-E, which Mat2._shape gives degree 0.
_SHAPES = {(1, 2): (1, 1), (1, -2): (2, 1), (-1, 0): (2, 0),
           (1, -1): (3, 0), (1, 0): (4, 0), (1, 1): (6, 0)}


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

        Entries must be plain integers (bools are rejected).  The rows and
        the pair of them must be lists or tuples of length 2.  Each is
        unpacked once, and the checked entry tuple becomes the matrix
        through tuple.__new__, as Mat2's own constructor makes it.
        """
        if isinstance(rows, (list, tuple)) and len(rows) == 2:
            first, second = rows
            if (
                isinstance(first, (list, tuple)) and len(first) == 2
                and isinstance(second, (list, tuple)) and len(second) == 2
            ):
                (a11, a12), (a21, a22) = first, second
                if type(a11) is int and type(a12) is int and type(a21) is int and type(a22) is int:
                    return tuple.__new__(cls, (a11, a12, a21, a22))
                raise ValueError(f"matrix entries must be integers, got {rows!r}")
        raise ValueError(f"expected a 2x2 nested list, got {rows!r}")

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

    def _shape(self) -> tuple[int, int] | None:
        """(period, degree) of k -> self^k from _SHAPES, or None for a
        hyperbolic or non-unimodular matrix.  A diagonal matrix with a
        shape is +-E or +-diag(1, -1), so degree 0 is right for all four."""
        a11, a12, a21, a22 = self
        shape = _SHAPES.get((a11 * a22 - a12 * a21, a11 + a22))
        if shape is not None and not (a12 or a21):
            return shape[0], 0
        return shape

    def is_hyperbolic(self) -> bool:
        """Whether the unimodular self is hyperbolic: it has no _shape.

        That is |t| > 2 for det 1 and t != 0 for det -1, the matrices whose
        powers power_map forms by binary exponentiation.  A nonzero power
        of a hyperbolic matrix is hyperbolic, and no power of any other
        unimodular matrix is.
        """
        return self._shape() is None

    def inverse(self) -> "Mat2":
        """Exact inverse: the adjugate for det +1, its negative for det -1."""
        a11, a12, a21, a22 = self
        d = a11 * a22 - a12 * a21
        if d == 1:
            return _new(Mat2, (a22, -a12, -a21, a11))
        if d == -1:
            return _new(Mat2, (-a22, a12, a21, -a11))
        raise NotUnimodular(f"{_has_determinant(self, d)}, no integer inverse")

    def __mul__(self, other: "Mat2") -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        a11, a12, a21, a22 = self
        b11, b12, b21, b22 = other
        return _new(Mat2, (
            a11 * b11 + a12 * b21,
            a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21,
            a21 * b12 + a22 * b22,
        ))

    __add__ = __rmul__ = _undefined
    __radd__ = _no_concatenation

    def __neg__(self) -> "Mat2":
        a11, a12, a21, a22 = self
        return _new(Mat2, (-a11, -a12, -a21, -a22))

    def power_map(self) -> Callable[[int], tuple[int, int, int, int]]:
        """The map k -> entries (a11, a12, a21, a22) of self^k, any sign of k.

        The (det, trace) key is read once, here, and _power_map forms every
        power by its shape.  Cayley-Hamilton (M^2 = tM - dE for det d,
        trace t) gives closed forms that use no matrix product and no
        inverse, so their cost does not grow with k:

          * degree 1 (parabolic, not +-E), trace 2s with s = -1 for period
            2 and s = 1 otherwise: N = sM - E has N^2 = 0, so
            M^k = s^k (E + kN), affine in k up to the sign s^k.
          * degree 0, period n (+-E and the finite orders 2, 3, 4, 6):
            M^k is entry k mod n of the table E, M, ..., M^(n-1), built by
            M^(j+1) = t M^j - d M^(j-1).

        A matrix without a shape (is_hyperbolic, or not unimodular) is
        raised by binary exponentiation: O(log |k|) products whose entries
        grow with k itself.  There a negative exponent goes through
        inverse() and therefore requires determinant +1 or -1.
        """
        a11, a12, a21, a22 = self
        return _power_map(self, a11 * a22 - a12 * a21, a11 + a22)

    def __pow__(self, k: int) -> "Mat2":
        """Exact k-th power, any sign of k: power_map applied once."""
        if not isinstance(k, int):
            return NotImplemented
        return Mat2(*self.power_map()(k))

    def __str__(self) -> str:
        """[[a11,a12],[a21,a22]], each entry too long to print given by
        its bit length (_decimal)."""
        a11, a12, a21, a22 = map(_decimal, self)
        return f"[[{a11},{a12}],[{a21},{a22}]]"


IDENTITY = Mat2(1, 0, 0, 1)
_NEG_IDENTITY = -IDENTITY


def _power_map(m: Mat2, det: int, trace: int) -> Callable[[int], tuple[int, int, int, int]]:
    """Mat2.power_map of m, given its det and trace, as the search has
    read them; +-E, with no off-diagonal entry, has degree 0 (Mat2._shape)."""
    a11, a12, a21, a22 = m
    shape = _SHAPES.get((det, trace))
    if shape is None:

        def power(k):
            base = m
            if k < 0:
                base = m.inverse()
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
    n, degree = shape
    if degree and (a12 or a21):
        s = -1 if n == 2 else 1
        n11, n12, n21, n22 = s * a11 - 1, s * a12, s * a21, s * a22 - 1

        def power(k):
            e = s if k & 1 else 1
            return (e * (1 + k * n11), e * k * n12, e * k * n21, e * (1 + k * n22))

        return power
    table = [(1, 0, 0, 1), (a11, a12, a21, a22)]
    while len(table) < n:
        (p11, p12, p21, p22), (c11, c12, c21, c22) = table[-2], table[-1]
        table.append((
            trace * c11 - det * p11, trace * c12 - det * p12,
            trace * c21 - det * p21, trace * c22 - det * p22,
        ))
    return lambda k: table[k % n]


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

