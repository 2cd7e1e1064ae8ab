"""The twelve-family classification of valid pairs, and its cross-validation.

Valid pairs (phi, psi) fall into twelve parametric families, labelled with
dotted names 1.1 .. 4.2 and grouped into four blocks by the determinant
signs (det phi, det psi): block 1 = (1, 1), block 2 = (1, -1),
block 3 = (-1, 1), block 4 = (-1, -1).  This module provides

  * exact constructors for every family (generate_row),
  * a membership test that reads each family's parameters off the pair in
    O(1) and keeps the family iff its constructor regenerates the pair
    exactly (row_membership), so the family definitions live only in
    the family records; it tries only the families listed under the
    pair's signature ((det phi, tr phi), (det psi, tr psi)) in
    _SIGNATURE_LABELS, a table read off those records, since a family
    whose constructor fixes other (det, trace) values can never
    regenerate the pair,
  * a duplicate-free enumeration of unimodular matrices with bounded
    entries in ascending (a11, a12) rows, streamed with no index in
    O(bound) memory and in time proportional to their number, each
    (a11, a12) solving its own a21 and a22 and each Mat2 made by
    tuple.__new__ (enumerate_unimodular),
  * one table of the (det, trace) classes a valid pair can use
    (_CLASSES: (1, 2), (1, -1) and (-1, 0)), in which E is the only
    scalar, read both by the pass and by the partner rules,
  * one pass over that listing (_pair_classes) that reads each matrix's
    (det, trace) once, trace first, and with that key decides whether
    a valid pair can use it (a class of _CLASSES, or -E), builds its
    power map and files it into its (det, trace) group,
  * the partner rules (_search_partners): every psi that can pair with
    a phi of _CLASSES other than E, on all of Z^2,
  * a bidirectional exhaustive cross-validation (exhaustive_search):
    every valid pair in the bounded box must match a family, and every
    family instance that fits in the box must be valid; the instances are
    the parameters each family's record reads off the pass's groups,
    rebuilt by its constructor on entry 4-tuples (_row_instances), and
    one dict from each member pair to the positions of its families
    serves both directions: one forward loop over the in-class matrices
    decides each pair once, and each valid pair is counted where it is
    found, popped from the dict on its entry tuples, which a pair of
    Mat2s already is, and counted under its families, with no list of
    valid pairs kept; only the members left are checked, and one that
    is valid, which the forward loop never decided, raises
    AssertionError.

Each family is one record in _FAMILIES, the module's only table of
family definitions, keyed by RowLabel in label order.  A record holds
  * label, which its error messages name,
  * names and optional: its RowParams fields, required then optional,
    in the order its constructor takes them,
  * build(*params): the plain parameters -> (phi entries, psi entries)
    as plain entry 4-tuples (a11, a12, a21, a22), or BadParams,
  * recover(phi, psi): the plain parameters read off any pair of entry
    4-tuples, Mat2s included, or None,
  * signatures(): the ((det phi, tr phi), (det psi, tr psi)) its members
    have,
  * members(bound, groups, readings): its members whose entries all fit
    in the box [-bound, bound], as pairs of entry 4-tuples, given its
    in-class matrices grouped by (det, trace); readings is one dict per
    search in which the records that read M alike share their rebuilt M's.
_SIGNATURE_LABELS and generate_row's parameter check (_need) are read
off the records.  generate_row checks a RowParams against the record's
names, calls build and wraps the pair in a BraceSpec; row_membership
recovers from the pair's matrices and compares the regenerated entries
with them; the search reads every record's members and builds no
BraceSpec for a member.  A Mat2 equals and hashes as its entry tuple, so
the plain pairs a constructor returns join directly with pairs of Mat2s.

RowParams and SearchReport are NamedTuples like Mat2; RowParams checks
its signs in the __new__ of a subclass of its NamedTuple fields.

Families 1.1 (_ScalarFamily) and 1.2 (_UnipotentFamily) are written out
and list their members outright.  In the other ten, the table families
(_TableFamily), one matrix M of fixed (det, trace) sits beside its
partner s M + c E: E, -E, M, -M, or M^-1 = -M - E for an order-3 M.
phi is M, or psi is M conjugated by the coordinate swap, which reverses
an entry tuple, with phi the partner (side).  One placement (place), one
signature formula, one recovery (recover, which reads only M's entry
tuple) and one in-box listing serve all ten; only how M is read off its
entries (read, raising nothing) and rebuilt (matrix) differs between the
two record classes.  In a square-root family (_RootFamily: 1.3, 1.4,
2.1, 2.2, 3.1, 3.2, 4.2) M's off-diagonal entries are p_scale p and
q_scale q, and its diagonal needs the exact root of a radicand.  In a rational
family (_RationalFamily: 1.5, 1.6, 4.1) M = phi has a11 = h fixed by one
exact division of its determinant equation.  A table record's members
are the M's that matrix rebuilds from what read takes off the box's
in-class matrices of M's (det, trace), placed beside their partners.
Every constructor rejects non-squares, inexact divisions and any
parameter outside its family's signature.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import product
from typing import Callable, Iterable, Iterator, NamedTuple

from .brace import BraceSpec, _identities_hold, check_pair
from .gl2z import _NEG_IDENTITY, IDENTITY, Mat2, _decimal, _power_map

__all__ = [
    "BadParams",
    "GcdError",
    "IntegralityError",
    "RowLabel",
    "RowParams",
    "SearchReport",
    "enumerate_unimodular",
    "exhaustive_search",
    "generate_row",
    "row_label",
    "row_membership",
]


class BadParams(ValueError):
    """Parameters do not fit the family (wrong arity or excluded values)."""


class IntegralityError(BadParams):
    """A radicand is not a perfect square, or a division is not exact."""


class GcdError(BadParams):
    """Family 1.2 requires gcd(p, q) = 1."""


class RowLabel(Enum):
    """Dotted labels of the twelve classification families."""

    R1_1 = "1.1"
    R1_2 = "1.2"
    R1_3 = "1.3"
    R1_4 = "1.4"
    R1_5 = "1.5"
    R1_6 = "1.6"
    R2_1 = "2.1"
    R2_2 = "2.2"
    R3_1 = "3.1"
    R3_2 = "3.2"
    R4_1 = "4.1"
    R4_2 = "4.2"

    def __str__(self) -> str:
        return self.value


def row_label(value: str) -> RowLabel:
    """Look up a label from its dotted form, e.g. "1.2"."""
    try:
        return RowLabel(value)
    except ValueError:
        raise BadParams(f"unknown family label {value!r}") from None


class _RowParamsFields(NamedTuple):
    m: int | None = None
    p: int | None = None
    q: int | None = None
    n: int | None = None
    sign1: int | None = None
    sign2: int | None = None


class RowParams(_RowParamsFields):
    """Family parameters; which fields apply depends on the label.

    1.1: sign1, sign2            1.2: m, p, q (gcd(p, q) = 1)
    1.3/1.4: p, q, sign1         1.5/1.6: m, n
    2.1/2.2/3.1/3.2/4.2: p, q, sign1
    4.1: m, n, plus p exactly when m = n (m = n in {0, -1}), where the
         division that fixes h reads h * 0 = 0.

    A family's constructor rejects every other field that is set.  A set
    field must be a plain int (not a bool), or BadParams names it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RowParams":
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if value is not None and type(value) is not int:
                raise BadParams(f"{name} must be an integer, got {value!r}")
            if name in ("sign1", "sign2") and value not in (None, 1, -1):
                raise BadParams(f"{name} must be +1 or -1, got {_decimal(value)}")
        return self

    # _replace builds through _make, which would skip the check above.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


#: An entry 4-tuple (a11, a12, a21, a22), the form the family
#: constructors, recoverers and the search's member list work on.
_Entries = tuple[int, int, int, int]

#: A pair (phi entries, psi entries).
_Pair = tuple[_Entries, _Entries]

#: ((det phi, tr phi), (det psi, tr psi)) of a pair.
_PairSignature = tuple[tuple[int, int], tuple[int, int]]

#: The (det, trace) classes of the non-scalar matrices a valid pair can
#: use: (1, 2) parabolic, (1, -1) order 3 and (-1, 0) the reflections.
#: Of the scalars, E has (1, 2) and -E (1, -2); a E has det a^2 = 1 and
#: trace 2 a, so E is the only scalar in a class.
_CLASSES = frozenset({(1, 2), (1, -1), (-1, 0)})

#: The box's in-class matrices grouped by their (det, trace).
_Groups = dict[tuple[int, int], list[Mat2]]

#: Each in-class matrix of the box to its power map.
_Powers = dict[Mat2, Callable[[int], _Entries]]

#: The M's that the table records rebuild in one search, by what fixes
#: their read and matrix (_TableFamily.members).
_Readings = dict[tuple, list[_Entries]]


def _need(params: RowParams, family: _Family) -> list[int | None]:
    # The values of the family's parameters, in the record's order: each
    # required one must be set, an optional one may be None, and every
    # other field must be unset.
    names, optional, label = family.names, family.optional, family.label
    stray = [
        name
        for name in RowParams._fields
        if getattr(params, name) is not None and name not in names and name not in optional
    ]
    if stray:
        raise BadParams(f"family {label} takes no parameter {', '.join(stray)}")
    values = [getattr(params, name) for name in names]
    if None in values:
        raise BadParams(f"family {label} needs parameters {', '.join(names)}")
    return values + [getattr(params, name) for name in optional]


def _exact_sqrt(radicand: int) -> int:
    """Nonnegative integer square root, or IntegralityError."""
    root = math.isqrt(max(radicand, 0))
    if root * root != radicand:
        raise IntegralityError(f"radicand {_decimal(radicand)} is not a perfect square")
    return root


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _exact_div(num: int, den: int) -> int:
    if den == 0 or num % den != 0:
        raise IntegralityError(f"{_decimal(num)}/{_decimal(den)} is not an integer")
    return num // den


class _ScalarFamily:
    """1.1: phi = sign1 E and psi = sign2 E."""

    label = RowLabel.R1_1
    names, optional = ("sign1", "sign2"), ()

    def build(self, sign1: int, sign2: int) -> _Pair:
        return (sign1, 0, 0, sign1), (sign2, 0, 0, sign2)

    def recover(self, phi: _Entries, psi: _Entries) -> tuple[int, int]:
        return (phi[0], psi[0])

    def signatures(self) -> tuple[_PairSignature, ...]:
        # s E has det 1 and trace 2 s.
        return tuple(((1, 2 * s1), (1, 2 * s2)) for s1, s2 in product((1, -1), repeat=2))

    def members(self, bound: int, groups: _Groups, readings: _Readings) -> list[_Pair]:
        return [self.build(*signs) for signs in product((1, -1), repeat=2)]


class _UnipotentFamily:
    """1.2: phi = E + m p N and psi = E + m q N with N the primitive
    nilpotent ((p q, q^2), (-p^2, -p q)) and gcd(p, q) = 1.

    (m, p, q) and (-m, -p, -q) give the same pair, and m = 0 gives (E, E)
    for every (p, q), so recover and members use one canonical form:
    p > 0, or p = 0 with q > 0, and (0, 1, 0) for (E, E).
    """

    label = RowLabel.R1_2
    names, optional = ("m", "p", "q"), ()

    def build(self, m: int, p: int, q: int) -> _Pair:
        if math.gcd(p, q) != 1:
            raise GcdError(
                f"gcd({_decimal(p)}, {_decimal(q)}) = {_decimal(math.gcd(p, q))}, must be 1"
            )
        return (
            (1 + m * p * p * q, m * p * q * q, -m * p**3, 1 - m * p * p * q),
            (1 + m * p * q * q, m * q**3, -m * p * p * q, 1 - m * p * q * q),
        )

    def recover(self, phi: _Entries, psi: _Entries) -> tuple[int, int, int]:
        # N is primitive, so gcd(phi - E) = |m p|, gcd(psi - E) = |m q| and
        # their gcd is |m|.  -phi21 = m p^3 and psi12 = m q^3 give the signs,
        # in the canonical form.
        a = math.gcd(phi[0] - 1, phi[1], phi[2], phi[3] - 1)
        b = math.gcd(psi[0] - 1, psi[1], psi[2], psi[3] - 1)
        g = math.gcd(a, b)
        if g == 0:
            return (0, 1, 0)
        s = _sign(-phi[2]) or _sign(psi[1])
        return (s * g, a // g, _sign(s * psi[1]) * (b // g))

    def signatures(self) -> tuple[_PairSignature, ...]:
        # N^2 = 0, and E + X with X^2 = 0 has det 1 and trace 2.
        return (((1, 2), (1, 2)),)

    def members(self, bound: int, groups: _Groups, readings: _Readings) -> Iterator[_Pair]:
        # Each pair once, in the canonical form.  A member in the box has
        # |m| max(|p|, |q|)^3 <= bound, and its diagonal entries
        # 1 +- m p^2 q or 1 +- m p q^2 may still pass the bound by one.
        yield self.build(0, 1, 0)
        cap = 0
        while (cap + 1) ** 3 <= bound:
            cap += 1
        for p, q in product(range(cap + 1), range(-cap, cap + 1)):
            if (p > 0 or q > 0) and math.gcd(p, q) == 1:
                m_max = bound // max(p, abs(q)) ** 3
                pairs = (self.build(m, p, q) for m in range(-m_max, m_max + 1) if m)
                yield from (pair for pair in pairs if max(map(abs, pair[0] + pair[1])) <= bound)


class _TableFamily:
    """What the ten table families share.  Each has one matrix M of fixed
    (det, trace), which its record class reads the parameters off (read)
    and rebuilds from them (matrix), and which sits beside its partner
    s M + c E, partner = (s, c): E is (0, 1), -E (0, -1), M (1, 0), -M
    (-1, 0), and M^-1 is (-1, -1), since an order-3 M has
    M^2 + M + E = 0.  A record's fields start with label, side and
    partner; the fields after them fix read and matrix."""

    __slots__ = ()

    def build(self, *params) -> _Pair:
        return self.place(self.matrix(*params))

    def place(self, m: _Entries) -> _Pair:
        """(M, partner) for a phi-side record; a psi-side one conjugates
        both by the coordinate swap, which reverses an entry tuple, and
        exchanges them.  For a member every entry of the partner is one of
        M's up to sign, or 0 or +-1."""
        s, c = self.partner
        if self.side == "psi":
            m = m[::-1]
        a11, a12, a21, a22 = m
        # A partner M is M's own tuple: a 1.5 or 4.1 member holds one.
        partner = m if s == 1 and not c else (s * a11 + c, s * a12, s * a21, s * a22 + c)
        return (m, partner) if self.side == "phi" else (partner, m)

    def signatures(self) -> tuple[_PairSignature, ...]:
        """The (det, trace) of phi and of psi in every member: M's on its
        side (the coordinate swap keeps both), the partner's on the other,
        det(s M + c E) = s^2 det + s c trace + c^2 and trace s trace + 2 c."""
        det, trace, (s, c) = self.det, self.trace, self.partner
        m, partner = (det, trace), (s * s * det + s * c * trace + c * c, s * trace + 2 * c)
        return ((m, partner) if self.side == "phi" else (partner, m),)

    def recover(self, phi: _Entries, psi: _Entries) -> tuple | None:
        return self.read(phi if self.side == "phi" else psi[::-1])

    def members(self, bound: int, groups: _Groups, readings: _Readings) -> Iterator[_Pair]:
        """Each M that matrix rebuilds from what read takes off an in-class
        matrix of M's (det, trace), placed beside its partner.  The rebuilt
        list is kept in readings under the record's class and the fields
        that fix read and matrix, so the records that share them rebuild
        each M once."""
        key = (type(self), *self[3:])
        if key not in readings:
            read = filter(None, map(self.read, groups.get((self.det, self.trace), ())))
            readings[key] = [self.matrix(*params) for params in read]
        return map(self.place, readings[key])


class _RootFields(NamedTuple):
    label: RowLabel
    side: str  # "phi" or "psi"
    partner: tuple[int, int]  # (s, c) of the partner s M + c E
    det: int
    trace: int
    p_scale: int
    q_scale: int


class _RootFamily(_RootFields, _TableFamily):
    """M = ((trace + sign1 r) / 2, p_scale p, q_scale q, (trace - sign1 r) / 2).
    det M = det makes r^2 = radicand(p, q); r and trace have one parity,
    and r is never 0."""

    __slots__ = ()
    names, optional = ("p", "q", "sign1"), ()

    def radicand(self, p: int, q: int) -> int:
        return self.trace**2 - 4 * self.det - 4 * self.p_scale * self.q_scale * p * q

    def matrix(self, p: int, q: int, sign1: int) -> _Entries:
        """The entries of M, or IntegralityError for a non-square radicand."""
        t, r = self.trace, sign1 * _exact_sqrt(self.radicand(p, q))
        return ((t + r) // 2, self.p_scale * p, self.q_scale * q, (t - r) // 2)

    def read(self, m: _Entries) -> tuple[int, int, int] | None:
        """(p, q, sign1) read off the entries of M, or None if a scale
        does not divide its entry or the diagonal is constant."""
        a11, a12, a21, a22 = m
        p, p_rest = divmod(a12, self.p_scale)
        q, q_rest = divmod(a21, self.q_scale)
        if p_rest or q_rest or a11 == a22:
            return None
        return (p, q, _sign(a11 - a22))


class _RationalFields(NamedTuple):
    label: RowLabel
    side: str  # "phi"
    partner: tuple[int, int]  # (s, c) of the partner s M + c E
    det: int
    trace: int
    u: int
    v: int
    k: int
    e: int


class _RationalFamily(_RationalFields, _TableFamily):
    """M = (h, u + k n + e h, e (v + k m - h), trace - h) with e = +-1.
    det M = det reads h * divisor = dividend (division).  Where both are
    0, h is the free parameter p; where only the divisor is 0, the family
    has no member."""

    __slots__ = ()
    names, optional = ("m", "n"), ("p",)

    def division(self, m: int, n: int) -> tuple[int, int]:
        """(divisor, dividend) of the equation h * divisor = dividend."""
        a, b = self.u + self.k * n, self.v + self.k * m
        return self.trace + self.e * a - b, self.det + self.e * a * b

    def matrix(self, m: int, n: int, p: int | None) -> _Entries:
        divisor, dividend = self.division(m, n)
        if not divisor and dividend:
            raise BadParams(
                f"family {self.label} has no member with m = {_decimal(m)}, n = {_decimal(n)}"
            )
        if (p is None) == (not divisor):
            needs = "needs the free" if p is None else "takes no"
            raise BadParams(
                f"family {self.label} with m = {_decimal(m)}, n = {_decimal(n)} "
                f"{needs} parameter p"
            )
        h = _exact_div(dividend, divisor) if divisor else p
        e, k = self.e, self.k
        return (h, self.u + k * n + e * h, e * (self.v + k * m - h), self.trace - h)

    def read(self, m: _Entries) -> tuple[int, int, int | None] | None:
        """(m, n, p) read off the entries of M, p set only where the
        divisor is 0, or None if a division by k is inexact."""
        h, a12, a21, _ = m
        n, n_rest = divmod(a12 - self.u - self.e * h, self.k)
        m_, m_rest = divmod(self.e * a21 - self.v + h, self.k)
        if n_rest or m_rest:
            return None
        return (m_, n, None if self.division(m_, n)[0] else h)


_Family = _ScalarFamily | _UnipotentFamily | _RootFamily | _RationalFamily

#: The record of every family, in the order of RowLabel.  A table record's
#: partner (s, c) is s M + c E: (0, 1) E, (0, -1) -E, (1, 0) M, (-1, 0) -M
#: and (-1, -1) M^-1.
_FAMILIES: dict[RowLabel, _Family] = {
    family.label: family
    for family in (
        _ScalarFamily(),
        _UnipotentFamily(),
        _RootFamily(RowLabel.R1_3, "psi", (0, 1), 1, -1, 3, 1),
        _RootFamily(RowLabel.R1_4, "phi", (0, 1), 1, -1, 3, 1),
        _RationalFamily(RowLabel.R1_5, "phi", (1, 0), 1, -1, 2, 1, 3, 1),
        _RationalFamily(RowLabel.R1_6, "phi", (-1, -1), 1, -1, 1, 1, 3, -1),
        _RootFamily(RowLabel.R2_1, "psi", (0, 1), -1, 0, 2, 1),
        _RootFamily(RowLabel.R2_2, "psi", (0, -1), -1, 0, 2, 2),
        _RootFamily(RowLabel.R3_1, "phi", (0, 1), -1, 0, 2, 1),
        _RootFamily(RowLabel.R3_2, "phi", (0, -1), -1, 0, 2, 2),
        _RationalFamily(RowLabel.R4_1, "phi", (1, 0), -1, 0, 1, 1, 2, 1),
        _RootFamily(RowLabel.R4_2, "phi", (-1, 0), -1, 0, 2, 2),
    )
}


def generate_row(label: RowLabel, params: RowParams) -> BraceSpec:
    """Construct the exact family member for the given parameters.

    Raises BadParams (or its subclasses IntegralityError / GcdError) when
    the parameters do not produce a member, including when one of them is
    not a parameter of the family.  Every constructed pair is checked by
    check_pair here, under python -O too; an invalid one raises
    AssertionError, a fault of the constructor.
    """
    family = _FAMILIES[label]
    phi, psi = family.build(*_need(params, family))
    spec = BraceSpec(Mat2(*phi), Mat2(*psi))
    if not check_pair(spec).valid:
        raise AssertionError(f"family {label} produced invalid pair {spec}")
    return spec


def _member_params(label: RowLabel, phi: _Entries, psi: _Entries) -> tuple | None:
    """The parameters that generate the pair in the family, or None if
    the pair is not a member: those the record's recover reads must
    regenerate it.  For anything else they are arbitrary, which the
    regeneration rejects."""
    family = _FAMILIES[label]
    params = family.recover(phi, psi)
    if params is None:
        return None
    try:
        return params if family.build(*params) == (phi, psi) else None
    except BadParams:
        return None


def _signature(m: _Entries) -> tuple[int, int]:
    """(det, trace) of an entry 4-tuple, a Mat2 included."""
    a11, a12, a21, a22 = m
    return a11 * a22 - a12 * a21, a11 + a22


def _signature_labels(families: Iterable[_Family]) -> dict[_PairSignature, tuple[RowLabel, ...]]:
    """The labels of the families listed under each signature they have."""
    table: dict[_PairSignature, tuple[RowLabel, ...]] = {}
    for family in families:
        for key in family.signatures():
            table[key] = table.get(key, ()) + (family.label,)
    return table


#: The families that can hold a pair, keyed on the pair's signature
#: ((det phi, tr phi), (det psi, tr psi)), from the family records.
_SIGNATURE_LABELS = _signature_labels(_FAMILIES.values())

#: The labels by their position in _FAMILIES.
_LABELS = tuple(_FAMILIES)


def row_membership(spec: BraceSpec) -> set[RowLabel]:
    """Every family that has the pair among its members.

    The candidates are the families listed under the pair's signature
    ((det phi, tr phi), (det psi, tr psi)) in _SIGNATURE_LABELS; a family
    outside it can never regenerate the pair, because each family's
    constructor fixes the (det, trace) of both matrices of every member.
    A random (hyperbolic) pair has no candidate, and a 1.5 member has two,
    1.5 and 1.6.  For each candidate the parameters are recovered from a
    few entries and the family constructor must regenerate the pair
    exactly, so each test is a fixed number of integer operations, with
    no search, whatever the size of the entries.  Families may overlap;
    for example the identity pair belongs to both 1.1 and 1.2 (with
    m = 0).  Membership does not require the pair to be valid.
    """
    phi, psi = spec
    return {
        label
        for label in _SIGNATURE_LABELS.get((_signature(phi), _signature(psi)), ())
        if _member_params(label, phi, psi) is not None
    }


def enumerate_unimodular(bound: int) -> Iterator[Mat2]:
    """All matrices with entries in [-bound, bound] and determinant +-1.

    In ascending (a11, a12) rows, each row's matrices together and each
    matrix exactly once, but not lexicographic within a row; with no
    index, each (a11, a12) solves its own a21 and a22.  For a11 = 0 the
    determinant -a12 a21 is +-1 exactly when a12 and a21 are +-1, and a22
    is free.  For a11 != 0 and determinant d, a12 a21 + d = a11 a22 forces
    a12 a21 = -d (mod |a11|), so an a12 that is not a unit mod |a11| has
    no matrix, and for a unit the a21 of each d form one progression of
    step |a11|, read from a12's inverse, tabulated once per a11.  The walk
    keeps to the a21 of the box whose a22 = (a12 a21 + d) / a11 is in the
    box too, so each step is a matrix listed, yielded as the range gives
    it: a row is its d = 1 progression and then its d = -1 one.
    The cost is O(|U_B| + bound^2) for the |U_B| matrices listed, and the
    memory O(bound), the table of inverses.  Each Mat2 is made by
    tuple.__new__ from its entry tuple, as Mat2's own constructor makes
    it, without a Python-level call per matrix.  bound must be a positive
    plain integer (bools are rejected).
    """
    if type(bound) is not int:
        raise ValueError(f"bound must be an integer, got {bound!r}")
    if bound < 1:
        raise ValueError("bound must be positive")
    new, gcd = tuple.__new__, math.gcd
    rng = range(-bound, bound + 1)
    for a11 in rng:
        if not a11:
            for a12, a21 in product((-1, 1), repeat=2):
                for a22 in rng:
                    yield new(Mat2, (0, a12, a21, a22))
            continue
        step = abs(a11)
        # |a12 a21 + d| = |a11 a22| <= top keeps a22 in the box.
        top = bound * step
        # The inverse of each unit residue mod step, None for a non-unit.
        inverses = [pow(r, -1, step) if gcd(r, step) == 1 else None for r in range(step)]
        for a12 in rng:
            inverse = inverses[a12 % step]
            if inverse is None:
                continue
            size = abs(a12)
            for d in (1, -1):
                # The a21 of the box with a12 a21 = -d (mod step) and
                # |a12 a21 + d| <= top, from the lowest up.
                low, high = -bound, bound
                if size:
                    e = d if a12 > 0 else -d
                    low, high = max(low, -((top + e) // size)), min(high, (top - e) // size)
                start = low + (-d * inverse - low) % step
                for a21 in range(start, high + 1, step):
                    yield new(Mat2, (a11, a12, a21, (a12 * a21 + d) // a11))


def _row_instances(bound: int, groups: _Groups) -> dict[_Pair, list[int]]:
    """Every family member whose entries all fit in [-bound, bound], as a
    dict from its pair (phi entries, psi entries) to the positions in
    _FAMILIES of its families.

    groups holds the in-class matrices of the box by (det, trace), as
    the one pass of _pair_classes files them.  Every record lists its own
    in-box members (members), built by the raw family constructor on
    entry tuples, not by generate_row, so validity is left to the caller
    and a wrong constructor shows up as an invalid instance.  1.1 lists
    its four sign pairs, and 1.2 each coprime (p, q) in canonical form
    with |m| up to bound / max(|p|, |q|)^3 that fits in the box.  A table
    record rebuilds M from what its read takes off each in-class matrix
    of M's (det, trace) and places it beside its partner; the records
    that read M alike (1.3 and 1.4, 2.1 and 3.1, and 2.2, 3.2 and 4.2)
    share one rebuilt list through readings.  A pair's positions are ints
    in label order; the dict itself is in no particular order.  No record
    lists a member twice, so no position repeats: a table record rebuilds
    each M that its read accepts once, 1.2 lists each canonical (m, p, q)
    once and its recover inverts its build, and 1.1's four pairs differ.

    The dict is complete, and a table member needs no box check and no
    BadParams catch.  The M of every table family has (det, trace)
    (1, -1) or (-1, 0), so it is in class, and its partner (E, -E, M, -M
    or M^-1) has M's |entries| up to place, or 0 and 1; so an in-box
    member has its M in the box and in its group, which is closed under
    the coordinate swap that a psi-side family applies.  For every M of
    the group that read accepts, matrix(*read(M)) == M: the radicand is
    (a11 - a22)^2, and the division gives h = a11.  So every in-box table
    member is rebuilt from groups, every pair rebuilt is in the box, and
    a constructor that raises on its own reading is a fault that raises
    out of the search.
    """
    found: dict[_Pair, list[int]] = {}
    readings: _Readings = {}
    # _FAMILIES lists the families in the order of their dotted labels.
    for position, family in enumerate(_FAMILIES.values()):
        for pair in family.members(bound, groups, readings):
            positions = found.get(pair)
            if positions is None:
                found[pair] = [position]
            else:
                positions.append(position)
    return found


def _labelled(
    members: Iterable[tuple[_Pair, list[int]]],
) -> list[tuple[RowLabel, BraceSpec]]:
    """(label, spec) for each family position of each member pair, sorted
    by (position, pair): families in label order, each family's pairs
    lexicographically.  A pair is listed once per family even when a
    faulty constructor builds it from two parameter sets."""
    return [
        (_LABELS[position], BraceSpec(Mat2(*phi), Mat2(*psi)))
        for position, (phi, psi) in sorted(
            {(position, pair) for pair, positions in members for position in positions}
        )
    ]


class SearchReport(NamedTuple):
    """Outcome of the bidirectional exhaustive cross-validation.

    The classification is confirmed at this bound iff unmatched_valid and
    invalid_row_instances are both empty: every valid pair matched a
    family, and every in-box family member was valid.
    """

    bound: int
    candidates_examined: int
    valid_pairs: int
    unmatched_valid: list[BraceSpec]
    invalid_row_instances: list[tuple[RowLabel, BraceSpec]]
    row_histogram: dict[RowLabel, int]

    @property
    def confirms_classification(self) -> bool:
        return not self.unmatched_valid and not self.invalid_row_instances

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "candidates": self.candidates_examined,
            "valid_pairs": self.valid_pairs,
            "row_histogram": {
                label.value: self.row_histogram.get(label, 0) for label in RowLabel
            },
            "unmatched_valid": [spec.to_dict() for spec in self.unmatched_valid],
            "invalid_row_instances": [
                {"row": label.value, "spec": spec.to_dict()}
                for label, spec in self.invalid_row_instances
            ],
        }


class _Box(NamedTuple):
    """What the one pass of _pair_classes reads off U_B."""

    size: int  # |U_B|, every matrix listed
    power: _Powers  # each in-class matrix's power map
    groups: _Groups  # the in-class matrices by (det, trace)


def _pair_classes(bound: int) -> _Box:
    """One pass over U_B that keeps the matrices in the five classes a
    valid pair can use: the three (det, trace) classes of _CLASSES, E
    among them, and -E.

    Each listed matrix's trace is read first, and its determinant only if
    |trace| <= 2, as every class has trace 2, -1, 0 or -2.  The key (det,
    trace) decides the class: (1, 2) holds E and the parabolic matrices
    of trace 2, (-1, 0) the reflections, (1, -1) order 3, and of (1, -2)
    only -E is kept; these are the shapes (Mat2._shape) (1, 0), (1, 1),
    (2, 0) and (3, 0).  The same key builds the matrix's power map
    (gl2z._power_map), whose dict is the search's one box test, and files
    the matrix into the groups that _row_instances reads.

    Lemma.  A valid pair commutes, so lambda is additive, and then
    lambda_(a*b) = lambda_a lambda_b with a*b = a + lambda_a(b) gives
    lambda_(lambda_a(b)) = lambda_b: lambda_a(b) - b lies in K = ker lambda.
    With a = e1 and a = e2, (phi - E)Z^2 + (psi - E)Z^2 lies in K.  If
    det(phi - E) = det - trace + 1 is not 0, K has finite index dividing
    |det(phi - E)|, so the image of lambda is finite and the order of phi
    divides that index.  This rules out every hyperbolic phi (infinite
    order, det(phi - E) = 2 - trace or -trace, never 0), every phi of det 1
    and trace -2 other than -E (parabolic, infinite order, index 4), and
    orders 4 and 6 (index 2 and 1).  What remains is the five classes; the
    same argument applies to psi.

    enumerate_unimodular rejects a bound that is not a positive integer.
    """
    size = 0
    power: _Powers = {}
    groups: _Groups = {}
    for size, m in enumerate(enumerate_unimodular(bound), 1):
        a11, a12, a21, a22 = m
        trace = a11 + a22
        if -2 <= trace <= 2:
            key = (a11 * a22 - a12 * a21, trace)
            if key in _CLASSES or m == _NEG_IDENTITY:
                power[m] = _power_map(m, *key)
                groups.setdefault(key, []).append(m)
    return _Box(size, power, groups)


def _search_partners(phi: Mat2) -> list[Mat2]:
    """Every unimodular psi for which (phi, psi) can be valid, for a phi
    other than E whose (det, trace) is in _CLASSES.

    The rule reads no box: it gives phi's partners on all of Z^2, at most
    four, in O(1) and in no particular order.  phi's trace names its
    class: 2 parabolic, -1 order 3 and 0 a reflection.

    Lemma.  A valid pair commutes, and lambda_c = E for every column c of
    phi - E and of psi - E.
      * -E rule.  The columns of -E - E are (-2, 0) and (0, -2), where the
        conditions read m^-2 = E for the other matrix m.  So a pair with
        -E is valid only if the other matrix is an involution, and a phi
        with phi phi != E does not pair with -E.
      * Parabolic rule.  Write phi = E + A, A != 0, A^2 = 0.  The matrices
        commuting with phi are xE + tN for the primitive part N of A, and
        the unimodular ones of trace 2 other than E are E + B with B a
        multiple of N.  So AB = BA = 0 and lambda_v = E + v1 A + v2 B.  At
        a column c of A with c2 != 0 the condition reads c1 A + c2 B = 0,
        which leaves B = -(c1/c2) A when the division is exact.  If no
        column has c2 != 0, A = ((0, x), (0, 0)), and the condition at
        (x, 0) asks x A = 0 whatever B is, so no parabolic partner exists.
      * Finite orders.  An order-3 or reflection phi commutes only with
        +-E, +-phi and, for order 3, +-phi^-1.  A reflection keeps E, phi,
        -E and -phi.  An order-3 phi keeps E, phi and phi^2 = phi^-1: -phi
        and -phi^-1 have trace 1, order 6, and lie in no class, and the -E
        rule drops -E because phi phi != E.
    Each partner is E, -E, +-phi, phi^-1 or E + cA beside phi = E + A, so
    it commutes with phi; its four power identities are decided in full.

    Raises ValueError for a phi whose (det, trace) is not in _CLASSES,
    and for E, whose row the rules do not give.  That is every scalar
    phi: a E has det a^2 = 1 and trace 2 a, which is 2, -1 or 0 only for
    a = 1, so E is the only scalar in a class, and -E fails the class test.
    """
    a11, a12, a21, a22 = phi
    trace = a11 + a22
    if (a11 * a22 - a12 * a21, trace) not in _CLASSES or phi == IDENTITY:
        raise ValueError(f"no partner rule for {phi}: scalar or in no non-scalar class")
    if trace == 2:
        # a holds the entries of A = phi - E, (c1, c2) its first column
        # with c2 != 0 if any.  c1 = 0 solves B = 0, psi = E.
        a = (a11 - 1, a12, a21, a22 - 1)
        c1, c2 = (a[0], a[2]) if a[2] else (a[1], a[3])
        if c2 and c1 and not any(c1 * e % c2 for e in a):
            b11, b12, b21, b22 = (-c1 * e // c2 for e in a)
            return [IDENTITY, Mat2(1 + b11, b12, b21, 1 + b22)]
        return [IDENTITY]
    if trace == -1:
        return [IDENTITY, phi, phi.inverse()]
    return [IDENTITY, phi, _NEG_IDENTITY, -phi]


def exhaustive_search(bound: int) -> SearchReport:
    """Cross-validate the classification over all pairs with entries in the box.

    Both orderings of every unimodular pair are covered independently (the
    families are not symmetric under swapping phi and psi), but a pair is
    decided only if it can be valid: both matrices in one of the five
    classes of _pair_classes, and psi among phi's partners.  phi = E pairs
    with every in-class matrix (its row is the pass's power dict itself)
    and -E with the in-class involutions; every other phi has at most four
    partners on Z^2, which _search_partners solves from phi's own pair
    conditions: a reflection 4, an order-3 phi 3, and a parabolic one only
    E and at most one parabolic psi.  The box is listed once, by the one
    pass of _pair_classes, which reads each matrix's (det, trace) once off
    its entries and with that key counts it, keeps it if it is in class,
    builds its power map and files it into its (det, trace) group;
    candidates_examined still counts every ordered pair of the box,
    |U_B|^2.  A partner is decided iff it has a power map in the pass's
    dict, the one box test.  The report fixes its own order: the scan
    visits pairs in no particular order, and unmatched_valid is sorted,
    by phi and then by psi.

    The whole search works on the Mat2s the listing yields, each of which
    is its own entry tuple: the power-map keys, the groups, the partners
    and the join hold those matrices, with no second representation.
    Each pair is decided by brace._identities_hold, which reads the four
    exponents in place off the two entry tuples and compares the powers
    from the pass's two maps, with no commutation test (every partner
    commutes with phi); it stops at the pair's first false identity.  The
    members are keyed by the constructors' plain entry-tuple pairs, which
    equal and hash as the Mat2 pairs they join with.  A BraceSpec is built
    only for a pair the report lists (and for a member the forward scan
    did not find valid, which check_pair then decides).

    Both directions read one dict, _row_instances(bound, groups): every
    in-box family member, mapped to the positions of its families, each
    table family's M read off the pass's (det, trace) groups and rebuilt
    by its constructor, so the box is listed once.  The dict is built
    before the forward scan, and the scan is the join: in its one loop
    over the in-class matrices each pair is decided, and popped, once, as
    the power dict holds each matrix once and each row each partner of
    phi once.  A valid pair adds one to valid_pairs where it is found,
    so no list of valid pairs is kept, and each member pair is hashed
    once in the dict.  A hit adds one to the count of each of its
    families, a join that equals row_membership because the dict is
    complete; a miss is unmatched, so a member missing from the dict fails
    the search loudly.  The reverse direction reuses the forward verdicts:
    the decision is pure and the forward scan visits every pair that can
    be valid, so a popped member is not checked again.  Each pair left
    gets check_pair once, and an invalid one is reported in
    invalid_row_instances once per family, sorted by label and then by
    pair.  A pair left that check_pair finds valid is one the forward scan
    never decided, a fault of the partner rules, and raises AssertionError
    naming it, under python -O too.  enumerate_unimodular rejects a bound
    that is not a positive integer.
    """
    box_size, power, groups = _pair_classes(bound)
    members = _row_instances(bound, groups)
    # -E's row is the in-class involutions: M^2 = tM - dE is E for the
    # reflections, (d, t) = (-1, 0), and for (1, 2) and (1, -1) only at E.
    rows = {IDENTITY: power, _NEG_IDENTITY: [IDENTITY, _NEG_IDENTITY, *groups[-1, 0]]}
    valid = 0
    counts = [0] * len(_LABELS)
    unmatched = []
    for phi, phi_power in power.items():
        for psi in rows[phi] if phi in rows else _search_partners(phi):
            # The box test.  No in-class matrix is hyperbolic, so
            # _identities_hold needs no hyperbolic rule.
            psi_power = power.get(psi)
            if psi_power is not None and _identities_hold(phi, psi, phi_power, psi_power):
                valid += 1
                positions = members.pop((phi, psi), None)
                if positions is None:
                    unmatched.append(BraceSpec(phi, psi))
                else:
                    for position in positions:
                        counts[position] += 1
    for pair in members:
        spec = BraceSpec(Mat2(*pair[0]), Mat2(*pair[1]))
        if check_pair(spec).valid:
            raise AssertionError(f"the search never decided the valid member {spec}")
    return SearchReport(
        bound=bound,
        candidates_examined=box_size**2,
        valid_pairs=valid,
        unmatched_valid=sorted(unmatched),
        invalid_row_instances=_labelled(members.items()),
        row_histogram={_LABELS[i]: count for i, count in enumerate(counts) if count},
    )
