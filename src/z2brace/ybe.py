"""Set-theoretic Yang-Baxter solutions built from valid braces on Z^2.

A valid pair (phi, psi) yields the map

    r(x, y) = (-x + (x*y),  (-x + (x*y))^-1 * x * y)

where * is the brace multiplication and ^-1 its inverse.  It is computed
in the closed form

    r(x, y) = (lambda_x(y),  lambda_y^-1(x)).

Proof: -x + (x*y) = lambda_x(y) =: u, and in a brace u^-1 * v =
lambda_u^-1(v - u), so the second component is lambda_u^-1(x); since
u - y lies in the kernel of lambda, lambda_u = lambda_y.  On a valid pair
phi and psi commute, so lambda is a homomorphism and lambda_y^-1 =
lambda_-y.  Both components are matrix-vector products with elements of
GL2(Z), so r is non-degenerate on all of Z^2, not only on a sampled box;
the non-degeneracy check is exactly that, det lambda_x = +-1 = det lambda_y.

sample_report checks that map for one pair on seeded samples.  It builds
lambda's closed form once (brace._lambda_form, which raises InvalidSpec on
an invalid pair) and runs one sampling kernel per form, _sample_table or
_sample_affine.  Each evaluates a sample's seven r's inline, on four
integers per evaluation, with no function call and no tuple: u = r(x, y),
the first step of r12 r23 r12 and the argument of the involutivity check,
is computed once, then two more for r12 r23 r12, three for r23 r12 r23,
and r(u) for involutivity.  For a table form (phi and psi both of finite
order, as in every family but 1.2) the table kernel flattens the table
once by cell, x's cell being (x1 mod n_phi, x2 mod n_psi), reads lambda_v
and lambda_-w of r(v, w) in one lookup, writes out both matrix-vector
products, and decides det lambda = +-1 once per cell, so a sample is
degenerate iff the cell of x or of y is.  For the affine form of 1.2,
lambda_x = E + x1 a + x2 b, r(x, y) is (y + x1 a y + x2 b y,
x - y1 a x - y2 b x) written out; the affine kernel forms m_v = v1 a + v2 b
once per point and takes det(E + m_x) and det(E + m_y) per sample, since
an injected form of a non-commuting pair need not be unimodular.  The
coordinates come from getrandbits exactly as random.Random.randint draws
them (_coordinates), one sample at a time, so a seed names the same
samples and memory does not grow with their number; only the failures
are converted to lists.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterable, Iterator

from .brace import BraceSpec, InvalidSpec, _lambda_form, _LambdaAffine, _LambdaTable

__all__ = [
    "InvalidSpec",
    "sample_report",
]


# The kernels name a sample's points as r12 r23 r12 and r23 r12 r23 reach
# them, applied right to left to (x, y, z):
#   left:  (u, v) = r(x, y), (s, w) = r(v, z), (d, e) = r(u, s) -> (d, e, w)
#   right: (f, g) = r(y, z), (h, i) = r(x, f), (j, k) = r(i, g) -> (h, j, k)
# The braid relation holds iff the two triples are equal, and involutivity
# iff r(u, v) = (x, y).  Failures are appended as the samples are drawn.


def _sample_table(form: _LambdaTable, draws: Iterable[tuple]) -> tuple[list, list, list]:
    """The failures of the samples in draws, with lambda read off a table
    form: a point's cell is computed once, and r(p, q) is one lookup,
    pair[cell of p][cell of q] = lambda_p and lambda_-q, then two products
    per coordinate."""
    rows, n_phi, n_psi = form
    # lam[c] holds the entries of lambda_v and neg[c] those of lambda_-v,
    # for every v in the cell c = (v1 mod n_phi) n_psi + v2 mod n_psi.
    cells = [(i, j) for i in range(n_phi) for j in range(n_psi)]
    lam = [rows[i][j] for i, j in cells]
    neg = [rows[-i % n_phi][-j % n_psi] for i, j in cells]
    pair = [[entries + negated for negated in neg] for entries in lam]
    unimodular = [abs(a11 * a22 - a12 * a21) == 1 for a11, a12, a21, a22 in lam]
    ybe_failures, involutivity_failures, nondegeneracy_failures = [], [], []
    for x1, x2, y1, y2, z1, z2 in draws:
        cx = x1 % n_phi * n_psi + x2 % n_psi
        cy = y1 % n_phi * n_psi + y2 % n_psi
        cz = z1 % n_phi * n_psi + z2 % n_psi
        p11, p12, p21, p22, q11, q12, q21, q22 = pair[cx][cy]
        u1 = p11 * y1 + p12 * y2
        u2 = p21 * y1 + p22 * y2
        v1 = q11 * x1 + q12 * x2
        v2 = q21 * x1 + q22 * x2
        cu = u1 % n_phi * n_psi + u2 % n_psi
        cv = v1 % n_phi * n_psi + v2 % n_psi
        p11, p12, p21, p22, q11, q12, q21, q22 = pair[cv][cz]
        s1 = p11 * z1 + p12 * z2
        s2 = p21 * z1 + p22 * z2
        w1 = q11 * v1 + q12 * v2
        w2 = q21 * v1 + q22 * v2
        p11, p12, p21, p22, q11, q12, q21, q22 = pair[cu][s1 % n_phi * n_psi + s2 % n_psi]
        d1 = p11 * s1 + p12 * s2
        d2 = p21 * s1 + p22 * s2
        e1 = q11 * u1 + q12 * u2
        e2 = q21 * u1 + q22 * u2
        p11, p12, p21, p22, q11, q12, q21, q22 = pair[cy][cz]
        f1 = p11 * z1 + p12 * z2
        f2 = p21 * z1 + p22 * z2
        g1 = q11 * y1 + q12 * y2
        g2 = q21 * y1 + q22 * y2
        p11, p12, p21, p22, q11, q12, q21, q22 = pair[cx][f1 % n_phi * n_psi + f2 % n_psi]
        h1 = p11 * f1 + p12 * f2
        h2 = p21 * f1 + p22 * f2
        i1 = q11 * x1 + q12 * x2
        i2 = q21 * x1 + q22 * x2
        p11, p12, p21, p22, q11, q12, q21, q22 = pair[i1 % n_phi * n_psi + i2 % n_psi][
            g1 % n_phi * n_psi + g2 % n_psi
        ]
        if (
            d1 != h1 or d2 != h2
            or e1 != p11 * g1 + p12 * g2 or e2 != p21 * g1 + p22 * g2
            or w1 != q11 * i1 + q12 * i2 or w2 != q21 * i1 + q22 * i2
        ):
            ybe_failures.append([[x1, x2], [y1, y2], [z1, z2]])
        p11, p12, p21, p22, q11, q12, q21, q22 = pair[cu][cv]
        if (
            p11 * v1 + p12 * v2 != x1 or p21 * v1 + p22 * v2 != x2
            or q11 * u1 + q12 * u2 != y1 or q21 * u1 + q22 * u2 != y2
        ):
            involutivity_failures.append([[x1, x2], [y1, y2]])
        if not (unimodular[cx] and unimodular[cy]):
            nondegeneracy_failures.append([[x1, x2], [y1, y2]])
    return ybe_failures, involutivity_failures, nondegeneracy_failures


def _sample_affine(form: _LambdaAffine, draws: Iterable[tuple]) -> tuple[list, list, list]:
    """The failures of the samples in draws, with r written out from an
    affine form: m_p = p1 a + p2 b is formed once per point p (its entries
    p11, p12, p21, p22), lambda_p = E + m_p and lambda_-p = E - m_p, so
    r(p, q) = (q + m_p q, p - m_q p)."""
    (a11, a12, a21, a22), (b11, b12, b21, b22) = form
    ybe_failures, involutivity_failures, nondegeneracy_failures = [], [], []
    for x1, x2, y1, y2, z1, z2 in draws:
        x11, x12 = x1 * a11 + x2 * b11, x1 * a12 + x2 * b12
        x21, x22 = x1 * a21 + x2 * b21, x1 * a22 + x2 * b22
        y11, y12 = y1 * a11 + y2 * b11, y1 * a12 + y2 * b12
        y21, y22 = y1 * a21 + y2 * b21, y1 * a22 + y2 * b22
        z11, z12 = z1 * a11 + z2 * b11, z1 * a12 + z2 * b12
        z21, z22 = z1 * a21 + z2 * b21, z1 * a22 + z2 * b22
        u1 = y1 + x11 * y1 + x12 * y2
        u2 = y2 + x21 * y1 + x22 * y2
        v1 = x1 - y11 * x1 - y12 * x2
        v2 = x2 - y21 * x1 - y22 * x2
        u11, u12 = u1 * a11 + u2 * b11, u1 * a12 + u2 * b12
        u21, u22 = u1 * a21 + u2 * b21, u1 * a22 + u2 * b22
        v11, v12 = v1 * a11 + v2 * b11, v1 * a12 + v2 * b12
        v21, v22 = v1 * a21 + v2 * b21, v1 * a22 + v2 * b22
        s1 = z1 + v11 * z1 + v12 * z2
        s2 = z2 + v21 * z1 + v22 * z2
        w1 = v1 - z11 * v1 - z12 * v2
        w2 = v2 - z21 * v1 - z22 * v2
        s11, s12 = s1 * a11 + s2 * b11, s1 * a12 + s2 * b12
        s21, s22 = s1 * a21 + s2 * b21, s1 * a22 + s2 * b22
        d1 = s1 + u11 * s1 + u12 * s2
        d2 = s2 + u21 * s1 + u22 * s2
        e1 = u1 - s11 * u1 - s12 * u2
        e2 = u2 - s21 * u1 - s22 * u2
        f1 = z1 + y11 * z1 + y12 * z2
        f2 = z2 + y21 * z1 + y22 * z2
        g1 = y1 - z11 * y1 - z12 * y2
        g2 = y2 - z21 * y1 - z22 * y2
        f11, f12 = f1 * a11 + f2 * b11, f1 * a12 + f2 * b12
        f21, f22 = f1 * a21 + f2 * b21, f1 * a22 + f2 * b22
        h1 = f1 + x11 * f1 + x12 * f2
        h2 = f2 + x21 * f1 + x22 * f2
        i1 = x1 - f11 * x1 - f12 * x2
        i2 = x2 - f21 * x1 - f22 * x2
        i11, i12 = i1 * a11 + i2 * b11, i1 * a12 + i2 * b12
        i21, i22 = i1 * a21 + i2 * b21, i1 * a22 + i2 * b22
        g11, g12 = g1 * a11 + g2 * b11, g1 * a12 + g2 * b12
        g21, g22 = g1 * a21 + g2 * b21, g1 * a22 + g2 * b22
        if (
            d1 != h1 or d2 != h2
            or e1 != g1 + i11 * g1 + i12 * g2 or e2 != g2 + i21 * g1 + i22 * g2
            or w1 != i1 - g11 * i1 - g12 * i2 or w2 != i2 - g21 * i1 - g22 * i2
        ):
            ybe_failures.append([[x1, x2], [y1, y2], [z1, z2]])
        if (
            v1 + u11 * v1 + u12 * v2 != x1 or v2 + u21 * v1 + u22 * v2 != x2
            or u1 - v11 * u1 - v12 * u2 != y1 or u2 - v21 * u1 - v22 * u2 != y2
        ):
            involutivity_failures.append([[x1, x2], [y1, y2]])
        if not (
            abs((1 + x11) * (1 + x22) - x12 * x21) == 1
            == abs((1 + y11) * (1 + y22) - y12 * y21)
        ):
            nondegeneracy_failures.append([[x1, x2], [y1, y2]])
    return ybe_failures, involutivity_failures, nondegeneracy_failures


def _coordinates(seed: int, box: int) -> Iterator[int]:
    """Endless coordinates, each the value random.Random(seed).randint(-box,
    box) would return in turn: getrandbits of width's bit length, redrawn
    until it is below width = 2 box + 1, minus box."""
    getrandbits = random.Random(seed).getrandbits
    width = 2 * box + 1
    k = width.bit_length()
    while True:
        v = getrandbits(k)
        if v < width:
            yield v - box


def sample_report(
    spec: BraceSpec, samples: int = 1000, seed: int = 0, box: int = 4
) -> dict:
    """Seeded sampling report for one valid spec.

    An invalid spec raises InvalidSpec, from _lambda_form, before any other
    argument is checked.  Draws `samples` triples with coordinates uniform
    in [-box, box] and records every braid-relation, involutivity and
    non-degeneracy failure (expected none).  Each sample draws x1, x2, y1,
    y2, z1, z2 in that order, each one the value rng.randint(-box, box)
    would return, one sample at a time, so memory does not grow with
    `samples`.  The kernel of lambda's form (_sample_table or
    _sample_affine) checks each sample with its seven evaluations of r
    written out inline.  samples, seed and box must be plain integers
    (bools are rejected), and samples and box positive; seed=None would
    draw from OS entropy, which the report could not name.
    Identical arguments give an identical report.
    """
    form = _lambda_form(spec)
    for name, value in (("samples", samples), ("seed", seed), ("box", box)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name, value in (("samples", samples), ("box", box)):
        if value < 1:
            raise ValueError(f"{name} must be positive")
    coordinates = _coordinates(seed, box)
    # zip takes six consecutive coordinates per sample, in order.
    draws = islice(zip(*[coordinates] * 6), samples)
    kernel = _sample_table if isinstance(form, _LambdaTable) else _sample_affine
    ybe_failures, involutivity_failures, nondegeneracy_failures = kernel(form, draws)
    return {
        "spec": spec.to_dict(),
        "samples": samples,
        "seed": seed,
        "box": box,
        "ybe_failures": sorted(ybe_failures),
        "involutivity_failures": sorted(involutivity_failures),
        "nondegeneracy_failures": sorted(nondegeneracy_failures),
    }
