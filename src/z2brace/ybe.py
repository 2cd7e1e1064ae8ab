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

r_map(spec) returns that map for one pair: it builds lambda's closed form
once (brace._lambda_form, which raises InvalidSpec on an invalid pair)
and returns r on four integers, (x1, x2, y1, y2) -> the four
coordinates of r(x, y), as brace.lambda_map returns lambda on two.  lambda
is read in place: for a table form (phi and psi both of finite order, as
in every family but 1.2) two lookups, lambda_x = rows[x1 mod n_phi][x2
mod n_psi] and lambda_-y likewise, then both matrix-vector products
written out; for the affine form of 1.2, lambda_x = E + x1 a + x2 b, r is
written out as (y + x1 a y + x2 b y, x - y1 a x - y2 b x).  No evaluation
forms a matrix product or calls another function.  The braid,
involutivity and non-degeneracy checks are private helpers on four
integers.  The braid and involutivity helpers take u = r(x, y) as given:
it is the first step of r12 r23 r12 and the argument of the involutivity
check, so sample_report computes it once and a sample takes 7
evaluations of r.  Non-degeneracy reads det lambda through lambda's map
from the same form (brace._lambda_of_form, the map lambda_map returns).
sample_report draws each coordinate from getrandbits exactly as
random.Random.randint does, so a seed names the same samples, and
converts only the failures to lists.
"""

from __future__ import annotations

import random
from typing import Callable

from .brace import (
    BraceSpec,
    InvalidSpec,
    _lambda_form,
    _lambda_of_form,
    _LambdaAffine,
    _LambdaTable,
)

__all__ = [
    "InvalidSpec",
    "r_map",
    "sample_report",
]


def _r_of_form(
    form: _LambdaTable | _LambdaAffine,
) -> Callable[[int, int, int, int], tuple[int, int, int, int]]:
    """r on four integers, (x1, x2, y1, y2) -> (lambda_x y, lambda_-y x),
    with lambda read in place from its closed form."""
    if isinstance(form, _LambdaTable):
        rows, n_phi, n_psi = form

        def r(x1: int, x2: int, y1: int, y2: int) -> tuple[int, int, int, int]:
            a11, a12, a21, a22 = rows[x1 % n_phi][x2 % n_psi]
            b11, b12, b21, b22 = rows[-y1 % n_phi][-y2 % n_psi]
            return (
                a11 * y1 + a12 * y2,
                a21 * y1 + a22 * y2,
                b11 * x1 + b12 * x2,
                b21 * x1 + b22 * x2,
            )

        return r
    (a11, a12, a21, a22), (b11, b12, b21, b22) = form

    def r(x1: int, x2: int, y1: int, y2: int) -> tuple[int, int, int, int]:
        # lambda_x = E + x1 a + x2 b and lambda_-y = E - y1 a - y2 b.
        return (
            y1 + x1 * (a11 * y1 + a12 * y2) + x2 * (b11 * y1 + b12 * y2),
            y2 + x1 * (a21 * y1 + a22 * y2) + x2 * (b21 * y1 + b22 * y2),
            x1 - y1 * (a11 * x1 + a12 * x2) - y2 * (b11 * x1 + b12 * x2),
            x2 - y1 * (a21 * x1 + a22 * x2) - y2 * (b21 * x1 + b22 * x2),
        )

    return r


def _ybe_holds(
    r, u: tuple, x1: int, x2: int, y1: int, y2: int, z1: int, z2: int
) -> bool:
    # r12 r23 r12 against r23 r12 r23, applied right to left; u = r(x, y).
    a1, a2, b1, b2 = u
    b1, b2, c1, c2 = r(b1, b2, z1, z2)
    left = (*r(a1, a2, b1, b2), c1, c2)
    b1, b2, c1, c2 = r(y1, y2, z1, z2)
    a1, a2, b1, b2 = r(x1, x2, b1, b2)
    right = (a1, a2, *r(b1, b2, c1, c2))
    return left == right


def _involutive_at(r, u: tuple, x1: int, x2: int, y1: int, y2: int) -> bool:
    # r(r(x, y)) = (x, y), with u = r(x, y).
    return r(*u) == (x1, x2, y1, y2)


def _nondegenerate_at(lam, x1: int, x2: int, y1: int, y2: int) -> bool:
    # v -> first(r(x, v)) is lambda_x and w -> second(r(w, y)) is
    # lambda_y^-1; an integer matrix is a bijection of Z^2 iff its
    # determinant is +-1, so no preimage is built.
    a11, a12, a21, a22 = lam(x1, x2)
    b11, b12, b21, b22 = lam(y1, y2)
    return abs(a11 * a22 - a12 * a21) == 1 == abs(b11 * b22 - b12 * b21)


def r_map(spec: BraceSpec) -> Callable[[int, int, int, int], tuple[int, int, int, int]]:
    """The Yang-Baxter map of a valid pair: (x1, x2, y1, y2) -> the
    coordinates (u1, u2, v1, v2) of r(x, y) = (lambda_x y, lambda_-y x).

    lambda's closed form is built here once, so each evaluation is two
    lookups or the affine form written out, with no matrix product.
    Raises InvalidSpec, from _lambda_form, unless the pair is valid.
    """
    return _r_of_form(_lambda_form(spec))


def sample_report(
    spec: BraceSpec, samples: int = 1000, seed: int = 0, box: int = 4
) -> dict:
    """Seeded sampling report for one valid spec.

    An invalid spec raises InvalidSpec, from _lambda_form, before any other
    argument is checked.  Draws `samples` triples with coordinates uniform
    in [-box, box] and records every braid-relation, involutivity and
    non-degeneracy failure (expected none).  Each sample draws x1, x2, y1,
    y2, z1, z2 in that order, each one the value rng.randint(-box, box)
    would return: getrandbits of width's bit length, redrawn until it is
    below width = 2 box + 1, minus box.  r is evaluated on four integers
    at a time, with no tuple built per point, and u = r(x, y) once per
    sample for both the braid and the involutivity check.  samples, seed
    and box must be plain integers (bools are rejected), and samples and
    box positive; seed=None would draw from OS entropy, which the report
    could not name.
    Identical arguments give an identical report.
    """
    form = _lambda_form(spec)
    r, lam = _r_of_form(form), _lambda_of_form(form)
    for name, value in (("samples", samples), ("seed", seed), ("box", box)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name, value in (("samples", samples), ("box", box)):
        if value < 1:
            raise ValueError(f"{name} must be positive")
    # randint(-box, box) inline: the same stream without its four frames.
    getrandbits = random.Random(seed).getrandbits
    width = 2 * box + 1
    k = width.bit_length()
    ybe_failures = []
    involutivity_failures = []
    nondegeneracy_failures = []
    for _ in range(samples):
        coords = []
        for _ in range(6):
            v = getrandbits(k)
            while v >= width:
                v = getrandbits(k)
            coords.append(v - box)
        x1, x2, y1, y2, z1, z2 = coords
        u = r(x1, x2, y1, y2)
        if not _ybe_holds(r, u, x1, x2, y1, y2, z1, z2):
            ybe_failures.append([[x1, x2], [y1, y2], [z1, z2]])
        if not _involutive_at(r, u, x1, x2, y1, y2):
            involutivity_failures.append([[x1, x2], [y1, y2]])
        if not _nondegenerate_at(lam, x1, x2, y1, y2):
            nondegeneracy_failures.append([[x1, x2], [y1, y2]])
    return {
        "spec": spec.to_dict(),
        "samples": samples,
        "seed": seed,
        "box": box,
        "ybe_failures": sorted(ybe_failures),
        "involutivity_failures": sorted(involutivity_failures),
        "nondegeneracy_failures": sorted(nondegeneracy_failures),
    }
