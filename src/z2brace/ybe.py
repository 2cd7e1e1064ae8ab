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
nondegenerate_at checks exactly that, det lambda_x = +-1 = det lambda_y.

Each public call builds one brace.lambda_map for its pair, which raises
InvalidSpec on an invalid pair, and evaluates r on plain integer tuples:
the entry tuples of lambda_x and lambda_-y applied to y and x.  lambda_map
is a lookup in a table of at most 9 entry tuples when phi and psi both
have finite order, as in every family but 1.2, and otherwise (1.2) the
affine E + x1 (phi - E) + x2 (psi - E); neither forms a matrix product
per point.  sample_report runs every sample through that one map and
converts only the failures to lists.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .brace import BraceSpec, InvalidSpec, Vec2, lambda_map

__all__ = [
    "InvalidSpec",
    "PairZ2",
    "involutive_at",
    "nondegenerate_at",
    "r_map",
    "sample_report",
    "ybe_holds",
]


class PairZ2(NamedTuple):
    first: Vec2
    second: Vec2


def _act(m: tuple, v: tuple) -> tuple[int, int]:
    a11, a12, a21, a22 = m
    v1, v2 = v
    return (a11 * v1 + a12 * v2, a21 * v1 + a22 * v2)


def _r(lam, x: tuple, y: tuple) -> tuple[tuple[int, int], tuple[int, int]]:
    return _act(lam(*x), y), _act(lam(-y[0], -y[1]), x)


def _ybe_holds(lam, x: tuple, y: tuple, z: tuple) -> bool:
    # r12 r23 r12 against r23 r12 r23, applied right to left.
    a, b = _r(lam, x, y)
    b, c = _r(lam, b, z)
    left = (*_r(lam, a, b), c)
    b, c = _r(lam, y, z)
    a, b = _r(lam, x, b)
    right = (a, *_r(lam, b, c))
    return left == right


def _involutive_at(lam, x: tuple, y: tuple) -> bool:
    return _r(lam, *_r(lam, x, y)) == (x, y)


def _nondegenerate_at(lam, x: tuple, y: tuple) -> bool:
    # An integer matrix is a bijection of Z^2 iff its determinant is +-1.
    a11, a12, a21, a22 = lam(*x)
    b11, b12, b21, b22 = lam(*y)
    return abs(a11 * a22 - a12 * a21) == 1 == abs(b11 * b22 - b12 * b21)


def r_map(spec: BraceSpec, x: Vec2, y: Vec2) -> PairZ2:
    """The Yang-Baxter map of the brace at (x, y)."""
    first, second = _r(lambda_map(spec), x.coords(), y.coords())
    return PairZ2(Vec2(*first), Vec2(*second))


def ybe_holds(spec: BraceSpec, x: Vec2, y: Vec2, z: Vec2) -> bool:
    """Exact braid relation check at one triple.

    Applies r to positions (1,2) and (2,3) in the two alternating orders
    and compares all three output components.
    """
    return _ybe_holds(lambda_map(spec), x.coords(), y.coords(), z.coords())


def involutive_at(spec: BraceSpec, x: Vec2, y: Vec2) -> bool:
    """True iff r(r(x, y)) = (x, y) exactly."""
    return _involutive_at(lambda_map(spec), x.coords(), y.coords())


def nondegenerate_at(spec: BraceSpec, x: Vec2, y: Vec2) -> bool:
    """Non-degeneracy of r at (x, y): det lambda_x = +-1 = det lambda_y.

    Left component: v -> first(r(x, v)) is lambda_x.  Right component:
    w -> second(r(w, y)) is lambda_y^-1.  An integer matrix is a bijection
    of Z^2 exactly when its determinant is +-1, so the two determinants
    decide both components, with no preimage built.
    """
    return _nondegenerate_at(lambda_map(spec), x.coords(), y.coords())


def sample_report(
    spec: BraceSpec, samples: int = 1000, seed: int = 0, box: int = 4
) -> dict:
    """Seeded sampling report for one valid spec.

    An invalid spec raises InvalidSpec, from lambda_map, before any other
    argument is checked.  Draws `samples` triples with coordinates uniform
    in [-box, box] and records every braid-relation, involutivity and
    non-degeneracy failure (expected none).  samples, seed and box must be
    plain integers (bools are rejected), and samples and box positive;
    seed=None would draw from OS entropy, which the report could not name.
    Identical arguments give an identical report.
    """
    lam = lambda_map(spec)
    for name, value in (("samples", samples), ("seed", seed), ("box", box)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name, value in (("samples", samples), ("box", box)):
        if value < 1:
            raise ValueError(f"{name} must be positive")
    rng = random.Random(seed)

    def draw() -> tuple[int, int]:
        return (rng.randint(-box, box), rng.randint(-box, box))

    ybe_failures = []
    involutivity_failures = []
    nondegeneracy_failures = []
    for _ in range(samples):
        x, y, z = draw(), draw(), draw()
        if not _ybe_holds(lam, x, y, z):
            ybe_failures.append([list(x), list(y), list(z)])
        if not _involutive_at(lam, x, y):
            involutivity_failures.append([list(x), list(y)])
        if not _nondegenerate_at(lam, x, y):
            nondegeneracy_failures.append([list(x), list(y)])
    return {
        "spec": spec.to_dict(),
        "samples": samples,
        "seed": seed,
        "box": box,
        "ybe_failures": sorted(ybe_failures),
        "involutivity_failures": sorted(involutivity_failures),
        "nondegeneracy_failures": sorted(nondegeneracy_failures),
    }
