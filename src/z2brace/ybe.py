"""Set-theoretic Yang-Baxter solutions built from valid braces on Z^2.

A valid pair (phi, psi) yields the map

    r(x, y) = (-x + (x*y),  (-x + (x*y))^-1 * x * y)

where * is the brace multiplication and ^-1 its inverse.  It is computed
in the closed form

    r(x, y) = (lambda_x(y),  lambda_y^-1(x)).

Proof: -x + (x*y) = lambda_x(y) =: u, and in a brace u^-1 * v =
lambda_u^-1(v - u), so the second component is lambda_u^-1(x); since
u - y lies in the kernel of lambda, lambda_u = lambda_y.  Both components
are matrix-vector products with elements of GL2(Z), so r is
non-degenerate on all of Z^2, not only on a sampled box.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .brace import BraceSpec, Vec2, act, check_pair, lambda_of

__all__ = [
    "InvalidSpec",
    "PairZ2",
    "involutive_at",
    "nondegenerate_at",
    "r_map",
    "sample_report",
    "ybe_holds",
]


class InvalidSpec(ValueError):
    """The pair does not define a brace, so there is no solution to build."""


class PairZ2(NamedTuple):
    first: Vec2
    second: Vec2


def _require_valid(spec: BraceSpec) -> None:
    if not check_pair(spec).valid:
        raise InvalidSpec(f"{spec} fails the pair conditions; run check_pair for details")


def _r(spec: BraceSpec, x: Vec2, y: Vec2) -> PairZ2:
    return PairZ2(act(lambda_of(spec, x), y), act(lambda_of(spec, y).inverse(), x))


def _ybe_holds(spec: BraceSpec, x: Vec2, y: Vec2, z: Vec2) -> bool:
    def r12(t):
        p = _r(spec, t[0], t[1])
        return (p.first, p.second, t[2])

    def r23(t):
        p = _r(spec, t[1], t[2])
        return (t[0], p.first, p.second)

    start = (x, y, z)
    return r12(r23(r12(start))) == r23(r12(r23(start)))


def _involutive_at(spec: BraceSpec, x: Vec2, y: Vec2) -> bool:
    once = _r(spec, x, y)
    return _r(spec, once.first, once.second) == PairZ2(x, y)


def _nondegenerate_at(spec: BraceSpec, x: Vec2, y: Vec2) -> bool:
    left = act(lambda_of(spec, x).inverse(), y)
    right = act(lambda_of(spec, y), x)
    return _r(spec, x, left).first == y and _r(spec, right, y).second == x


def r_map(spec: BraceSpec, x: Vec2, y: Vec2) -> PairZ2:
    """The Yang-Baxter map of the brace at (x, y)."""
    _require_valid(spec)
    return _r(spec, x, y)


def ybe_holds(spec: BraceSpec, x: Vec2, y: Vec2, z: Vec2) -> bool:
    """Exact braid relation check at one triple.

    Applies r to positions (1,2) and (2,3) in the two alternating orders
    and compares all three output components.
    """
    _require_valid(spec)
    return _ybe_holds(spec, x, y, z)


def involutive_at(spec: BraceSpec, x: Vec2, y: Vec2) -> bool:
    """True iff r(r(x, y)) = (x, y) exactly."""
    _require_valid(spec)
    return _involutive_at(spec, x, y)


def nondegenerate_at(spec: BraceSpec, x: Vec2, y: Vec2) -> bool:
    """Non-degeneracy of r at (x, y), through explicit inverses.

    Left component: v -> first(r(x, v)) is lambda_x, so the preimage of y
    is lambda_x^-1(y).  Right component: w -> second(r(w, y)) is
    lambda_y^-1, so the preimage of x is lambda_y(x).  Both maps lie in
    GL2(Z) and are therefore bijections of Z^2; the check confirms that
    each preimage round-trips through r.
    """
    _require_valid(spec)
    return _nondegenerate_at(spec, x, y)


def sample_report(
    spec: BraceSpec, samples: int = 1000, seed: int = 0, box: int = 4
) -> dict:
    """Seeded sampling report for one valid spec.

    Draws `samples` triples with coordinates uniform in [-box, box] and
    records every braid-relation, involutivity and non-degeneracy failure
    (expected none).  Identical arguments give an identical report.
    """
    _require_valid(spec)
    if samples < 1:
        raise ValueError("samples must be positive")
    if box < 1:
        raise ValueError("box must be positive")
    rng = random.Random(seed)

    def draw() -> Vec2:
        return Vec2(rng.randint(-box, box), rng.randint(-box, box))

    ybe_failures = []
    involutivity_failures = []
    nondegeneracy_failures = []
    for _ in range(samples):
        x, y, z = draw(), draw(), draw()
        if not _ybe_holds(spec, x, y, z):
            ybe_failures.append([list(x.coords()), list(y.coords()), list(z.coords())])
        if not _involutive_at(spec, x, y):
            involutivity_failures.append([list(x.coords()), list(y.coords())])
        if not _nondegenerate_at(spec, x, y):
            nondegeneracy_failures.append([list(x.coords()), list(y.coords())])
    return {
        "spec": spec.to_dict(),
        "samples": samples,
        "seed": seed,
        "box": box,
        "ybe_failures": sorted(ybe_failures),
        "involutivity_failures": sorted(involutivity_failures),
        "nondegeneracy_failures": sorted(nondegeneracy_failures),
    }
