"""Seeded inputs for the three benchmark workloads.

Every workload is a sequence of *units*; a unit is a list of *items*, and an
item is a list of CLI calls (argv lists) whose outputs are checked together.
In an argv, the string PREV stands for the stdout of the previous call of
the same item, which is how `generate` output is fed to `classify`.

Nothing here imports z2brace: the program only ever sees the generated argv.
The same seed always gives the same units.
"""

from __future__ import annotations

import json
import math
import random

PREV = "@prev"

WORKLOADS = ("search-b4", "verdicts", "ybe-families")

SEARCH_BOUND = 4

# One member of each of the twelve families, the smallest that is not a
# pair of scaled identities.  Their lambda exponents stay small, so the
# ybe workload measures the Yang-Baxter checks, not big-integer powers.
YBE_MEMBERS = {
    "1.1": {"phi": [[-1, 0], [0, -1]], "psi": [[-1, 0], [0, -1]]},
    "1.2": {"phi": [[2, 1], [-1, 0]], "psi": [[2, 1], [-1, 0]]},
    "1.3": {"phi": [[1, 0], [0, 1]], "psi": [[-2, -1], [3, 1]]},
    "1.4": {"phi": [[1, 3], [-1, -2]], "psi": [[1, 0], [0, 1]]},
    "1.5": {"phi": [[2, 7], [-1, -3]], "psi": [[2, 7], [-1, -3]]},
    "1.6": {"phi": [[0, 1], [-1, -1]], "psi": [[-1, -1], [1, 0]]},
    "2.1": {"phi": [[1, 0], [0, 1]], "psi": [[-1, 1], [0, 1]]},
    "2.2": {"phi": [[-1, 0], [0, -1]], "psi": [[-1, 0], [2, 1]]},
    "3.1": {"phi": [[1, 0], [1, -1]], "psi": [[1, 0], [0, 1]]},
    "3.2": {"phi": [[1, 2], [0, -1]], "psi": [[-1, 0], [0, -1]]},
    "4.1": {"phi": [[1, 2], [0, -1]], "psi": [[1, 2], [0, -1]]},
    "4.2": {"phi": [[1, 2], [0, -1]], "psi": [[-1, -2], [0, 1]]},
}
YBE_BOX = 8
# About ten seconds for the twelve reports on a 2-core Xeon at the seed commit.
YBE_SAMPLES = 60

FAMILIES = tuple(YBE_MEMBERS)

# The composition of every block of 100 verdict pairs.  Only the order
# within a block and the values depend on the seed.
#   random:        non-commuting unimodular pairs, entries up to 2^8
#   family:        generate + classify, three members of each family,
#                  entries up to about 2^10
#   hyperbolic-B:  phi = psi = M hyperbolic with B-bit entries; commuting
#                  but never valid, and check_pair raises M to powers near
#                  2^B.  Two of them at 14 bits put p99 inside that group.
#   row12-wide:    family 1.2 with m of 12 to 14 bits; valid, commuting
BLOCK_KINDS = (
    ["random"] * 57
    + ["family"] * 36
    + ["hyperbolic-10", "hyperbolic-11", "hyperbolic-12", "hyperbolic-13"]
    + ["hyperbolic-14", "hyperbolic-14", "row12-wide"]
)

RANDOM_LIMIT = 1 << 8
FAMILY_LIMIT = 1 << 10


def _spec_json(phi, psi) -> str:
    return json.dumps({"phi": phi, "psi": psi})


def _mat_mul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return [[a * e + b * g, a * f + b * h], [c * e + d * g, c * f + d * h]]


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with a*s + b*t = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


def _random_unimodular(rng: random.Random, limit: int):
    while True:
        a, c = rng.randint(-limit, limit), rng.randint(-limit, limit)
        g, s, t = _ext_gcd(a, c)
        if g != 1:
            continue
        # a*s + c*t = 1, so [[a, -t], [c, s]] has determinant 1.
        k = rng.randint(-3, 3)
        b, d = -t + k * a, s + k * c
        if max(abs(b), abs(d)) > limit:
            b, d = -t, s
        if max(abs(b), abs(d)) > limit:
            continue
        if rng.random() < 0.5:
            return [[b, a], [d, c]]  # columns swapped: determinant -1
        return [[a, b], [c, d]]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


def _split_product(rng: random.Random, product: int, limit_p: int, limit_q: int):
    """Random (p, q) with p*q = product, |p| <= limit_p, |q| <= limit_q, or None."""
    if product == 0:
        if rng.random() < 0.5:
            return 0, rng.randint(-limit_q, limit_q)
        return rng.randint(-limit_p, limit_p), 0
    options = [
        (p, product // p)
        for p in _divisors(product)
        if p <= limit_p and abs(product // p) <= limit_q
    ]
    if not options:
        return None
    p, q = rng.choice(options)
    if rng.random() < 0.5:
        p, q = -p, -q
    return p, q


def _radicand_params(rng: random.Random, product_of, entry_scale: int):
    """Parameters p, q for families whose radicand must be a perfect square.

    product_of(j) is the product p*q that makes the radicand equal to the
    square of the family's j-th admissible root.
    """
    limit = FAMILY_LIMIT // entry_scale
    while True:
        product = product_of(rng.randint(0, 40))
        split = _split_product(rng, product, limit, limit)
        if split is not None:
            return split


def _product_order3(j: int) -> int:
    # -3 - 12 p q = r^2 forces r = 3 (2j + 1).
    r = 3 * (2 * j + 1)
    return -(r * r + 3) // 12


def _product_order2_half(j: int) -> int:
    # 1 - 2 p q = r^2 with r = 2j + 1.
    r = 2 * j + 1
    return -(r * r - 1) // 2


def _product_order2_quarter(j: int) -> int:
    # 1 - 4 p q = r^2 with r = 2j + 1.
    r = 2 * j + 1
    return -(r * r - 1) // 4


def _divisor_of(rng: random.Random, k: int) -> int:
    d = rng.choice(_divisors(k))
    return d if rng.random() < 0.5 else -d


def _sign(rng: random.Random) -> str:
    return str(rng.choice((1, -1)))


def family_argv(rng: random.Random, label: str) -> list[str]:
    """`generate` arguments for a random member of one family."""
    if label == "1.1":
        return ["--sign1", _sign(rng), "--sign2", _sign(rng)]
    if label == "1.2":
        while True:
            p, q = rng.randint(-4, 4), rng.randint(-4, 4)
            if math.gcd(p, q) == 1:
                break
        cap = FAMILY_LIMIT // max(abs(p), abs(q)) ** 3
        m = rng.choice([k for k in range(-cap, cap + 1) if k != 0])
        return ["--m", str(m), "--p", str(p), "--q", str(q)]
    if label in ("1.3", "1.4"):
        p, q = _radicand_params(rng, _product_order3, 3)
        return ["--p", str(p), "--q", str(q), "--sign1", _sign(rng)]
    if label in ("2.1", "3.1"):
        p, q = _radicand_params(rng, _product_order2_half, 2)
        return ["--p", str(p), "--q", str(q), "--sign1", _sign(rng)]
    if label in ("2.2", "3.2", "4.2"):
        p, q = _radicand_params(rng, _product_order2_quarter, 2)
        return ["--p", str(p), "--q", str(q), "--sign1", _sign(rng)]
    m = rng.randint(-16, 16)
    if label == "1.5":
        # n - m must divide 1 + n + 2m + 3mn, i.e. divide 3m^2 + 3m + 1.
        n = m + _divisor_of(rng, 3 * m * m + 3 * m + 1)
        return ["--m", str(m), "--n", str(n)]
    if label == "1.6":
        # 1 + m + n must divide 3mn + m + n, i.e. divide 3m^2 + 3m + 1.
        n = _divisor_of(rng, 3 * m * m + 3 * m + 1) - 1 - m
        return ["--m", str(m), "--n", str(n)]
    if label == "4.1":
        if rng.random() < 0.25:
            m = rng.choice((0, -1))
            p = rng.randint(-FAMILY_LIMIT + 1, FAMILY_LIMIT - 1)
            return ["--m", str(m), "--n", str(m), "--p", str(p)]
        # n - m must divide m + n + 2mn, i.e. divide 2m(m + 1).
        k = 2 * m * (m + 1)
        d = _divisor_of(rng, k) if k else rng.choice((1, -1)) * rng.randint(1, 64)
        return ["--m", str(m), "--n", str(m + d)]
    raise ValueError(f"unknown family {label!r}")


def hyperbolic_matrix(rng: random.Random, bits: int):
    """A hyperbolic M with entries of `bits` bits in a narrow window.

    The window (1/32 of the range) keeps the cost of one verdict steady
    from seed to seed, so the latency tail does not depend on the seed.
    """
    lo = 1 << (bits - 1)
    a = rng.randrange(lo, lo + (lo >> 5))
    off = rng.choice((1, -1))
    m = [[a, a + off], [a - off, a]]  # determinant a^2 - (a^2 - 1) = 1
    if rng.random() < 0.5:
        m = [[-e for e in row] for row in m]
    if rng.random() < 0.5:
        m = [[m[0][0], m[1][0]], [m[0][1], m[1][1]]]
    return m


def row12_matrices(m: int, p: int, q: int):
    """The family 1.2 pair for parameters (m, p, q)."""
    phi = [[1 + m * p * p * q, m * p * q * q], [-m * p**3, 1 - m * p * p * q]]
    psi = [[1 + m * p * q * q, m * q**3], [-m * p * p * q, 1 - m * p * q * q]]
    return phi, psi


def _check_then_classify(kind: str, phi, psi) -> dict:
    spec = _spec_json(phi, psi)
    return {"kind": kind, "spec": spec, "calls": [["check", spec], ["classify", spec]]}


def verdict_item(rng: random.Random, kind: str, family: str) -> dict:
    if kind == "random":
        while True:
            phi = _random_unimodular(rng, RANDOM_LIMIT)
            psi = _random_unimodular(rng, RANDOM_LIMIT)
            if _mat_mul(phi, psi) != _mat_mul(psi, phi):
                return _check_then_classify(kind, phi, psi)
    if kind == "family":
        argv = ["generate", "--row", family, *family_argv(rng, family)]
        return {"kind": kind, "label": family, "calls": [argv, ["classify", PREV]]}
    if kind.startswith("hyperbolic-"):
        m = hyperbolic_matrix(rng, int(kind.rsplit("-", 1)[1]))
        return _check_then_classify(kind, m, m)
    if kind == "row12-wide":
        p, q = rng.choice(((1, 1), (1, -1), (-1, 1), (1, 2), (2, 1), (1, -2)))
        span = max(abs(p), abs(q)) ** 3
        m = rng.choice((1, -1)) * (rng.randrange(1 << 12, 1 << 14) // span)
        return _check_then_classify(kind, *row12_matrices(m, p, q))
    raise ValueError(f"unknown kind {kind!r}")


def verdict_blocks(seed: int):
    """Endless stream of 100-pair blocks with the fixed BLOCK_KINDS mix."""
    rng = random.Random(f"verdicts-{seed}")
    family_index = 0
    while True:
        kinds = list(BLOCK_KINDS)
        rng.shuffle(kinds)
        block = []
        for kind in kinds:
            family = FAMILIES[family_index % len(FAMILIES)]
            if kind == "family":
                family_index += 1
            block.append(verdict_item(rng, kind, family))
        yield block


def search_unit(bound: int = SEARCH_BOUND) -> list[dict]:
    return [{"kind": "search", "calls": [["search", "--bound", str(bound)]]}]


def ybe_unit(seed: int, samples: int = YBE_SAMPLES) -> list[dict]:
    """One ybe report per family, all with the benchmark's seed."""
    return [
        {
            "kind": "ybe",
            "label": label,
            "spec": json.dumps(spec),
            "samples": samples,
            "calls": [[
                "ybe", json.dumps(spec), "--box", str(YBE_BOX),
                "--samples", str(samples), "--seed", str(seed),
            ]],
        }
        for label, spec in YBE_MEMBERS.items()
    ]
