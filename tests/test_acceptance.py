"""Acceptance suite.  One test per criterion; each prints a PASS/FAIL line
(visible with pytest -s) and asserts the criterion at exact integer
equality, zero tolerance.

The validity oracle used by criteria 1 and 2 is written here on raw
4-tuples with repeated multiplication, sharing no code with the package.
"""

import subprocess
import sys
import time
from itertools import product

import pytest

from conftest import ROW_SPECS, TRIVIAL_SPEC, holomorph_reading, order_by_shape
from oracles import (
    Vec2,
    centralizer_finite,
    odot,
    odot_associative,
    order_by_iteration,
    row12_parameters,
)

from z2brace import (
    BraceSpec,
    IDENTITY,
    Mat2,
    RowLabel,
    check_pair,
    commutes,
    enumerate_unimodular,
    row_membership,
    sample_report,
)

# ----------------------------------------------------------------------
# Independent validity oracle on raw entry tuples (a11, a12, a21, a22).

E4 = (1, 0, 0, 1)


def _o_mul(a, b):
    return (
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    )


def _o_inv(a):
    det = a[0] * a[3] - a[1] * a[2]
    adjugate = (a[3], -a[1], -a[2], a[0])
    return adjugate if det == 1 else tuple(-x for x in adjugate)


def _o_pow(a, k):
    if k < 0:
        a, k = _o_inv(a), -k
    out = E4
    for _ in range(k):  # repeated multiplication, deliberately not binary
        out = _o_mul(out, a)
    return out


def _o_valid(phi, psi):
    if _o_mul(phi, psi) != _o_mul(psi, phi):
        return False
    conditions = (
        (phi[0] - 1, phi[2]),
        (phi[1], phi[3] - 1),
        (psi[0] - 1, psi[2]),
        (psi[1], psi[3] - 1),
    )
    return all(
        _o_mul(_o_pow(phi, e1), _o_pow(psi, e2)) == E4 for e1, e2 in conditions
    )


def _oracle_valid_pairs(bound):
    entries = range(-bound, bound + 1)
    unimodular = [
        t for t in product(entries, repeat=4) if abs(t[0] * t[3] - t[1] * t[2]) == 1
    ]
    return {
        (phi, psi) for phi in unimodular for psi in unimodular if _o_valid(phi, psi)
    }


def _package_valid_pairs(bound):
    candidates = list(enumerate_unimodular(bound))
    return {
        (phi.entries(), psi.entries())
        for phi in candidates
        for psi in candidates
        if check_pair(BraceSpec(phi, psi)).valid
    }


def _report(number, name, ok, elapsed=None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


# ----------------------------------------------------------------------


def test_criterion_1_classification_complete_at_bound_1(search_bound1):
    start = time.time()
    clean = (
        search_bound1.unmatched_valid == []
        and search_bound1.invalid_row_instances == []
    )
    oracle_agrees = _oracle_valid_pairs(1) == _package_valid_pairs(1)
    _report(
        1,
        "classification complete and sound at bound 1",
        clean and oracle_agrees,
        time.time() - start,
    )


def test_criterion_2_classification_complete_at_bound_2(search_bound2):
    start = time.time()
    clean = (
        search_bound2.unmatched_valid == []
        and search_bound2.invalid_row_instances == []
    )
    oracle = _oracle_valid_pairs(2)
    golden_agrees = search_bound2.valid_pairs == len(oracle) == 90
    oracle_agrees = oracle == _package_valid_pairs(2)
    _report(
        2,
        "classification complete and sound at bound 2",
        clean and golden_agrees and oracle_agrees,
        time.time() - start,
    )


def test_criterion_3_order_oracle_equivalence_bound_5():
    # The order read off the (det, trace) table against the powers
    # multiplied out.
    start = time.time()
    disagreements = [
        m for m in enumerate_unimodular(5) if order_by_shape(m) != order_by_iteration(m)
    ]
    _report(3, "order classification matches iteration on [-5,5]", disagreements == [], time.time() - start)


def test_criterion_4_centralizer_completeness_bound_3():
    start = time.time()
    box = list(enumerate_unimodular(3))
    orders_seen = set()
    ok = True
    for a in box:
        order = order_by_iteration(a)
        if order is None or order == 1 or a == -IDENTITY:
            continue
        orders_seen.add(order)
        commuting = {b for b in box if commutes(a, b)}
        expected = {
            c
            for c in centralizer_finite(a)
            if max(abs(e) for e in c.entries()) <= 3
        }
        if commuting != expected:
            ok = False
            break
    ok = ok and orders_seen == {2, 3, 4, 6}
    _report(4, "finite centralizers complete within [-3,3]", ok, time.time() - start)


def test_criterion_5_one_parameter_family_regressions():
    start = time.time()
    ok = True
    for m in range(-5, 6):
        left = Mat2(1 + m, m, -m, 1 - m)
        spec = BraceSpec(left, left)
        ok = ok and check_pair(spec).valid
        ok = ok and RowLabel.R1_2 in row_membership(spec)
        if m != 0:
            ok = ok and row12_parameters(spec) == (m, 1, 1)

        right = Mat2(1 + m, 2 + m, -m, -1 - m)
        spec = BraceSpec(right, right)
        ok = ok and check_pair(spec).valid
        ok = ok and RowLabel.R4_1 in row_membership(spec)
    _report(5, "one-parameter families validate and classify as 1.2 / 4.1", ok, time.time() - start)


def test_criterion_6_ybe_suite_all_families():
    start = time.time()
    specs = [TRIVIAL_SPEC, *ROW_SPECS.values()]
    ok = True
    for spec in specs:
        report = sample_report(spec, samples=1000, seed=0, box=4)
        ok = ok and report["ybe_failures"] == []
        ok = ok and report["involutivity_failures"] == []
        ok = ok and report["nondegeneracy_failures"] == []
    _report(6, "braid/involutivity/non-degeneracy clean for all families", ok, time.time() - start)


def test_criterion_7_negative_witness():
    start = time.time()
    spec = BraceSpec(Mat2(1, 1, 0, 1), IDENTITY)
    verdict = check_pair(spec)
    fails_second = not verdict.valid and verdict.power_identities == (True, False, True, True)

    documented = (
        odot(spec, Vec2(1, 0), odot(spec, Vec2(0, 1), Vec2(0, 1))) == Vec2(3, 2)
        and odot(spec, odot(spec, Vec2(1, 0), Vec2(0, 1)), Vec2(0, 1)) == Vec2(4, 2)
    )

    coords = range(-1, 2)
    violations = sum(
        1
        for a1, a2, b1, b2, c1, c2 in product(coords, repeat=6)
        if not odot_associative(spec, Vec2(a1, a2), Vec2(b1, b2), Vec2(c1, c2))
    )
    _report(
        7,
        "shear pair fails second identity and associativity",
        fails_second and documented and violations > 0,
        time.time() - start,
    )


def test_criterion_8_condition_readings_agree_on_commuting_pairs():
    start = time.time()
    candidates = list(enumerate_unimodular(2))
    ok = True
    commuting_pairs = 0
    for phi in candidates:
        for psi in candidates:
            if not commutes(phi, psi):
                continue
            commuting_pairs += 1
            spec = BraceSpec(phi, psi)
            if check_pair(spec).power_identities != holomorph_reading(spec):
                ok = False
    ok = ok and commuting_pairs == 888
    _report(
        8,
        "entry-exponent and holomorph-closure readings agree pairwise on all "
        "commuting pairs at bound 2",
        ok,
        time.time() - start,
    )


def test_criterion_9_search_reports_byte_identical():
    start = time.time()

    def run_search():
        result = subprocess.run(
            [sys.executable, "-m", "z2brace", "search", "--bound", "2"],
            capture_output=True,
            check=True,
        )
        return result.stdout

    first = run_search()
    second = run_search()
    ok = first == second and len(first) > 0
    _report(9, "repeated searches byte-identical", ok, time.time() - start)
