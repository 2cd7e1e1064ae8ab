"""The ten table families on all of Z^2, by residues mod 6.

In a table family one matrix M has order 3 or is a reflection (det -1,
trace 0), and the other is its partner s M + c E.  This module shows,
for every such M on all of Z^2 and not only in a box, that a pair of this
form is valid exactly when it lies in some table family.  Both sides are
functions of M mod 6, so a finite computation over residues decides them;
the box only confirms that the code computes those functions.

It rests on these lemmas.
  * Class lemma (classification._pair_classes): each matrix of a valid
    pair is +-E, parabolic of trace 2, of order 3 or a reflection.
  * Partner rules (classification._search_partners, held to the
    centralizer's norm form on all of Z^2 by
    test_classification.TestNormFormPartners): an order-3 M pairs only with
    E, M and M^-1, a reflection only with E, -E, M and -M.  So a valid pair
    with a non-scalar finite-order member is (M, P) or (P, M) for one of
    the seven (class, partner) shapes in SHAPES.
  * Periods (gl2z._SHAPES): M^3 = E for an order-3 M, (det, trace)
    (1, -1), and M^2 = E for a reflection, (-1, 0).  Writing phi = eps M^j
    and psi = eps' M^j', phi^k psi^l = eps^k eps'^l M^(jk + j'l), which is E
    iff eps^k eps'^l = 1 and the period divides jk + j'l: -M^a is never E,
    as M's powers are E and M, or E, M and M^2 of trace -1, never -E.  The
    exponents k and l are entries of phi - E and psi - E, and P commutes
    with M, so validity is a function of M mod 6.
  * Reduction: SL2(Z) maps onto SL2(Z/6) (SL2(Z) -> SL2(Z/N) is onto for
    every N), and diag(1, -1) has det -1, so GL2(Z) maps onto the det +-1
    elements of GL2(Z/6).  The residues of the GL2(Z)-class of C are then
    C's orbit mod 6 under conjugation by those elements.  The order-3
    matrices are one GL2(Z)-class, of [[0, -1], [1, -1]]; the reflections
    are two, of diag(1, -1) and [[0, 1], [1, 0]].
  * Records: a table record's read accepts M by congruences modulo its
    p_scale and q_scale (root) or k (rational), each dividing 6, and an
    accepted M is rebuilt exactly (a root record's radicand is
    (a11 - a22)^2; a rational record's division is det M = det), so a pair
    is a member iff its M is accepted.  A root record also rejects
    a11 = a22; among in-class matrices that is only +-[[0, 1], [1, 0]]
    (trace 0 gives a11 = a22 = 0 and det -1 then a12 a21 = 1), where the
    congruences reject already; test_swap_matrices checks them directly.
"""

from itertools import product

import pytest

import z2brace.classification as classification
from z2brace import BraceSpec, Mat2, RowLabel, check_pair, row_membership
from z2brace.classification import _RationalFamily, _RootFamily, _member_params
from z2brace.gl2z import _SHAPES

ORDER_3, REFLECTION = (1, -1), (-1, 0)

#: Each class's partners P of M, as s M + c E, (s, c), and as eps M^j,
#: (eps, j): E, -E, M, -M and M^-1 = -M - E = M^2.
SHAPES = {
    ORDER_3: {
        "E": ((0, 1), (1, 0)),
        "M": ((1, 0), (1, 1)),
        "M^-1": ((-1, -1), (1, 2)),
    },
    REFLECTION: {
        "E": ((0, 1), (1, 0)),
        "-E": ((0, -1), (-1, 0)),
        "M": ((1, 0), (1, 1)),
        "-M": ((-1, 0), (-1, 1)),
    },
}

#: M itself in both forms.
ITSELF = ((1, 0), (1, 1))

#: The GL2(Z)-class representatives of each class.
REPRESENTATIVES = {ORDER_3: [(0, -1, 1, -1)], REFLECTION: [(1, 0, 0, -1), (0, 1, 1, 0)]}

SWAP = (0, 1, 1, 0)
BOUND = 30


def residue(m):
    return tuple(x % 6 for x in m)


def mul6(a, b):
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return residue((a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                    a21 * b11 + a22 * b21, a21 * b12 + a22 * b22))


#: The det +-1 elements of GL2(Z/6), the image of GL2(Z).
UNITS = [g for g in product(range(6), repeat=4) if (g[0] * g[3] - g[1] * g[2]) % 6 in (1, 5)]


def inverse6(g):
    # det = +-1 is its own inverse mod 6.
    d = (g[0] * g[3] - g[1] * g[2]) % 6
    return residue((d * g[3], -d * g[1], -d * g[2], d * g[0]))


def orbit(c):
    return {mul6(mul6(inverse6(g), c), g) for g in UNITS}


def combination(m, form):
    # s M + c E for the (s, c) of form, on exact entries or residues alike.
    s, c = form
    a11, a12, a21, a22 = m
    return (s * a11 + c, s * a12, s * a21, s * a22 + c)


def pair_forms(shape, side):
    # (phi, psi) as forms in M: M on its side, the partner on the other.
    return (ITSELF, shape) if side == "phi" else (shape, ITSELF)


def derived_valid(cls, r, phi, psi):
    """Validity of (phi, psi), both polynomials in M, from M's residue r:
    the period lemma on the four exponents, read mod 6."""
    period = _SHAPES[cls][0]
    (eps, j), (eps_, j_) = phi[1], psi[1]
    p11, p12, p21, p22 = combination(r, phi[0])
    q11, q12, q21, q22 = combination(r, psi[0])
    exponents = (p11 - 1, p21), (p12, p22 - 1), (q11 - 1, q21), (q12, q22 - 1)
    return all(
        eps ** (k % 6) * eps_ ** (l % 6) == 1 and (j * k + j_ * l) % period == 0
        for k, l in exponents
    )


def table_records():
    families = classification._FAMILIES.values()
    return [f for f in families if isinstance(f, (_RootFamily, _RationalFamily))]


def accepts(record, m):
    """Whether record's read accepts M, from M's entries mod 6 and the
    record's fields; a root record's a11 != a22 is left to
    test_swap_matrices."""
    a11, a12, a21, _ = m
    if isinstance(record, _RootFamily):
        return a12 % record.p_scale == 0 and a21 % record.q_scale == 0
    u, v, k, e = record.u, record.v, record.k, record.e
    return (a12 - u - e * a11) % k == 0 and (e * a21 - v + a11) % k == 0


def derived_families(cls, r, phi, psi):
    """The labels of the table records that hold (phi, psi), both s M + c E
    for M of class cls and residue r.  A record's M' is its side's matrix;
    it must have the record's (det, trace), and the other matrix must be
    the record's partner of M' as a polynomial in M, which is unique as M
    is not scalar."""
    det, trace = cls
    labels = set()
    for record in table_records():
        (s, c), (s_other, c_other) = (phi[0], psi[0]) if record.side == "phi" else (psi[0], phi[0])
        signature = (s * s * det + s * c * trace + c * c, s * trace + 2 * c)
        ps, pc = record.partner
        if signature != (record.det, record.trace) or (ps * s, ps * c + pc) != (s_other, c_other):
            continue
        m = combination(r, (s, c))
        if record.side == "psi":
            m = m[3], m[2], m[1], m[0]
        if accepts(record, residue(m)):
            labels.add(record.label.value)
    return labels


def lifts(bound):
    return classification._pair_classes(bound).groups


def disagreements(bound=BOUND):
    """Every place where the residue derivation and the code differ, as
    (kind, class, residue or lift, shape, side):
      * "residue": derived validity is not "in some table family";
      * "lift": check_pair's validity or row_membership's families on a
        lift in the box differ from its residue's derivation;
      * "record": _member_params on a record's own pair differs from
        accepts on the lift's residue."""
    found = []
    derived = {}
    for cls, shapes in SHAPES.items():
        residues = set().union(*map(orbit, REPRESENTATIVES[cls]))
        for r, (name, shape), side in product(sorted(residues), shapes.items(), ("phi", "psi")):
            forms = pair_forms(shape, side)
            valid, labels = derived[cls, r, name, side] = (
                derived_valid(cls, r, *forms), derived_families(cls, r, *forms)
            )
            if valid != bool(labels):
                found.append(("residue", cls, r, name, side))
    groups = lifts(bound)
    for cls, shapes in SHAPES.items():
        for x, (name, shape), side in product(groups[cls], shapes.items(), ("phi", "psi")):
            partner = combination(x, shape[0])
            spec = BraceSpec(*(Mat2(*m) for m in ((x, partner) if side == "phi" else (partner, x))))
            labels = {label.value for label in row_membership(spec)}
            if (check_pair(spec).valid, labels) != derived.get((cls, residue(x), name, side)):
                found.append(("lift", cls, x, name, side))
    for record in table_records():
        for x in groups[(record.det, record.trace)]:
            partner = combination(x, record.partner)
            pair = (x, partner) if record.side == "phi" else (partner, x)
            read = x if record.side == "phi" else x[::-1]
            if (_member_params(record.label, *pair) is not None) != accepts(record, residue(read)):
                found.append(("record", record.label.value, x, record.partner, record.side))
    return found


def test_orbits_mod_6():
    # 288 = 2 |SL2(Z/6)| = 2 |SL2(Z/2)| |SL2(Z/3)| = 2 * 6 * 24.
    assert len(UNITS) == 288
    order_3 = orbit(REPRESENTATIVES[ORDER_3][0])
    diagonal, swap = map(orbit, REPRESENTATIVES[REFLECTION])
    assert (len(order_3), len(diagonal), len(swap)) == (16, 12, 36)
    assert not diagonal & swap
    for cls, representatives in REPRESENTATIVES.items():
        assert _SHAPES[cls][1] == 0  # finite order: degree 0
        assert all(classification._signature(c) == cls for c in representatives)


def test_every_residue_has_a_lift_in_the_box():
    # The in-class matrices of the box meet every residue of the orbits,
    # and no other.
    groups = lifts(BOUND)
    for cls, representatives in REPRESENTATIVES.items():
        assert {residue(x) for x in groups[cls]} == set().union(*map(orbit, representatives))


def test_record_fields_divide_6():
    records = table_records()
    assert len(records) == 10
    for record in records:
        root = isinstance(record, _RootFamily)
        moduli = (record.p_scale, record.q_scale) if root else (record.k,)
        assert all(6 % modulus == 0 for modulus in moduli), record
        assert (record.det, record.trace) in SHAPES
        shapes = [shape[0] for shape in SHAPES[record.det, record.trace].values()]
        assert record.partner in shapes, record


def test_valid_exactly_in_a_table_family():
    assert disagreements() == []


def test_every_shape_and_family_is_reached():
    # Each shape has a residue with a valid pair on some side, and each
    # table family holds a pair of some residue.
    reached = set()
    for cls, shapes in SHAPES.items():
        residues = set().union(*map(orbit, REPRESENTATIVES[cls]))
        for name, shape in shapes.items():
            valid = [
                (r, side)
                for r, side in product(residues, ("phi", "psi"))
                if derived_valid(cls, r, *pair_forms(shape, side))
            ]
            assert valid, (cls, name)
            for r, side in valid:
                reached |= derived_families(cls, r, *pair_forms(shape, side))
    assert reached == {record.label.value for record in table_records()}


@pytest.mark.parametrize("sign", [1, -1])
def test_swap_matrices(sign):
    # +-[[0, 1], [1, 0]] are the in-class matrices with a11 = a22, which
    # _RootFamily.read rejects; the congruences reject them already, so
    # the derivation holds on them as on every other lift.
    x = tuple(sign * e for e in SWAP)
    groups = lifts(BOUND)
    assert [m for cls in SHAPES for m in groups[cls] if m[0] == m[3]] == sorted(
        [SWAP, tuple(-e for e in SWAP)]
    )
    for record in table_records():
        if isinstance(record, _RootFamily) and record.det == -1:
            assert not accepts(record, residue(x)), record
            assert record.read(x) is None
    for (name, shape), side in product(SHAPES[REFLECTION].items(), ("phi", "psi")):
        forms = pair_forms(shape, side)
        partner = combination(x, shape[0])
        spec = BraceSpec(*(Mat2(*m) for m in ((x, partner) if side == "phi" else (partner, x))))
        assert check_pair(spec).valid == derived_valid(REFLECTION, residue(x), *forms), name
        assert {label.value for label in row_membership(spec)} == derived_families(
            REFLECTION, residue(x), *forms
        ), name


@pytest.mark.parametrize("label, change", [
    (RowLabel.R1_3, {"p_scale": 2}),
    (RowLabel.R2_2, {"partner": (0, 1)}),
])
def test_mutated_record_is_caught(monkeypatch, label, change):
    # A record whose acceptance or partner is wrong makes some residue's
    # validity differ from its families.
    families = dict(classification._FAMILIES)
    families[label] = families[label]._replace(**change)
    monkeypatch.setattr(classification, "_FAMILIES", families)
    monkeypatch.setattr(
        classification, "_SIGNATURE_LABELS", classification._signature_labels(families.values())
    )
    found = disagreements()
    assert any(kind == "residue" for kind, *_ in found), found
