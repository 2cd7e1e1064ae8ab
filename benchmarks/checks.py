"""Expected outputs for every benchmark item, and the raw-tuple oracle.

The expectations come from how each input was built, never from running
z2brace a second time:

  * search: the golden report recorded once from the seed commit, whose
    valid_pairs the raw-tuple oracle below confirms;
  * family member: generate succeeds, and classify sees a valid pair that
    belongs to the family it was generated from;
  * non-commuting pair: not commuting, not valid, in no family;
  * phi = psi = M of infinite order: commuting, and valid exactly when
    both column sums of M equal 1 (lambda_a = M^(a1 + a2), so the four
    identities reduce to M^(column sum - 1) = E);
  * family 1.2 member built from (m, p, q): valid and labelled 1.2;
  * ybe report: exit 0 and empty failure lists.

check_item returns one pass/fail flag per call of the item.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_search(bound: int) -> dict:
    return json.loads((GOLDEN_DIR / f"search-b{bound}.json").read_text(encoding="utf-8"))


# --- raw-tuple oracle -------------------------------------------------------
# Matrices are (a11, a12, a21, a22) tuples; nothing here shares code with
# z2brace.


def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _power(x, k: int):
    a, b, c, d = x
    if k < 0:
        det = a * d - b * c
        x = (d * det, -b * det, -c * det, a * det)
        k = -k
    result = (1, 0, 0, 1)
    while k:
        if k & 1:
            result = _mul(result, x)
        x = _mul(x, x)
        k >>= 1
    return result


def oracle_valid(phi, psi) -> bool:
    """The brace conditions for (phi, psi), read off the raw entries."""
    if _mul(phi, psi) != _mul(psi, phi):
        return False
    identity = (1, 0, 0, 1)
    for (a11, a12, a21, a22) in (phi, psi):
        if _mul(_power(phi, a11 - 1), _power(psi, a21)) != identity:
            return False
        if _mul(_power(phi, a12), _power(psi, a22 - 1)) != identity:
            return False
    return True


def oracle_valid_pairs(bound: int) -> int:
    """Number of valid (phi, psi) with all entries in [-bound, bound]."""
    box = range(-bound, bound + 1)
    mats = [
        (a, b, c, d)
        for a in box for b in box for c in box for d in box
        if abs(a * d - b * c) == 1
    ]
    return sum(oracle_valid(phi, psi) for phi in mats for psi in mats)


# --- per-item expectations --------------------------------------------------


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _labels(text: str) -> list[str] | None:
    """Family labels from classify output: a list of labels, or of {row: ...}."""
    data = _json(text)
    if not isinstance(data, list):
        return None
    labels = []
    for entry in data:
        if isinstance(entry, dict):
            entry = entry.get("row")
        if not isinstance(entry, str):
            return None
        labels.append(entry)
    return labels


def _verdict(text: str) -> dict | None:
    data = _json(text)
    if not isinstance(data, dict) or not {"valid", "commuting"} <= set(data):
        return None
    return data


def _column_sums_one(m) -> bool:
    return m[0][0] + m[1][0] == 1 and m[0][1] + m[1][1] == 1


def _check_pair_calls(expect_commuting: bool, expect_valid: bool, label, results):
    """check then classify on one pair."""
    check, classify = results
    verdict = _verdict(check["out"])
    check_ok = (
        verdict is not None
        and check["rc"] == (0 if expect_valid else 1)
        and verdict["valid"] is expect_valid
        and verdict["commuting"] is expect_commuting
    )
    labels = _labels(classify["out"])
    if expect_valid:
        classify_ok = labels is not None and (label in labels if label else bool(labels))
    else:
        classify_ok = labels == []
    return [check_ok, classify_ok and classify["rc"] == 0]


def check_item(item: dict, results: list[dict]) -> list[bool]:
    """One flag per call: did it exit as expected with the expected output?"""
    if any(r.get("error") for r in results):
        return [False] * len(results)
    kind = item["kind"]
    if kind == "search":
        bound = int(item["calls"][0][-1])
        report = _json(results[0]["out"])
        golden = golden_search(bound)
        ok = (
            results[0]["rc"] == 0
            and isinstance(report, dict)
            and all(report.get(key) == value for key, value in golden.items())
        )
        return [ok]
    if kind == "ybe":
        report = _json(results[0]["out"])
        ok = (
            results[0]["rc"] == 0
            and isinstance(report, dict)
            and report.get("spec") == json.loads(item["spec"])
            and report.get("samples") == item["samples"]
            and all(
                report.get(key) == []
                for key in ("ybe_failures", "involutivity_failures", "nondegeneracy_failures")
            )
        )
        return [ok]
    if kind == "family":
        generate, classify = results
        spec = _json(generate["out"])
        generate_ok = generate["rc"] == 0 and isinstance(spec, dict) and set(spec) == {"phi", "psi"}
        labels = _labels(classify["out"])
        # classify prints nothing on stderr exactly when the pair is a
        # valid brace inside some family.
        classify_ok = (
            classify["rc"] == 0
            and classify["err"] == ""
            and labels is not None
            and item["label"] in labels
        )
        return [generate_ok, classify_ok]
    spec = json.loads(item["spec"])
    if kind == "random":
        return _check_pair_calls(False, False, None, results)
    if kind.startswith("hyperbolic-"):
        return _check_pair_calls(True, _column_sums_one(spec["phi"]), None, results)
    if kind == "row12-wide":
        return _check_pair_calls(True, True, "1.2", results)
    raise ValueError(f"unknown kind {kind!r}")
