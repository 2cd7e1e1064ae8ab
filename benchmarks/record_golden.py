"""Record the golden `search --bound 4` report that the search-b4 workload checks.

    python3 benchmarks/record_golden.py

Run once, at the commit whose report is to be trusted.  The report is
written only if its valid_pairs and candidates agree with the raw-tuple
oracle in checks.py, which shares no code with z2brace.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import checks
import workloads
from run import SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    import z2brace.cli

    bound = workloads.SEARCH_BOUND
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = z2brace.cli.main(["search", "--bound", str(bound)])
    report = json.loads(out.getvalue())
    expected_valid = checks.oracle_valid_pairs(bound)
    side = 2 * bound + 1
    unimodular = sum(
        abs(a * d - b * c) == 1
        for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)
        for c in range(-bound, bound + 1) for d in range(-bound, bound + 1)
    )
    if rc != 0 or report["valid_pairs"] != expected_valid or report["candidates"] != unimodular**2:
        print(
            f"refusing to record: exit {rc}, valid_pairs {report['valid_pairs']} "
            f"(oracle {expected_valid}), candidates {report['candidates']} "
            f"(oracle {unimodular}^2 of a {side}^4 box)",
            file=sys.stderr,
        )
        return 1
    path = checks.GOLDEN_DIR / f"search-b{bound}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(out.getvalue(), encoding="utf-8")
    print(f"wrote {path.name}: valid_pairs {expected_valid} confirmed by the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
