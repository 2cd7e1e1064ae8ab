"""Tests of the benchmark itself: python3 -m pytest benchmarks

They check that inputs depend only on the seed, that traced counts and
program output repeat exactly, that the output checks are not vacuous, and
that BENCHMARK.json lists exactly the metrics run.py prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter

import checks
import run
import workloads


def _block_mix(block):
    return Counter((item["kind"], item.get("label")) for item in block)


def _first_blocks(seed: int, count: int = 2):
    stream = workloads.verdict_blocks(seed)
    return [next(stream) for _ in range(count)]


def test_same_seed_gives_same_verdict_inputs():
    assert _first_blocks(7) == _first_blocks(7)


def test_other_seed_changes_verdict_inputs_but_not_their_mix():
    ours, theirs = _first_blocks(7), _first_blocks(8)
    assert ours != theirs
    for mine, other in zip(ours, theirs):
        assert _block_mix(mine) == _block_mix(other)
        assert sorted(item["kind"] for item in mine) == sorted(workloads.BLOCK_KINDS)


def test_ybe_unit_covers_every_family_with_the_seed():
    unit = workloads.ybe_unit(5)
    assert [item["label"] for item in unit] == list(workloads.FAMILIES)
    assert all(item["calls"][0][-2:] == ["--seed", "5"] for item in unit)


def test_oracle_confirms_the_golden_search_report():
    assert checks.oracle_valid_pairs(1) == 34
    assert checks.oracle_valid_pairs(2) == 90
    golden = checks.golden_search(workloads.SEARCH_BOUND)
    assert golden["valid_pairs"] == checks.oracle_valid_pairs(workloads.SEARCH_BOUND) == 226
    assert golden["candidates"] == 360**2


def test_checks_flag_wrong_outputs():
    spec = json.dumps({"phi": [[2, 1], [1, 1]], "psi": [[1, 1], [0, 1]]})
    item = {"kind": "random", "spec": spec, "calls": [["check", spec], ["classify", spec]]}
    check = {"rc": 1, "out": json.dumps({"valid": False, "commuting": False}), "err": ""}
    classify = {"rc": 0, "out": "[]", "err": "note"}
    assert checks.check_item(item, [check, classify]) == [True, True]
    assert checks.check_item(item, [{**check, "rc": 0}, classify]) == [False, True]
    assert checks.check_item(item, [check, {**classify, "out": '["1.2"]'}]) == [True, False]
    assert checks.check_item(item, [check, {**classify, "error": "boom"}]) == [False, False]

    m = [[8192, 8193], [8191, 8192]]
    hyperbolic = {"kind": "hyperbolic-14", "spec": json.dumps({"phi": m, "psi": m})}
    commuting = {"rc": 1, "out": json.dumps({"valid": False, "commuting": True}), "err": ""}
    assert checks.check_item(hyperbolic, [commuting, classify]) == [True, True]
    assert checks.check_item(hyperbolic, [check, classify]) == [False, True]


def test_tail_is_p99_or_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 1001)]) == (990.0, "p99", 10)
    assert run.tail([float(i) for i in range(1, 501)]) == (490.0, "p98", 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max", 0)


def _traced_counts(seed: int):
    runner = run.Runner(time.monotonic() + 150)
    units = [
        workloads.search_unit(bound=2),
        next(workloads.verdict_blocks(seed)),
        workloads.ybe_unit(seed, samples=6),
    ]
    traced = runner.spawn({"seed": seed, "trace": True, "units": units})
    # The golden report exists for bound 4 only; the digest still covers search.
    checked = [done for done in traced["items"] if done["item"]["kind"] != "search"]
    attempted, failed, problems = run.check_results(checked)
    assert failed == 0, problems
    layers = run.layer_metrics(traced["trace"], overhead=1.0)
    counts = {name: value for name, value in layers.items() if run.layer_unit(name) != "s"}
    return counts, traced["digest"], attempted


def test_traced_counts_and_output_bytes_repeat_for_a_seed():
    first, second = _traced_counts(3), _traced_counts(3)
    assert first == second
    counts = first[0]
    assert counts["gl2z.mul_calls"] > 0 and counts["brace.check_pair_calls"] > 0
    # 104 unimodular matrices have entries in [-2, 2]: 104^2 = 10816 candidates.
    assert counts["classification.enumerated"] == 104


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == run.per_layer_spec()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verdicts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
