"""The z2brace benchmark: one command, three workloads, checked outputs.

    python3 benchmarks/run.py --workload {search-b4,verdicts,ybe-families}
                              --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src
directory, never from an installed copy.  Every unit of work runs in a fresh
interpreter (worker.py), a closed loop with one client, and goes through
z2brace.cli.main(argv) in-process, so the numbers are the CLI's.

--trace 0 times the named workload untraced and prints the end-to-end
metrics.  --trace 1 profiles every workload once, traced and untraced, and
prints the per-layer metrics, each named <workload>.<layer>.<metric>, since
a layer metric means something only on the workload it is measured on.

The norm_ time metrics are normalised by the machine's speed, measured
during the calls (worker.SpeedSampler), and setup_s by a bare interpreter
start; README.md says why.  The report lines also give the raw figures.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Whole-run budget, so that a run ends well inside 180 s.
DEADLINE_S = 170.0
# Interpreter starts timed only for setup_s, on top of the workers' own.
SETUP_PROBES = 11
# Fresh interpreters per run: a median needs at least three searches, and
# the ybe pass (twelve reports) is repeated once.
MIN_PASSES = {"search-b4": 3, "ybe-families": 2}
# Samples beyond a reported tail percentile.
TAIL_BEYOND = 10

# The reference computation's time (worker.reference_s) on a quiet 2-core
# Xeon VM.  A normalised time is what a call would have taken at that
# speed: its measured time over the speed factor around it.
NOMINAL_REFERENCE_S = 0.0035
# Reference samples on each side of an item that count towards its speed.
REFERENCE_MARGIN = 3

# A bare interpreter start (python -c pass) on a quiet 2-core Xeon VM.
# setup_s is scaled by it, measured just before each interpreter it times:
# the set-up is mostly the same exec, site and import work, so the two
# slow down together when the machine does.
NOMINAL_BARE_START_S = 0.05

END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "norm_throughput_per_s": ("1/s", "higher"),
    "norm_latency_p50_ms": ("ms", "lower"),
    "norm_latency_tail_ms": ("ms", "lower"),
}

# How the report lines name throughput, p50 and tail on each workload.
REPORT_NAMES = {
    "search-b4": ("pairs_per_s", "search_s", "search_tail_s", "s", 1.0),
    "verdicts": ("verdicts_per_s", "verdict_p50_ms", "verdict_p99_ms", "ms", 1e3),
    "ybe-families": ("ybe_triples_per_s", "ybe_report_p50_ms", "ybe_report_tail_ms", "ms", 1e3),
}

# Per workload, the layer metrics that the workload exercises.
PER_LAYER = {
    "search-b4": (
        "gl2z.mul_calls", "gl2z.pow_calls", "gl2z.pow_s", "gl2z.pow_exp_bits",
        "gl2z.pow_max_entry_bits", "gl2z.inverse_calls",
        "brace.check_pair_calls", "brace.commuting_ratio", "brace.valid_ratio",
        "brace.check_pair_s",
        "classification.enumerate_s", "classification.enumerated",
        "classification.generated_instances_s", "classification.generate_row_calls",
        "classification.generate_row_rejected_ratio",
        "classification.row_membership_calls", "classification.row_membership_s",
        "classification.row12_parameters_s",
        "cli.self_s", "cli.calls", "trace_overhead_ratio",
    ),
    "verdicts": (
        "gl2z.mul_calls", "gl2z.pow_calls", "gl2z.pow_s", "gl2z.pow_exp_bits",
        "gl2z.pow_max_entry_bits", "gl2z.inverse_calls",
        "brace.check_pair_calls", "brace.commuting_ratio", "brace.valid_ratio",
        "brace.check_pair_s",
        "classification.generate_row_calls",
        "classification.row_membership_calls", "classification.row_membership_s",
        "classification.row12_parameters_s",
        "cli.self_s", "cli.calls", "trace_overhead_ratio",
    ),
    "ybe-families": (
        "gl2z.mul_calls", "gl2z.pow_calls", "gl2z.pow_s", "gl2z.pow_exp_bits",
        "gl2z.pow_max_entry_bits", "gl2z.inverse_calls",
        "brace.check_pair_calls", "brace.check_pair_s", "brace.odot_calls",
        "ybe.nondegenerate_at_s", "ybe.nondegenerate_at_calls", "ybe.ybe_holds_s",
        "ybe.involutive_at_s",
        "cli.self_s", "cli.calls", "trace_overhead_ratio",
    ),
}

HIGHER_IS_BETTER = {"brace.commuting_ratio", "brace.valid_ratio"}


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    return "count"


def per_layer_spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in print order."""
    return [
        {
            "name": f"{workload}.{metric}",
            "unit": layer_unit(metric),
            "better": "higher" if metric in HIGHER_IS_BETTER else "lower",
        }
        for workload, metrics in PER_LAYER.items()
        for metric in metrics
    ]


class WorkerFailed(RuntimeError):
    """A worker crashed, printed no result or ran out of time, or tracing changed output."""


class Runner:
    """Starts worker interpreters against one deadline and keeps their set-up times."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        # Normalised by a bare interpreter start just before each spawn.
        self.setup_s: list[float] = []
        self.setup_raw_s: list[float] = []
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONPATH", None)

    def spawn(self, job: dict | None) -> dict:
        argv = [sys.executable, str(HERE / "worker.py"), str(SRC)]
        if job is None:
            argv.append("--probe")
        bare = self._bare_start_s()
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("run deadline passed")
        started = time.monotonic()
        try:
            proc = subprocess.run(
                argv, input=json.dumps(job or {}), capture_output=True, text=True,
                env=self.env, cwd=ROOT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker did not finish within {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        try:
            result = json.loads(proc.stdout)
        except ValueError:
            raise WorkerFailed(f"worker printed no result: {proc.stderr[-2000:]}") from None
        set_up = result["ready"] - started
        self.setup_raw_s.append(set_up)
        self.setup_s.append(set_up * NOMINAL_BARE_START_S / bare)
        return result

    def _bare_start_s(self) -> float:
        """Seconds to start and stop an interpreter that runs nothing."""
        started = time.monotonic()
        try:
            subprocess.run(
                [sys.executable, "-c", "pass"], env=self.env, cwd=ROOT, check=True,
                timeout=max(self.deadline - started, 0.001),
            )
        except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
            raise WorkerFailed(f"bare interpreter start failed: {exc}") from None
        return time.monotonic() - started

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            self.spawn(None)


def tail(latencies: list[float]) -> tuple[float, str, int]:
    """p99, or the highest percentile with TAIL_BEYOND samples beyond it.

    Nearest rank.  With too few samples for any such percentile, the
    maximum.  Returns (value, label, samples beyond).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = math.ceil(0.99 * n)
    if n - rank < TAIL_BEYOND:
        rank = n - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], "max", 0
    return ordered[rank - 1], f"p{100 * rank / n:.4g}", n - rank


def check_results(items: list[dict]) -> tuple[int, int, list[str]]:
    """(calls attempted, calls failed, descriptions of the first failures)."""
    attempted = failed = 0
    problems = []
    for done in items:
        flags = checks.check_item(done["item"], done["results"])
        attempted += len(flags)
        for ok, argv, result in zip(flags, done["item"]["calls"], done["results"]):
            if not ok:
                failed += 1
                if len(problems) < 5:
                    problems.append(
                        f"{done['item']['kind']} {argv[0]}: exit {result['rc']} "
                        f"{result.get('error') or result['err'].strip()[:200]}"
                    )
    return attempted, failed, problems


def fixed_units(workload: str, seed: int) -> list:
    """One worker's fixed work: one search, the first verdict block or one ybe pass."""
    if workload == "search-b4":
        return [workloads.search_unit()]
    if workload == "verdicts":
        return [next(workloads.verdict_blocks(seed))]
    return [workloads.ybe_unit(seed)]


def timed_passes(runner: Runner, workload: str, seed: int, seconds: int) -> list[dict]:
    """Untraced worker results for one run of the workload."""
    if workload == "verdicts":
        return [runner.spawn({"seed": seed, "trace": False, "seconds": seconds})]
    units = fixed_units(workload, seed)
    passes = []
    began = time.monotonic()
    while len(passes) < MIN_PASSES[workload] or time.monotonic() - began < seconds:
        passes.append(runner.spawn({"seed": seed, "trace": False, "units": units}))
    return passes


def speed_factor(reference_samples: list[float]) -> float:
    """How many times slower than nominal the machine ran while they were taken."""
    return statistics.median(reference_samples) / NOMINAL_REFERENCE_S


def speed_factors(worker: dict) -> list[float]:
    """Per item, how many times slower than nominal the machine ran around it.

    The median of the reference samples taken while the item ran, plus
    REFERENCE_MARGIN samples on each side.
    """
    samples = worker["reference_s"]
    return [
        speed_factor(samples[max(0, first - REFERENCE_MARGIN):end + REFERENCE_MARGIN])
        for first, end in (done["samples"] for done in worker["items"])
    ]


def timed_calls(workers: list[dict]):
    """(item, measured seconds, speed factor) for every call the workers made."""
    for worker in workers:
        for done, factor in zip(worker["items"], speed_factors(worker)):
            for result in done["results"]:
                yield done["item"], result["s"], factor


def normalised_seconds(workers: list[dict]) -> float:
    return sum(seconds / factor for _, seconds, factor in timed_calls(workers))


def work_per_call(item: dict) -> int:
    if item["kind"] == "search":
        return checks.golden_search(workloads.SEARCH_BOUND)["candidates"]
    return item.get("samples", 1)


def end_to_end(workload: str, passes: list[dict], runner: Runner) -> tuple[dict, list[str]]:
    """The end-to-end metrics of one run and the report lines naming them."""
    calls = list(timed_calls(passes))
    raw = [seconds for _, seconds, _ in calls]
    norm = [seconds / factor for _, seconds, factor in calls]
    factors = [factor for _, _, factor in calls]
    work = sum(work_per_call(item) for item, _, _ in calls)
    throughput_name, p50_name, tail_name, unit, scale = REPORT_NAMES[workload]
    n = len(raw)
    tail_value, tail_label, beyond = tail(norm)
    metrics = {
        "setup_s": statistics.median(runner.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "norm_throughput_per_s": work / sum(norm),
        "norm_latency_p50_ms": statistics.median(norm) * 1e3,
        "norm_latency_tail_ms": tail_value * 1e3,
    }
    lines = [
        f"machine speed: the reference computation took {statistics.median(factors):.4g} "
        f"times its nominal time (median over items; range {min(factors):.4g} to {max(factors):.4g})",
        f"{throughput_name} = {work / sum(raw):.6g} 1/s as measured, "
        f"{metrics['norm_throughput_per_s']:.6g} normalised  ({work} over {sum(raw):.3f} s of calls)",
        f"{p50_name} = {statistics.median(raw) * scale:.6g} {unit} as measured, "
        f"{statistics.median(norm) * scale:.6g} normalised  (median of n={n})",
        f"{tail_name} = {tail(raw)[0] * scale:.6g} {unit} as measured, "
        f"{tail_value * scale:.6g} normalised  ({tail_label}, {beyond} samples beyond, n={n})",
        f"setup_s = {statistics.median(runner.setup_raw_s):.6g} s as measured, "
        f"{metrics['setup_s']:.6g} normalised  (median of {len(runner.setup_s)} interpreter starts)",
        "peak_rss_mb: the largest worker or probe",
    ]
    return metrics, lines


def layer_metrics(summary: dict, overhead: float) -> dict[str, float]:
    """Every per-layer metric from one traced worker's summary."""
    calls, time_s, self_s = summary["calls"], summary["time_s"], summary["self_s"]
    raised, observed = summary["raised"], summary["observed"]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    check_pair_calls = calls.get("brace.check_pair", 0)
    generate_row_calls = calls.get("classification.generate_row", 0)
    return {
        "gl2z.mul_calls": calls.get("gl2z.Mat2.__mul__", 0),
        "gl2z.pow_calls": calls.get("gl2z.Mat2.__pow__", 0),
        "gl2z.pow_s": time_s.get("gl2z.Mat2.__pow__", 0.0),
        "gl2z.pow_exp_bits": observed.get("pow_exp_bits", 0),
        "gl2z.pow_max_entry_bits": summary["max_pow_entry_bits"],
        "gl2z.inverse_calls": calls.get("gl2z.Mat2.inverse", 0),
        "brace.check_pair_calls": check_pair_calls,
        "brace.commuting_ratio": ratio(observed.get("check_pair.commuting", 0), check_pair_calls),
        "brace.valid_ratio": ratio(observed.get("check_pair.valid", 0), check_pair_calls),
        "brace.check_pair_s": time_s.get("brace.check_pair", 0.0),
        "brace.odot_calls": calls.get("brace.odot", 0),
        "classification.enumerate_s": time_s.get("classification.enumerate_unimodular.resume", 0.0),
        "classification.enumerated": observed.get("classification.enumerate_unimodular.items", 0),
        "classification.generated_instances_s": time_s.get("classification.generated_row_instances", 0.0),
        "classification.generate_row_calls": generate_row_calls,
        "classification.generate_row_rejected_ratio": ratio(
            raised.get("classification.generate_row", 0), generate_row_calls
        ),
        "classification.row_membership_calls": calls.get("classification.row_membership", 0),
        "classification.row_membership_s": time_s.get("classification.row_membership", 0.0),
        "classification.row12_parameters_s": time_s.get("classification.row12_parameters", 0.0),
        "ybe.nondegenerate_at_s": time_s.get("ybe.nondegenerate_at", 0.0),
        "ybe.nondegenerate_at_calls": calls.get("ybe.nondegenerate_at", 0),
        "ybe.ybe_holds_s": time_s.get("ybe.ybe_holds", 0.0),
        "ybe.involutive_at_s": time_s.get("ybe.involutive_at", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.calls": calls.get("cli.main", 0),
        "trace_overhead_ratio": overhead,
    }


def traced_profile(runner: Runner, workload: str, seed: int):
    """Untraced then traced run of the same units, each in a fresh interpreter."""
    units = fixed_units(workload, seed)
    plain = runner.spawn({"seed": seed, "trace": False, "units": units})
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    traced = runner.spawn({"seed": seed, "trace": True, "units": units, "spans_path": str(spans)})
    if traced["digest"] != plain["digest"]:
        raise WorkerFailed(f"{workload}: tracing changed the program's output")
    overhead = normalised_seconds([traced]) / normalised_seconds([plain])
    return plain, traced, layer_metrics(traced["trace"], overhead)


def baseline(workload: str) -> dict:
    """The first trajectory entry's figures for this workload, if recorded."""
    path = HERE / "trajectory.json"
    if not path.exists():
        return {}
    entry = json.loads(path.read_text(encoding="utf-8"))[0]
    return entry["workloads"].get(workload, {})


def format_metric(name: str, value: float, unit: str, base: dict) -> str:
    line = f"  {name} = {value:.6g} {unit}"
    if base.get(name):
        line += f"  (seed baseline {base[name]:.6g}, ratio {value / base[name]:.3f})"
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "z2brace" / "__init__.py").is_file():
        print(f"error: no z2brace package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    runner = Runner(time.monotonic() + DEADLINE_S)
    items: list[dict] = []
    metrics: dict[str, dict] = {}
    try:
        runner.spawn(None)  # compiles the package's bytecode; not timed
        runner.setup_s.clear()
        runner.setup_raw_s.clear()
        if args.trace:
            print(f"traced profile, seed {args.seed}")
            for workload in workloads.WORKLOADS:
                plain, traced, layers = traced_profile(runner, workload, args.seed)
                items += plain["items"] + traced["items"]
                base = baseline(workload).get("per_layer", {})
                print(f"{workload}: {sum(len(d['results']) for d in plain['items'])} calls, "
                      f"output digest {traced['digest'][:16]}")
                for metric in PER_LAYER[workload]:
                    name = f"{workload}.{metric}"
                    unit = layer_unit(metric)
                    print(format_metric(metric, layers[metric], unit, base))
                    metrics[name] = {"value": layers[metric], "unit": unit}
        else:
            runner.probe_setup()
            passes = timed_passes(runner, args.workload, args.seed, args.seconds)
            for p in passes:
                items += p["items"]
            values, lines = end_to_end(args.workload, passes, runner)
            base = baseline(args.workload).get("end_to_end", {})
            print(f"{args.workload}, seed {args.seed}: {len(passes)} worker interpreter(s)")
            for line in lines:
                print(f"  {line}")
            for name, (unit, _) in END_TO_END.items():
                print(format_metric(name, values[name], unit, base))
                metrics[name] = {"value": values[name], "unit": unit}
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = check_results(items)
    print(f"  failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
