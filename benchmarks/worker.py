"""One benchmark client: a fresh interpreter that runs CLI calls in-process.

    python worker.py <src dir> [--probe]  < job.json

run.py starts it with the checkout's src directory and a JSON job on stdin.
It records when the interpreter has finished importing z2brace, which is
the set-up every CLI invocation pays, then calls z2brace.cli.main(argv) once
per call with stdout and stderr captured, timing each call with
time.perf_counter.  It prints one JSON result on stdout.  With --probe it
stops after the import and reports only that moment.

While the calls run, a SpeedSampler times a fixed reference computation
every REFERENCE_EVERY_S seconds, so that run.py can normalise each call by
the machine's speed during it.

Job keys: seed, trace (bool), spans_path, and either units (a list of
units, all of which are run) or seconds (run endless seeded verdict blocks,
starting no new block after this long).
"""

import contextlib
import functools
import io
import signal
import sys
import time

REFERENCE_EVERY_S = 0.2
# Samples taken before the first call and after the last one.
REFERENCE_EDGE_SAMPLES = 3


@functools.cache
def _big_operands() -> tuple[int, int]:
    """About 44k bits each, the size of the wide powers in the verdicts tail."""
    return 3**28000 + 1, 5**19000 + 7


class _Point:
    """A small hashable value object, like the program's vectors and matrices."""

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x, self.y = x, y

    def __add__(self, other: "_Point") -> "_Point":
        return _Point(self.x + other.x, self.y + other.y)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Point) and (self.x, self.y) == (other.x, other.y)

    def __hash__(self) -> int:
        return hash((self.x, self.y))


def reference_s() -> float:
    """Seconds for a fixed computation of about 3.5 ms: the machine's current speed.

    It mixes the three kinds of work the calls do: arithmetic on small
    tuples, small objects made and hashed into a set, and one product of
    big integers.  It shares no code with z2brace, so no change to the
    program moves it.
    """
    left, right = _big_operands()
    start = time.perf_counter()
    for _ in range(160):
        x, result, k = (5, 2, 2, 1), (1, 0, 0, 1), 200
        while k:
            if k & 1:
                a, b, c, d = result
                e, f, g, h = x
                result = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            a, b, c, d = x
            x = (a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d)
            k >>= 1
    shift = _Point(3, -2)
    for _ in range(4):
        {_Point(i, j) + shift for i in range(-8, 9) for j in range(-8, 9)}
    left * right
    return time.perf_counter() - start


class SpeedSampler:
    """Times reference_s from a SIGALRM handler every REFERENCE_EVERY_S seconds.

    The handler runs between the bytecodes of whatever call is in progress,
    so a long call is sampled while it runs.  `spent` adds up the handler's
    own time, which _call takes out of the call's time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.samples.append(reference_s())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        for _ in range(REFERENCE_EDGE_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(REFERENCE_EDGE_SAMPLES):
            self.sample()


def _call(cli, argv: list[str], sampler: SpeedSampler) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        spent = sampler.spent
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - reported as a failed call
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start - (sampler.spent - spent)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "s": seconds, "error": error}


def _serve(cli, ready: float) -> None:
    # Imported only after the set-up stamp, so setup_s holds no client code.
    import hashlib
    import json

    import workloads

    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    if "units" in job:
        units, limit = job["units"], None
    else:
        units, limit = workloads.verdict_blocks(job["seed"]), job["seconds"]
    digest = hashlib.sha256()
    done = []
    with SpeedSampler() as sampler:
        began = time.perf_counter()
        for unit in units:
            for item in unit:
                first_sample = len(sampler.samples)
                results, previous = [], ""
                for argv in item["calls"]:
                    argv = [previous if arg == workloads.PREV else arg for arg in argv]
                    result = _call(cli, argv, sampler)
                    previous = result["out"]
                    digest.update(result["out"].encode())
                    digest.update(result["err"].encode())
                    results.append(result)
                done.append({
                    "item": item,
                    "results": results,
                    "samples": [first_sample, len(sampler.samples)],
                })
            if limit is not None and time.perf_counter() - began >= limit:
                break

    result = {
        "ready": ready,
        "reference_s": sampler.samples,
        "items": done,
        "digest": digest.hexdigest(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import z2brace.cli

    ready = time.monotonic()
    if "--probe" in sys.argv:
        print(f'{{"ready": {ready!r}}}')
    else:
        _serve(z2brace.cli, ready)
