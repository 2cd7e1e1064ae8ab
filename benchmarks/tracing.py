"""In-memory tracing of the z2brace layers, for the traced benchmark run.

install() wraps the public functions (each module's __all__) of gl2z,
brace, classification, ybe and cli, plus Mat2.__mul__, Mat2.__pow__ and
Mat2.inverse.  A function is often bound under the same name in several
modules (`from .brace import check_pair` in classification, ybe and cli),
so every binding of it in every loaded z2brace module is replaced.

Three kinds of instrumentation, by how often a function runs:

  * span: name, start, end and parent are stored for each call.  The parent
    chain of a span leads to the cli.main span of its request.
  * timed: per-call time is added to the name's totals and to the time of
    its parent, but no span is stored.  Used for Mat2.__pow__ (millions of
    calls per search) and for generator resumes.
  * counted: a counter only.  Used for Mat2.__mul__, Mat2.inverse and the
    per-element brace and gl2z helpers listed in COUNTED.

Self time (a span's duration minus the time of its timed and span
children) is derived when each call ends.  Nothing is written to disk until
write_spans() is called after the run.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("gl2z", "brace", "classification", "ybe", "cli")

COUNTED = frozenset({
    "brace.act",
    "brace.hol_mul",
    "brace.in_lambda_kernel",
    "brace.lambda_of",
    "brace.odot",
    "brace.odot_inverse",
    "gl2z.commutes",
    "gl2z.congruent_mod",
})

POW = "gl2z.Mat2.__pow__"


class Tracer:
    def __init__(self) -> None:
        self.time_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.raised: Counter = Counter()
        self.observed: Counter = Counter()
        self.max_pow_entry_bits = 0
        self._calls: dict[str, itertools.count] = {}
        self._names: list[str] = []
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("q")
        self._span_end = array("q")
        # Open calls: [start_ns, child_ns, index of the nearest stored span].
        self._stack: list[list[int]] = []

    # --- wrappers -----------------------------------------------------------

    def _counter(self, name: str) -> itertools.count:
        return self._calls.setdefault(name, itertools.count())

    def _counted(self, name: str, func):
        tick = self._counter(name)

        def counted(*args, **kwargs):
            next(tick)
            return func(*args, **kwargs)

        return counted

    def _timed(self, name: str, func, store: bool, observe=None):
        tick = self._counter(name)
        name_id = len(self._names)
        self._names.append(name)
        stack, clock = self._stack, time.perf_counter_ns
        names, parents = self._span_name, self._span_parent
        starts, ends = self._span_start, self._span_end
        time_ns, self_ns, raised = self.time_ns, self.self_ns, self.raised

        def timed(*args, **kwargs):
            next(tick)
            parent = stack[-1][2] if stack else -1
            if store:
                index = len(starts)
                names.append(name_id)
                parents.append(parent)
                starts.append(0)
                ends.append(0)
            else:
                index = parent
            frame = [0, 0, index]
            stack.append(frame)
            frame[0] = start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                time_ns[name] += duration
                self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if store:
                    starts[index] = start
                    ends[index] = end
            if observe is not None:
                observe(args, result)
            return result

        return timed

    def _timed_generator(self, name: str, func):
        """Counts calls; times each resume of the generator as a timed call."""
        tick = self._counter(name)
        resume = self._timed(name + ".resume", lambda gen: next(gen), store=False)
        items = f"{name}.items"
        observed = self.observed

        def generator(*args, **kwargs):
            next(tick)
            gen = func(*args, **kwargs)
            while True:
                try:
                    item = resume(gen)
                except StopIteration:
                    return
                observed[items] += 1
                yield item

        return generator

    def _observe_pow(self, args, result) -> None:
        self.observed["pow_exp_bits"] += abs(args[1]).bit_length()
        bits = max(abs(e).bit_length() for e in result.entries())
        if bits > self.max_pow_entry_bits:
            self.max_pow_entry_bits = bits

    def _observe_verdict(self, args, verdict) -> None:
        self.observed["check_pair.commuting"] += bool(getattr(verdict, "commuting", False))
        self.observed["check_pair.valid"] += bool(getattr(verdict, "valid", False))

    def _wrap(self, name: str, func):
        if name in COUNTED:
            return self._counted(name, func)
        if inspect.isgeneratorfunction(func):
            return self._timed_generator(name, func)
        observe = self._observe_verdict if name == "brace.check_pair" else None
        return self._timed(name, func, store=True, observe=observe)

    def install(self) -> None:
        """Wrap every public function of the layers; call once, before any op."""
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"z2brace.{layer}"]
            for public in getattr(module, "__all__", ()):
                func = getattr(module, public, None)
                if inspect.isfunction(func) and func.__module__ == module.__name__:
                    wrapped[id(func)] = (func, self._wrap(f"{layer}.{public}", func))
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("z2brace"):
                continue
            for key, value in list(vars(module).items()):
                pair = wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, key, pair[1])

        mat2 = sys.modules["z2brace.gl2z"].Mat2
        mul, inverse, power = mat2.__mul__, mat2.inverse, mat2.__pow__
        mul_tick = self._counter("gl2z.Mat2.__mul__")
        inverse_tick = self._counter("gl2z.Mat2.inverse")

        def counted_mul(left, right):
            next(mul_tick)
            return mul(left, right)

        def counted_inverse(matrix):
            next(inverse_tick)
            return inverse(matrix)

        mat2.__mul__ = counted_mul
        mat2.inverse = counted_inverse
        mat2.__pow__ = self._timed(POW, power, store=False, observe=self._observe_pow)

    # --- results ------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        # next() on an itertools.count returns how many times it was advanced.
        return {name: next(tick) for name, tick in self._calls.items()}

    def summary(self) -> dict:
        """Counts and times per wrapped name; call once, after the run."""
        return {
            "calls": self.calls(),
            "time_s": {name: ns / 1e9 for name, ns in self.time_ns.items()},
            "self_s": {name: ns / 1e9 for name, ns in self.self_ns.items()},
            "raised": dict(self.raised),
            "observed": dict(self.observed),
            "max_pow_entry_bits": self.max_pow_entry_bits,
            "spans": len(self._span_start),
        }

    def write_spans(self, path) -> None:
        """Stored spans as columns; parent is a row index, -1 for a root."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self._names,
                    "name": self._span_name.tolist(),
                    "parent": self._span_parent.tolist(),
                    "start_ns": self._span_start.tolist(),
                    "end_ns": self._span_end.tolist(),
                },
                handle,
            )
