"""Tracing from outside: spans around every public call into certreal.

`Tracer.install()` replaces each public module-level function of the
eight certreal modules by a wrapper that records one span (name, layer,
start, end, parent span, query id) and rebinds the wrapper at every place
the function's name is bound: the module attribute, each
`from certreal.x import f` alias in the other modules, and the package
re-exports.  Without the aliases, a call from one module into another
would escape its span.  It also wraps `Report.render`, counts
`TermStream.term` calls, and wraps the oracles of every descriptor that
`cli.resolve_function`, `approx.gallery` and `core.poly_descriptor`
return (the benchmark passes its own descriptors through
`wrap_descriptor`).  Nothing in `src/` changes; `uninstall()` restores
every binding.

Spans stay in memory and are written out at the end of the run.  Counts
are kept per query and merged only when the query ends within its budget,
so every count repeats exactly between runs of the same seed.
"""

from __future__ import annotations

import collections
import dataclasses
import importlib
import inspect
import json
import statistics
from time import perf_counter

LAYERS = ("core", "sequences", "series", "integration", "calculus", "powerseries", "approx", "cli")

# to_rational coerces the endpoints of every Enclosure it builds; a span
# there would cost more than the work it measures.
_UNTRACED = {"core.to_rational"}

_NTH_ROOT = {"core.integer_nth_root", "core.nth_root_enclosure"}

# Their descriptors come back with counted oracles.
_FACTORIES = {"cli.resolve_function", "approx.gallery", "core.poly_descriptor"}

# Span fields, kept as lists for speed.
NAME, LAYER, START, END, PARENT, QUERY, ERROR = range(7)


def _bits(value, depth: int = 2) -> int:
    """Largest denominator bit length among the rationals in a result."""
    denominator = getattr(value, "denominator", None)
    if isinstance(denominator, int):
        return denominator.bit_length()
    if depth == 0:
        return 0
    if hasattr(value, "lo") and hasattr(value, "hi"):
        return max(_bits(value.lo), _bits(value.hi))
    for attr in ("value", "enclosure", "partial_sums"):
        if hasattr(value, attr):
            return _bits(getattr(value, attr), depth - 1)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return max((_bits(v, depth - 1) for v in value), default=0)
    return 0


def _decimal_bits(digits: int) -> int:
    """ceil(digits * log2 10), exactly."""
    return (10**digits - 1).bit_length()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.totals: collections.Counter = collections.Counter()
        self.maxima: dict[str, int] = collections.defaultdict(int)
        self.samples: dict[str, list] = collections.defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []
        self._begin_query(-1)

    # --- per-query staging -------------------------------------------------

    def _begin_query(self, query: int) -> None:
        self.query = query
        self.counts: collections.Counter = collections.Counter()
        self.q_maxima: dict[str, int] = collections.defaultdict(int)
        self.q_samples: dict[str, list] = collections.defaultdict(list)
        self.oracle_keys: dict[str, set] = collections.defaultdict(set)
        self.raised: dict[int, BaseException] = {}

    def begin_query(self, query: int, op: str) -> None:
        """Open the root span of a query; its calls become its children."""
        self._begin_query(query)
        self.query_start = len(self.spans)
        self.spans.append([f"query.{op}", "bench", perf_counter(), 0.0, -1, query, False])
        self.stack[:] = [self.query_start]

    def end_query(self, keep: bool) -> None:
        """Close the query.  A query cut by its budget keeps only its root
        span, because where the cut lands differs from run to run."""
        root = self.spans[self.query_start]
        root[END] = perf_counter()
        self.stack.clear()
        if not keep:
            del self.spans[self.query_start + 1:]
            root[ERROR] = True
            self.totals["trace.timeouts"] += 1
            return
        self.totals.update(self.counts)
        for key, value in self.q_maxima.items():
            self.maxima[key] = max(self.maxima[key], value)
        for key, values in self.q_samples.items():
            self.samples[key].extend(values)
        for layer, keys in self.oracle_keys.items():
            self.totals[f"{layer}.oracle_unique"] += len(keys)

    # --- wrappers ------------------------------------------------------------

    def _span(self, name: str, layer: str, fn, hook=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, layer, 0.0, 0.0, parent, self.query, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[END] = perf_counter()
                # count an exception once, at the innermost span it leaves
                if id(exc) not in self.raised:
                    self.raised[id(exc)] = exc
                    span[ERROR] = True
                raise
            finally:
                stack.pop()
            span[END] = perf_counter()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _oracle(self, fn):
        if fn is None or getattr(fn, "_perfbench_oracle", False):
            return fn
        spans, stack = self.spans, self.stack

        def oracle(x, *rest):
            layer = spans[stack[-1]][LAYER] if stack else "bench"
            self.counts[f"{layer}.oracle_calls"] += 1
            self.oracle_keys[layer].add((id(oracle), x, rest))
            return fn(x, *rest)

        oracle._perfbench_oracle = True
        return oracle

    def wrap_descriptor(self, descriptor):
        """Copy of a descriptor whose oracles (and children's) are counted."""
        if descriptor is None:
            return None
        return dataclasses.replace(
            descriptor,
            eval_rat=self._oracle(descriptor.eval_rat),
            eval_enc=self._oracle(descriptor.eval_enc),
            derivative=self.wrap_descriptor(descriptor.derivative),
            antiderivative=self.wrap_descriptor(descriptor.antiderivative),
        )

    def _hook(self, name: str, fn):
        """Counters taken from a call's arguments and result."""
        if name == "core.integer_nth_root":
            def hook(args, kwargs, result):
                bits = args[0].bit_length()
                if bits > self.q_maxima["core.nth_root.input_bits_max"]:
                    self.q_maxima["core.nth_root.input_bits_max"] = bits
            return hook
        if name == "integration.integrate_enclosure":
            def hook(args, kwargs, result):
                self.counts["integration.subintervals"] += result.subintervals
                bits = _bits(result.enclosure)
                if bits > self.q_maxima["integration.result_bits_max"]:
                    self.q_maxima["integration.result_bits_max"] = bits
            return hook
        if name == "calculus.bisect":
            def hook(args, kwargs, result):
                self.counts["calculus.perturbed_midpoints"] += result.perturbed_midpoints
            return hook
        if name.startswith("series."):
            def hook(args, kwargs, result):
                bits = _bits(result)
                if bits > self.q_maxima["series.result_bits_max"]:
                    self.q_maxima["series.result_bits_max"] = bits
            return hook
        if name.startswith("powerseries."):
            params = inspect.signature(fn).parameters
            if "digits" not in params:
                return None
            position = list(params).index("digits")
            default = params["digits"].default

            def hook(args, kwargs, result):
                if not (hasattr(result, "lo") and hasattr(result, "hi")):
                    return
                digits = kwargs.get("digits", args[position] if len(args) > position else default)
                bits = _bits(result)
                self.q_samples["powerseries.result_bits"].append(bits)
                self.q_samples["powerseries.excess_bits"].append(bits - _decimal_bits(digits))
            return hook
        return None

    def _factory(self, wrapped):
        def factory(*args, **kwargs):
            return self.wrap_descriptor(wrapped(*args, **kwargs))

        return factory

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("certreal")
        modules = {layer: importlib.import_module(f"certreal.{layer}") for layer in LAYERS}
        replacement = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in _UNTRACED):
                    wrapper = self._span(name, layer, obj, self._hook(name, obj))
                    if name in _FACTORIES:
                        wrapper = self._factory(wrapper)
                    replacement[obj] = wrapper
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    self._set(module, attr, replacement[obj])
                elif isinstance(obj, dict):  # dispatch tables such as cli._HANDLERS
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in replacement:
                            self._restore.append((obj, key, value))
                            obj[key] = replacement[value]
        report = modules["cli"].Report
        self._set(report, "render", self._span("cli.Report.render", "cli", report.render))
        stream = modules["sequences"].TermStream
        term = stream.term

        def counted_term(stream_self, n):
            self.counts["sequences.term_calls"] += 1
            return term(stream_self, n)

        self._set(stream, "term", counted_term)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # --- results -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span[NAME], "layer": span[LAYER],
                    "start": span[START], "end": span[END], "parent": span[PARENT],
                    "query": span[QUERY], "error": span[ERROR],
                }) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the spans and counters."""
        child_time = collections.defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        nth_calls, nth_s, darboux, render_s = 0, 0.0, 0, 0.0
        for index, span in enumerate(self.spans):
            layer = span[LAYER]
            if layer not in LAYERS:
                continue
            duration = span[END] - span[START]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += duration - child_time[index]
            out[f"{layer}.errors"] += span[ERROR]
            if span[NAME] in _NTH_ROOT:
                nth_calls += 1
                if self.spans[span[PARENT]][NAME] not in _NTH_ROOT:
                    nth_s += duration
            elif span[NAME] == "integration.darboux":
                darboux += 1
            elif span[NAME] == "cli.Report.render":
                render_s += duration
        totals = self.totals
        oracle_calls = totals["integration.oracle_calls"]
        result_bits = self.samples["powerseries.result_bits"]
        excess_bits = self.samples["powerseries.excess_bits"]
        out.update({
            "core.nth_root.calls": nth_calls,
            "core.nth_root.s": nth_s,
            "core.nth_root.input_bits_max": self.maxima["core.nth_root.input_bits_max"],
            "powerseries.result_bits_max": max(result_bits, default=0),
            "powerseries.result_bits_p50": statistics.median(result_bits) if result_bits else 0,
            "powerseries.excess_bits_p50": statistics.median(excess_bits) if excess_bits else 0,
            "integration.oracle_calls": oracle_calls,
            "integration.oracle_unique_ratio":
                totals["integration.oracle_unique"] / oracle_calls if oracle_calls else 1.0,
            "integration.darboux_calls": darboux,
            "integration.subintervals": totals["integration.subintervals"],
            "integration.result_bits_max": self.maxima["integration.result_bits_max"],
            "sequences.term_calls": totals["sequences.term_calls"],
            "series.result_bits_max": self.maxima["series.result_bits_max"],
            "calculus.oracle_calls": totals["calculus.oracle_calls"],
            "calculus.perturbed_midpoints": totals["calculus.perturbed_midpoints"],
            "cli.render_s": render_s,
            "trace.spans": len(self.spans),
            "trace.timeouts": totals["trace.timeouts"],
        })
        return out

