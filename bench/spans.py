"""Spans around calls into deepa2's modules, and the per-layer metrics
computed from them.

``install`` wraps each traced function and rebinds every name that holds
it: the defining module's attribute, every ``from x import f`` copy in other
deepa2 modules, and default argument values such as ``scorer=default_scorer``.
A span records name, start, end and parent; the spans of one CLI stage stay
in memory and are written out when the stage ends.  A span opened in a
worker thread with no open span of its own takes the main thread's innermost
open span as parent, so a stage body that waits on workers is not charged
their time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types
from pathlib import Path


def _text(text, *args, **kwargs):
    return text


def _request_key(self, request):
    inputs = tuple(sorted((d.keyword, t) for d, t in request.inputs.items()))
    return (request.mode.label, inputs, request.record_id)


def _analysis_key(work, target=None, *args, **kwargs):
    items = frozenset((d.keyword, t) for d, t in work.items())
    return items, target.meta.record_id if target is not None else None


#: (module, qualified name, span name, distinct-argument key or None)
TARGETS = (
    ("deepa2.cli", "main", "cli.main", None),
    ("deepa2.generator", "generate_corpus", "generator.generate_corpus", None),
    ("deepa2.generator", "validate_record", "generator.validate_record", None),
    ("deepa2.records", "load_corpus", "records.load_corpus", None),
    ("deepa2.records", "parse_statements", "records.parse_statements",
     lambda text, validate_formulas=False: (text, validate_formulas)),
    ("deepa2.records", "serialize_dimension", "records.serialize_dimension", None),
    ("deepa2.chains", "run_chain", "chains.run_chain", None),
    ("deepa2.chains", "ChainResult.to_dict", "chains.ChainResult.to_dict", None),
    ("deepa2.chains", "ChainResult.from_dict", "chains.ChainResult.from_dict", None),
    ("deepa2.chains", "export_training", "chains.export_training", None),
    ("deepa2.backends", "OracleBackend.generate", "backends.generate", _request_key),
    ("deepa2.backends", "NoisyOracleBackend.generate", "backends.generate", _request_key),
    ("deepa2.backends", "HttpBackend.generate", "backends.generate", _request_key),
    ("deepa2.argdown", "parse_argdown", "argdown.parse_argdown", _text),
    ("deepa2.formula.syntax", "parse_formula", "formula.parse_formula", _text),
    ("deepa2.formula.decide", "check_entailment", "formula.check_entailment", None),
    ("deepa2.formula.decide", "check_satisfiable", "formula.check_satisfiable", None),
    ("deepa2.schemes", "sys_sch_ratio", "schemes.sys_sch_ratio", None),
    ("deepa2.schemes", "check_scheme_instantiation", "schemes.check_scheme_instantiation", None),
    ("deepa2.schemes", "match_step", "schemes.match_step", None),
    ("deepa2.metrics", "evaluate_analysis", "metrics.evaluate_analysis", _analysis_key),
    ("deepa2.metrics", "default_scorer", "metrics.default_scorer", None),
    ("deepa2.evaluation", "evaluate_traces", "evaluation.evaluate_traces", None),
    ("deepa2.evaluation", "aggregate_table", "evaluation.aggregate_table", None),
    ("deepa2.evaluation", "oracle_reports", "evaluation.oracle_reports", None),
)


class Tracer:
    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, raised)
        self.distinct: dict[str, set[int]] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, key=None):
        tracer = self
        if key is not None:
            self.distinct.setdefault(name, set())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                # A traced function calling itself or a sibling of the same
                # name (the noisy oracle calls the oracle) is one call.
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][0]
            else:
                main = tracer._main_stack
                parent = main[-1][0] if main else None
            if key is not None:
                tracer.distinct[name].add(hash(key(*args, **kwargs)))
            span_id = next(tracer._ids)
            stack.append((span_id, name))
            raised = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, raised))

        return traced

    def dump(self, path: Path) -> None:
        payload = {
            "stage": self.stage,
            "spans": self.spans,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def _functions_of(module):
    """Every function defined at module level or in a class of the module."""
    for value in vars(module).values():
        if isinstance(value, types.FunctionType):
            yield value
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for member in vars(value).values():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if isinstance(member, types.FunctionType):
                    yield member


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind each place that holds it."""
    replacements: dict[int, object] = {}
    for module_name, qualname, span_name, key in TARGETS:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(span_name, raw.__func__, key)))
            else:
                setattr(cls, attr, tracer.wrap(span_name, raw, key))
        else:
            original = getattr(module, qualname)
            replacements[id(original)] = tracer.wrap(span_name, original, key)

    modules = [m for n, m in sys.modules.items() if n == "deepa2" or n.startswith("deepa2.")]
    functions = [f for m in modules for f in _functions_of(m)]
    for fn in functions:
        if fn.__defaults__:
            fn.__defaults__ = tuple(replacements.get(id(v), v) for v in fn.__defaults__)
        if fn.__kwdefaults__:
            fn.__kwdefaults__ = {
                k: replacements.get(id(v), v) for k, v in fn.__kwdefaults__.items()
            }
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, name, replacements[id(value)])


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "generator.generate_corpus.self_s": "s",
    "generator.validate_record.calls": "count",
    "generator.accept_ratio": "share",
    "records.load_corpus.self_s": "s",
    "records.parse_statements.calls": "count",
    "records.parse_statements.self_s": "s",
    "records.parse_statements.distinct": "share",
    "records.serialize_dimension.calls": "count",
    "chains.run_chain.calls": "count",
    "chains.run_chain.self_s": "s",
    "chains.ChainResult.to_dict.self_s": "s",
    "chains.ChainResult.from_dict.self_s": "s",
    "chains.export_training.self_s": "s",
    "backends.generate.calls": "count",
    "backends.generate.distinct": "share",
    "backends.generate.p50_ms": "ms",
    "backends.generate.p99_ms": "ms",
    "backends.generate.errors": "count",
    "stub.posts": "count",
    "stub.service_p50_ms": "ms",
    "argdown.parse_argdown.calls": "count",
    "argdown.parse_argdown.self_s": "s",
    "argdown.parse_argdown.distinct": "share",
    "formula.parse_formula.calls": "count",
    "formula.parse_formula.self_s": "s",
    "formula.parse_formula.distinct": "share",
    "formula.check_entailment.calls": "count",
    "formula.check_entailment.self_s": "s",
    "formula.check_entailment.p99_ms": "ms",
    "formula.check_satisfiable.calls": "count",
    "formula.check_satisfiable.self_s": "s",
    "schemes.sys_sch_ratio.calls": "count",
    "schemes.sys_sch_ratio.self_s": "s",
    "schemes.check_scheme_instantiation.calls": "count",
    "schemes.check_scheme_instantiation.self_s": "s",
    "schemes.match_step.calls": "count",
    "schemes.match_step.self_s": "s",
    "metrics.evaluate_analysis.calls": "count",
    "metrics.evaluate_analysis.self_s": "s",
    "metrics.evaluate_analysis.distinct": "share",
    "metrics.evaluate_analysis.p99_ms": "ms",
    "metrics.default_scorer.calls": "count",
    "metrics.default_scorer.self_s": "s",
    "evaluation.evaluate_traces.self_s": "s",
    "evaluation.aggregate_table.self_s": "s",
    "evaluation.oracle_reports.self_s": "s",
    "cli.main.self_s": "s",
    "import.deepa2_s": "s",
    "import.requests_s": "s",
    "import.numpy_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _new_entry() -> dict:
    return {"calls": 0, "self_s": 0.0, "distinct": 0, "durations": [], "errors": 0}


def span_stats(stage_dumps: list[dict]) -> dict[str, dict]:
    """Per span name: calls, self_s, distinct, durations (s) and errors,
    summed over the stages."""
    stats: dict[str, dict] = {}
    for dump in stage_dumps:
        children: dict[int, list[tuple[float, float]]] = {}
        for _id, _name, start, end, parent, _raised in dump["spans"]:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        for span_id, name, start, end, _parent, raised in dump["spans"]:
            entry = stats.setdefault(name, _new_entry())
            entry["calls"] += 1
            entry["self_s"] += (end - start) - _covered(children.get(span_id, []), start, end)
            entry["durations"].append(end - start)
            entry["errors"] += int(raised)
        for name, count in dump["distinct"].items():
            stats.setdefault(name, _new_entry())["distinct"] += count
    return stats


def layer_values(stats: dict[str, dict]) -> dict[str, float]:
    """The entries of LAYER_METRICS that come from spans; a span that never
    occurred reads 0."""
    span_names = {target[2] for target in TARGETS}
    empty = _new_entry()
    values = {}
    for metric in LAYER_METRICS:
        span_name, _, field = metric.rpartition(".")
        if span_name not in span_names:
            continue
        entry = stats.get(span_name, empty)
        calls = entry["calls"]
        if field == "distinct":
            values[metric] = entry["distinct"] / calls if calls else 0.0
        elif field == "p50_ms":
            values[metric] = 1000 * _quantile(entry["durations"], 0.50)
        elif field == "p99_ms":
            values[metric] = 1000 * _quantile(entry["durations"], 0.99)
        else:
            values[metric] = entry[field]
    return values


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of top-level packages, from the output of
    ``python -X importtime``."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line.split(":", 1)[1].split("|")]
        name = parts[2]
        if name in ("deepa2", "requests", "numpy") and parts[1].isdigit():
            found[name] = int(parts[1]) / 1e6
    return found
