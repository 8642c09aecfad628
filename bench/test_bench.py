"""Tests of the benchmark itself: every workload at a tiny size, the checker
against corrupted outputs, and the traced run's metric list.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import pytest

import checker
import run
import spans
from stub import Answerer
from workloads import NESTED_COUNTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
TINY = {"oracle-all-100": 2, "noisy-straight-400": 4, "http-all-2": 1,
        "nested-eval": len(NESTED_COUNTS)}


def tiny_bench(name: str, seed: int = 1) -> run.Bench:
    workload = dataclasses.replace(WORKLOADS[name], n=TINY[name])
    bench = run.Bench(ROOT, workload, seed, time.perf_counter())
    bench.prepare()
    return bench


def record_then_check(bench: run.Bench) -> run.Rep:
    """First pass records the digests, the second must match them."""
    first = bench.pipeline(traced=False)
    assert [p for p in first.problems if "digest" not in p] == []
    traces = checker.read_jsonl(bench.paths["traces"])
    bench.expected = checker.digests(bench.paths, traces)
    second = bench.pipeline(traced=False)
    assert second.problems == []
    return second


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_and_checks_at_tiny_size(name):
    bench = tiny_bench(name)
    try:
        rep = record_then_check(bench)
        w = bench.workload
        assert rep.failed == 0
        assert rep.attempted == 4 + w.n * len(w.chains)
        assert all(r.code == 0 and r.peak_rss_mb > 0 for r in rep.stages.values())
        assert rep.model_calls > 0
    finally:
        bench.close()


def test_checker_rejects_flipped_values_and_accepts_format_changes():
    bench = tiny_bench("nested-eval")
    try:
        record_then_check(bench)
        traces = checker.read_jsonl(bench.paths["traces"])

        # Dropping what a trace stores besides mode and output still passes.
        slim = [dict(t, steps=[{"mode": s["mode"], "output": s["output"]} for s in t["steps"]])
                for t in traces]
        assert checker.check_outputs(bench.paths, slim, bench.expected,
                                     bench.replayed, bench.verdicts) == []

        # One step output changed: the digest and the replay both object.
        bad = json.loads(json.dumps(traces))
        bad[0]["steps"][-1]["output"] += " "
        problems = checker.check_outputs(bench.paths, bad, bench.expected,
                                         bench.replayed, bench.verdicts)
        assert any("traces: digest" in p for p in problems)
        assert any("replay" in p for p in problems)

        # One metric value flipped: the digest and the known verdict object.
        rows = checker.read_jsonl(bench.paths["metrics"])
        rows[0]["sys_val"] = 1 - rows[0]["sys_val"]
        bench.paths["metrics"].write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        problems = checker.check_outputs(bench.paths, traces, bench.expected,
                                         bench.replayed, bench.verdicts)
        assert any("metrics: digest" in p for p in problems)
        assert any("known verdict" in p for p in problems)
    finally:
        bench.close()


def test_nested_verdicts_alternate_over_seeds():
    seen = set()
    for seed in (0, 1):
        bench = tiny_bench("nested-eval", seed)
        try:
            seen |= {(seed, v) for v in bench.verdicts.values()}
        finally:
            bench.close()
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def _traced(name: str) -> dict:
    bench = tiny_bench(name)
    try:
        bench.expected = {}
        result = run.measure(bench, seconds=0, trace=True)
    finally:
        bench.close()
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_traced_run_reports_every_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [m["name"] for m in declared["per_layer"]] == list(spans.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == spans.LAYER_METRICS
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)

    values = _traced("http-all-2")
    assert set(values) == set(spans.LAYER_METRICS)
    assert values["stub.posts"] == values["backends.generate.calls"] > 0
    assert values["backends.generate.errors"] == 0
    assert values["metrics.default_scorer.calls"] > 0  # bound as a default argument
    assert values["formula.parse_formula.calls"] > 0  # bound by "from x import f"
    assert values["cli.main.self_s"] > 0


def test_nested_eval_reaches_the_decider():
    values = _traced("nested-eval")
    assert values["formula.check_satisfiable.calls"] > 0
    assert values["formula.check_entailment.p99_ms"] > 100


def test_stub_answers_from_the_intersection_of_inputs():
    records = [
        {"meta": {"record_id": "r2"}, "source": "s2", "argdown": "same", "premises": "p2"},
        {"meta": {"record_id": "r1"}, "source": "s1", "argdown": "same", "premises": "p1"},
    ]
    answerer = Answerer(records)
    assert answerer.answer("premises", {"source": "s2", "argdown": "same"}) == "p2"
    assert answerer.answer("premises", {"argdown": "same"}) == "p1"  # smallest id
    assert answerer.answer("premises", {"argdown": "unknown"}) == ""
