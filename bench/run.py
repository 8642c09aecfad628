"""Benchmark for the deepa2 CLI pipeline: generate -> run -> eval -> export.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Each CLI stage runs as ``python -m deepa2.cli`` in a fresh process, as a user
runs it, so process-wide caches start cold.  With ``--trace 0`` the pipeline
is repeated until S seconds have passed and every end-to-end metric is the
median over the repetitions.  With ``--trace 1`` untraced and traced
repetitions alternate; the traced ones wrap the program's module functions
in spans (see spans.py) and give the per-layer metrics.  Every repetition's
outputs are checked (see checker.py).  The last line of output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checker
import spans
from stub import Answerer, StubServer
from workloads import INPUT_SEEDS, STUB_DELAY_S, WORKLOADS, Workload, write_nested_corpus

BENCH_DIR = Path(__file__).resolve().parent
#: The whole run, set-up included, must end well inside 180 seconds.
DEADLINE_S = 165.0
#: Set-up samples taken before the first pass; one more precedes each pass.
SETUP_SAMPLES = 2

#: End-to-end metrics with their units.
END_TO_END = {
    "setup_s": "s",
    "generate_s": "s",
    "run_s": "s",
    "eval_s": "s",
    "export_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "traces_mb_per_corpus_mb": "MB/MB",
    "model_calls": "count",
    "ok_share": "share",
}


@dataclass
class StageRun:
    wall_s: float
    peak_rss_mb: float
    code: int
    start: float
    end: float


def spawn(argv: list[str], env: dict, log, timeout: float) -> StageRun:
    """Run one process to completion and read its own peak RSS (wait4 gives
    the rusage of exactly this child)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        timer.join()
    return StageRun(end - start, usage.ru_maxrss / 1024, proc.returncode, start, end)


@dataclass
class Rep:
    """One pass of the pipeline."""

    stages: dict[str, StageRun]
    traces_bytes: int
    corpus_bytes: int
    model_calls: int
    attempted: int
    failed: int
    problems: list[str]
    stub_service_s: list[float] = field(default_factory=list)
    span_dumps: list[dict] = field(default_factory=list)
    corpus_records: int = 0

    @property
    def pipeline_s(self) -> float:
        runs = self.stages.values()
        return max(r.end for r in runs) - min(r.start for r in runs)

    def end_to_end(self) -> dict[str, float]:
        return {
            "generate_s": self.stages["generate"].wall_s,
            "run_s": self.stages["run"].wall_s,
            "eval_s": self.stages["eval"].wall_s,
            "export_s": self.stages["export"].wall_s,
            "pipeline_s": self.pipeline_s,
            "peak_rss_mb": max(r.peak_rss_mb for r in self.stages.values()),
            "traces_mb_per_corpus_mb": self.traces_bytes / max(self.corpus_bytes, 1),
            "model_calls": self.model_calls,
        }


class Bench:
    """One workload at one input seed, in a scratch directory of the checkout."""

    def __init__(self, root: Path, workload: Workload, seed: int, started: float):
        self.workload = workload
        self.input_seed = seed % INPUT_SEEDS
        self.started = started
        self.work = root / ".bench_work" / f"{workload.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.log = open(self.work / "stages.log", "ab")
        pythonpath = [str(root / "src")]
        if os.environ.get("PYTHONPATH"):
            pythonpath.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.paths = {
            "corpus": self.work / "corpus.jsonl",
            "traces": self.work / "traces.jsonl",
            "metrics": self.work / "metrics.jsonl",
            "aggregate": self.work / "metrics.jsonl.aggregate.json",
            "pairs": self.work / "pairs.jsonl",
        }
        self.corpus_in = self.paths["corpus"]
        self.stub: StubServer | None = None
        self.verdicts: dict[str, int] | None = None
        self.replayed: list[tuple] | None = None
        self.expected: dict[str, str] = (
            json.loads(checker.EXPECTED_PATH.read_text("utf-8"))
            .get(workload.name, {})
            .get(str(self.input_seed), {})
        )

    # -- preparation -------------------------------------------------------

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def cli(self, args: list[str]) -> StageRun:
        argv = [sys.executable, "-m", "deepa2.cli", *args]
        return spawn(argv, self.env, self.log, self.remaining())

    def prepare(self) -> None:
        """Inputs the benchmark builds itself: the nested-family corpus, and
        the stub's index over the corpus it answers from."""
        w = self.workload
        if not (w.nested or w.backend == "stub"):
            return
        prepared = self.work / "prepared.jsonl"
        r = self.cli(self.stage_args(prepared)["generate"])
        if r.code != 0:
            raise RuntimeError(f"input preparation: generate exited {r.code}")
        if w.nested:
            self.corpus_in = self.work / "nested.jsonl"
            self.verdicts = write_nested_corpus(prepared, self.corpus_in, self.input_seed)
        if w.backend == "stub":
            self.stub = StubServer(Answerer(checker.read_jsonl(prepared)), STUB_DELAY_S).start()

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
        self.log.close()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def stage_args(self, corpus_out: Path) -> dict[str, list[str]]:
        w, seed, p = self.workload, str(self.input_seed), self.paths
        backend = self.stub.url if self.stub is not None else w.backend
        return {
            "generate": ["generate", "-n", str(w.n), "--seed", seed, "--preset", w.preset,
                         "--out", str(corpus_out)],
            "run": ["run", "--corpus", str(self.corpus_in), "--chains", w.chain_arg,
                    "--backend", backend, "--seed", seed, "--with-formalization",
                    "--jobs", str(w.jobs), "--out", str(p["traces"])],
            "eval": ["eval", "--traces", str(p["traces"]), "--corpus", str(self.corpus_in),
                     "--out", str(p["metrics"])],
            "export": ["export-training", "--corpus", str(self.corpus_in), "--seed", seed,
                       "--out", str(p["pairs"])],
        }

    # -- measurement -------------------------------------------------------

    def setup_sample(self) -> StageRun:
        """A fresh interpreter importing deepa2 and building the CLI."""
        return self.cli(["--help"])

    def import_times(self) -> dict[str, float]:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import deepa2.cli"],
            env=self.env, capture_output=True, text=True, timeout=max(self.remaining(), 1.0),
        )
        return spans.import_times(proc.stderr)

    def pipeline(self, traced: bool) -> Rep:
        stages = {}
        dumps = []
        for stage, args in self.stage_args(self.paths["corpus"]).items():
            if traced:
                span_file = self.work / f"spans-{stage}.json"
                argv = [sys.executable, str(BENCH_DIR / "traced_stage.py"), str(span_file),
                        stage, "--", *args]
                stages[stage] = spawn(argv, self.env, self.log, self.remaining())
                if span_file.exists():
                    dumps.append(json.loads(span_file.read_text("utf-8")))
                    span_file.unlink()
            else:
                stages[stage] = self.cli(args)
        service = self.stub.take() if self.stub is not None else []
        return self.check(stages, service, dumps)

    def check(self, stages: dict[str, StageRun], service: list[float], dumps: list[dict]) -> Rep:
        w = self.workload
        problems = [f"{s} exited {r.code}" for s, r in stages.items() if r.code != 0]
        failed = len(problems)
        expected_traces = w.n * len(w.chains)
        try:
            traces = checker.read_jsonl(self.paths["traces"])
            traces_bytes = self.paths["traces"].stat().st_size
            corpus_bytes = self.corpus_in.stat().st_size
            corpus_records = len(checker.read_jsonl(self.paths["corpus"]))
            if self.replayed is None and w.backend in ("oracle", "stub"):
                self.replayed = self.replay()
            problems += checker.check_outputs(
                self.paths, traces, self.expected, self.replayed, self.verdicts
            )
        except (OSError, ValueError, KeyError) as err:
            problems.append(f"outputs unreadable: {err!r}")
            traces, traces_bytes, corpus_bytes, corpus_records = [], 0, 0, 0
        failed += sum(1 for t in traces if t.get("error")) + max(0, expected_traces - len(traces))
        steps = sum(len(t["steps"]) for t in traces)
        return Rep(
            stages=stages,
            traces_bytes=traces_bytes,
            corpus_bytes=corpus_bytes,
            model_calls=len(service) if self.stub is not None else steps,
            attempted=len(stages) + expected_traces,
            failed=failed,
            problems=problems,
            stub_service_s=service,
            span_dumps=dumps,
            corpus_records=corpus_records,
        )

    def replay(self) -> list[tuple]:
        corpus = checker.read_jsonl(self.corpus_in)
        if self.stub is not None:
            answerer = self.stub.answerer

            def answer(_record_id, output, inputs):
                return answerer.answer(output, inputs)
        else:
            by_id = {r["meta"]["record_id"]: r for r in corpus}

            def answer(record_id, output, _inputs):
                return by_id[record_id][output]
        return checker.replay(corpus, self.workload.chains, answer)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(rep: Rep) -> dict[str, float]:
    values = spans.layer_values(spans.span_stats(rep.span_dumps))
    validations = values["generator.validate_record.calls"]
    values["generator.accept_ratio"] = rep.corpus_records / validations if validations else 0.0
    values["stub.posts"] = len(rep.stub_service_s)
    values["stub.service_p50_ms"] = 1000 * _median(rep.stub_service_s)
    return values


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Repeat the pipeline for the given seconds; return the result object."""
    clock = time.perf_counter()
    setup = [bench.setup_sample() for _ in range(SETUP_SAMPLES)]
    imports = bench.import_times() if trace else {}
    reps: list[Rep] = []
    traced_reps: list[Rep] = []
    while True:
        # Set-up samples spread over the run, so a slow spell of the machine
        # weighs on set-up and stage times alike.
        setup.append(bench.setup_sample())
        reps.append(bench.pipeline(traced=False))
        if trace:
            traced_reps.append(bench.pipeline(traced=True))
        elapsed = time.perf_counter() - clock
        pass_s = elapsed / len(reps)
        if elapsed + pass_s > seconds or bench.remaining() < 1.5 * pass_s + 5:
            break

    all_reps = reps + traced_reps
    problems = [f"--help exited {r.code}" for r in setup if r.code != 0]
    problems += [p for r in all_reps for p in r.problems]
    attempted = sum(r.attempted for r in all_reps) + len(setup)
    failed = sum(r.failed for r in all_reps) + sum(1 for r in setup if r.code != 0)

    if trace:
        per_rep = [layer_metrics(r) for r in traced_reps]
        values = {name: _median([v[name] for v in per_rep]) for name in per_rep[0]}
        for name in ("deepa2", "requests", "numpy"):
            values[f"import.{name}_s"] = imports.get(name, 0.0)
        untraced = _median([r.pipeline_s for r in reps])
        traced = _median([r.pipeline_s for r in traced_reps])
        values["trace.overhead_s"] = traced - untraced
        values["trace.overhead_share"] = (traced - untraced) / untraced
        units = spans.LAYER_METRICS
        samples = len(traced_reps)
    else:
        per_rep = [r.end_to_end() for r in reps]
        values = {name: _median([v[name] for v in per_rep]) for name in per_rep[0]}
        values["setup_s"] = _median([r.wall_s for r in setup])
        values["ok_share"] = 1 - failed / attempted
        units = END_TO_END
        samples = len(reps)

    for name in units:
        n = len(setup) if name == "setup_s" else samples
        print(f"{bench.workload.name:20} {name:42} {values[name]:14.6f} {units[name]:6} n={n}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(root, WORKLOADS[name], seed, time.perf_counter())
    try:
        bench.prepare()
        return measure(bench, seconds, trace)
    finally:
        bench.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "deepa2" / "cli.py").is_file():
        print(f"no deepa2 sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if not checker.EXPECTED_PATH.is_file():
        print(f"missing {checker.EXPECTED_PATH}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
