"""Output checks: reject wrong results, accept format-only changes.

Corpus, per-record metrics, aggregate table and export file are compared by
sha256 with digests recorded in ``expected.json``.  Traces are compared on
``(chain_id, record_id, final, [(mode, output), ...], error)`` only, so a
change to what else a trace stores still passes.  Where the benchmark knows
the right answer on its own (oracle and stub replays, nested-family
verdicts) it checks that as well.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable

from workloads import chain_modes

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Output files whose raw bytes are pinned, by role.
PINNED = ("corpus", "metrics", "aggregate", "pairs")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def canonical_trace(trace: dict) -> tuple:
    return (
        trace["chain_id"],
        trace["record_id"],
        tuple(sorted(trace["final"].items())),
        tuple((step["mode"], step["output"]) for step in trace["steps"]),
        trace.get("error"),
    )


def traces_digest(traces: list[dict]) -> str:
    lines = sorted(json.dumps(canonical_trace(t), ensure_ascii=False) for t in traces)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


Answer = Callable[[str, str, dict[str, str]], str]


def replay(corpus: list[dict], chain_ids: tuple[int, ...], answer: Answer) -> list[tuple]:
    """Canonical traces the program must produce when the backend answers
    ``answer(record_id, output_keyword, inputs)``."""
    out = []
    for record in corpus:
        record_id = record["meta"]["record_id"]
        for chain_id in chain_ids:
            work = {"source": record["source"]}
            steps = []
            for mode in chain_modes(chain_id):
                inputs = {k: work[k] for k in mode.inputs}
                work[mode.output] = answer(record_id, mode.output, inputs)
                steps.append((mode.label, work[mode.output]))
            out.append((chain_id, record_id, tuple(sorted(work.items())), tuple(steps), None))
    return out


def digests(paths: dict[str, Path], traces: list[dict]) -> dict[str, str]:
    found = {role: sha256_file(paths[role]) for role in PINNED}
    found["traces"] = traces_digest(traces)
    return found


def check_outputs(
    paths: dict[str, Path],
    traces: list[dict],
    expected: dict[str, str],
    replayed: list[tuple] | None = None,
    verdicts: dict[str, int] | None = None,
) -> list[str]:
    """Problems found in one pipeline's outputs; empty means correct."""
    problems = []
    for role, digest in digests(paths, traces).items():
        if digest != expected.get(role):
            problems.append(f"{role}: digest {digest[:12]} differs from the recorded one")
    failed = [t for t in traces if t.get("error")]
    if failed:
        problems.append(f"{len(failed)} traces carry an error, first: {failed[0]['error']}")
    if replayed is not None:
        got = sorted(canonical_trace(t) for t in traces)
        if got != sorted(replayed):
            problems.append("traces differ from the replay of the backend's answers")
    if verdicts is not None:
        rows = read_jsonl(paths["metrics"])
        wrong = [r["record_id"] for r in rows if r["sys_val"] != verdicts.get(r["record_id"])]
        if wrong or not rows:
            problems.append(f"sys_val contradicts the known verdict for {sorted(set(wrong))}")
    return problems
