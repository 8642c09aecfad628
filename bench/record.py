"""Record the output digests the checker compares against.

Usage, from the repository root:  python3 bench/record.py [WORKLOAD ...]

Runs one pipeline per workload and input seed and writes bench/expected.json.
Run it only when a change alters the program's outputs on purpose, and say
why in that change.  Digests are recorded only for pipelines that pass every
other check (replays, known verdicts, no failed traces or stages).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import checker
from run import Bench
from workloads import INPUT_SEEDS, WORKLOADS


def record(root: Path, name: str, input_seed: int) -> dict[str, str]:
    bench = Bench(root, WORKLOADS[name], input_seed, time.perf_counter())
    try:
        bench.prepare()
        rep = bench.pipeline(traced=False)
        problems = [p for p in rep.problems if "digest" not in p]
        if problems:
            raise SystemExit(f"{name} seed {input_seed}: {problems}")
        return checker.digests(bench.paths, checker.read_jsonl(bench.paths["traces"]))
    finally:
        bench.close()


def main(argv: list[str]) -> int:
    root = Path.cwd()
    path = checker.EXPECTED_PATH
    expected = json.loads(path.read_text("utf-8")) if path.exists() else {}
    for name in argv or list(WORKLOADS):
        expected[name] = {str(s): record(root, name, s) for s in range(INPUT_SEEDS)}
        print(f"recorded {name}", flush=True)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
