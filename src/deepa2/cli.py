"""Command-line surface for batch pipelines.

All stages communicate through files so each is independently re-runnable:
``generate`` writes a corpus, ``run`` executes chains against a backend and
writes traces, ``eval`` scores traces against the corpus, and
``export-training`` emits sequence-to-sequence pairs.

Exit codes: 0 success, 2 configuration/usage error, 3 backend failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import tempfile
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from deepa2.errors import (
    BackendError,
    ChainDefinitionError,
    ConfigError,
    DeepA2Error,
    UndefinedMetricError,
)

# Each stage imports the modules it needs when it runs, so that a stage (or
# ``--help``) does not pay for loading the others.
if TYPE_CHECKING:
    from deepa2.backends import GenerationRequest, ModelBackend
    from deepa2.chains import ChainResult, ChainSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_VALIDATION = 4

ENV_TIMEOUT_MS = "DEEPA2_TIMEOUT_MS"


def _log(level: str, message: str) -> None:
    """Log one message at ``level`` ("warning", "error") on the ``deepa2``
    logger, which writes ``LEVEL message`` to stderr.  ``logging`` is
    imported here, so a stage that has nothing to say does not load it."""
    import logging

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    getattr(logging.getLogger("deepa2"), level)(message)


class _CountingBackend:
    """Counts the requests one record's chains send to the backend."""

    def __init__(self, backend: ModelBackend):
        self._backend = backend
        self.calls = 0

    def generate(self, request: GenerationRequest) -> str:
        self.calls += 1
        return self._backend.generate(request)


def _atomic_write(path: Path, write) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_lines(path: Path, lines) -> None:
    def write(fh):
        for line in lines:
            fh.write(line)

    _atomic_write(path, write)


def _atomic_write_json(path: Path, payload) -> None:
    _atomic_write(path, lambda fh: json.dump(payload, fh, indent=2))


def _timeout_ms() -> float:
    text = os.environ.get(ENV_TIMEOUT_MS, "30000")
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{ENV_TIMEOUT_MS} must be a finite number > 0, got {text!r}")
    return value


def _parse_chains(text: str) -> list[ChainSpec]:
    from deepa2.chains import chain_by_id, chain_catalog

    if text.strip() == "all":
        return chain_catalog()
    try:
        ids = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse chain ids from {text!r}") from None
    if not ids:
        raise ConfigError("no chain ids given")
    return [chain_by_id(chain_id) for chain_id in ids]


def cmd_generate(args) -> int:
    import hashlib
    from collections import Counter

    from deepa2.generator import GeneratorConfig, generate_corpus, subset_census
    from deepa2.records import corpus_line

    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = GeneratorConfig.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from err
    else:
        config = GeneratorConfig.preset(args.preset)

    out = Path(args.out)
    if args.n == 0:
        _log("warning", "n=0: writing an empty corpus and an all-zero census")
    rejections: Counter = Counter()
    records = generate_corpus(config, args.n, seed=args.seed, rejections=rejections)
    _atomic_write_lines(out, map(corpus_line, records))
    census = subset_census(records)
    census_path = Path(args.census) if args.census else out.with_suffix(
        out.suffix + ".census.json"
    )
    _atomic_write_json(census_path, census)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()[:12]
    print(f"wrote {len(records)} records to {out} (sha256 {digest})")
    print(f"census: {census}")
    attempts = len(records) + sum(rejections.values())
    rejected = ", ".join(f"{name} {count}" for name, count in rejections.most_common())
    print(f"attempts {attempts} (rejected: {rejected or 'none'})")
    return EXIT_OK


def cmd_run(args) -> int:
    from deepa2.backends import HttpBackend, make_backend
    from deepa2.chains import formalized, run_chains
    from deepa2.dimensions import DimensionId
    from deepa2.records import load_corpus
    from deepa2.traces import trace_lines

    chains = _parse_chains(args.chains)
    # The oracle backends look each record up by its id.
    oracle = args.backend == "oracle" or args.backend.startswith("noisy:")
    records = load_corpus(args.corpus, ids_required=oracle)
    timeout_ms = _timeout_ms()
    backend = make_backend(
        args.backend,
        records,
        seed=args.seed,
        timeout=timeout_ms / 1000.0,
        max_in_flight=args.jobs,
    )
    if args.with_formalization:
        chains = [formalized(chain) for chain in chains]

    def execute(record) -> tuple[list[ChainResult], int]:
        counted = _CountingBackend(backend)
        source = record.texts.get(DimensionId.SOURCE, "")
        results = run_chains(chains, source, counted, record.meta.record_id)
        return results, counted.calls

    # A record is the unit of parallel work: its chains share one request
    # memo, so each distinct request reaches the backend once.
    try:
        if args.jobs > 1:
            # Imported here: concurrent.futures loads logging with it.
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=args.jobs) as executor:
                per_record = list(executor.map(execute, records))
        else:
            per_record = [execute(record) for record in records]
    finally:
        if isinstance(backend, HttpBackend):
            backend.close()
    results = [result for chain_results, _ in per_record for result in chain_results]
    calls = sum(n for _, n in per_record)
    steps = sum(len(r.trace) for r in results)

    failed = [r for r in results if r.error]
    # One record's results share most of their texts: each distinct one is
    # encoded once per record.
    _atomic_write_lines(
        Path(args.out),
        (line for chain_results, _ in per_record for line in trace_lines(chain_results)),
    )
    print(
        f"wrote {len(results)} traces to {args.out} ({len(failed)} failed; "
        f"{calls} backend calls for {steps} steps)"
    )
    if failed:
        _log("error", f"backend failures on {len(failed)} traces (first: {failed[0].error})")
        return EXIT_BACKEND
    return EXIT_OK


def cmd_eval(args) -> int:
    from deepa2.evaluation import (
        SCORED_DIMENSIONS,
        aggregate_table,
        evaluate_traces,
        render_table,
        trace_record,
    )
    from deepa2.records import load_corpus
    from deepa2.traces import read_finals

    # The scored dimensions are parsed here, so that a malformed one is
    # reported with its corpus line; their parses are the metric suite's.
    corpus = {
        r.meta.record_id: r for r in load_corpus(args.corpus, views=SCORED_DIMENSIONS)
    }
    counts = {"traces": 0, "failed": 0}

    def usable_traces():
        # Streamed: a trace is read, scored and dropped before the next
        # line is read; failed traces are counted and skipped, and one that
        # joins no corpus record is refused with its line.
        for trace in read_finals(args.traces):
            counts["traces"] += 1
            if trace.error:
                counts["failed"] += 1
                continue
            try:
                trace_record(trace, corpus)
            except DeepA2Error as err:
                line = _nonblank_line_number(args.traces, counts["traces"])
                raise DeepA2Error(f"{args.traces}:{line}: {err}") from None
            yield trace

    try:
        rows = evaluate_traces(usable_traces(), corpus)
    except UndefinedMetricError:
        if not counts["traces"]:
            raise DeepA2Error("traces file is empty") from None
        raise
    out = Path(args.out)
    _atomic_write_lines(out, _metric_lines(rows))
    table = aggregate_table(rows, corpus)
    aggregate_path = out.with_suffix(out.suffix + ".aggregate.json")
    _atomic_write_json(aggregate_path, table)
    print(render_table(table))
    # Rows of one distinct analysis share its report (see evaluate_traces).
    analyses = len({id(row.report) for row in rows})
    print(
        f"wrote metrics for {len(rows)} traces to {out} ({counts['failed']} failed "
        f"traces skipped; {analyses} distinct analyses evaluated) and aggregate "
        f"to {aggregate_path}"
    )
    return EXIT_OK


def _nonblank_line_number(path, index: int) -> int:
    """The line number of the index-th non-blank line of a file, which holds
    the index-th trace that ``read_finals`` yields."""
    with open(path, encoding="utf-8") as fh:
        numbers = (number for number, line in enumerate(fh, 1) if line.strip())
        return next(islice(numbers, index - 1, None))


def _metric_lines(rows) -> Iterator[str]:
    """Each row's line, ``json.dumps(row.to_dict(), ensure_ascii=False)`` plus
    a newline, byte for byte.

    Rows of one distinct analysis share its report, so each report is
    encoded once; a row's ids go in front of its report's members, which
    are never empty."""
    from deepa2.records import encode_json

    bodies: dict[int, str] = {}
    for row in rows:
        body = bodies.get(id(row.report))
        if body is None:
            body = bodies[id(row.report)] = encode_json(row.report.to_flat_dict())[1:]
        yield (
            f'{{"record_id": {encode_json(row.record_id)}, "chain_id": {row.chain_id}, '
            f"{body}\n"
        )


def cmd_export_training(args) -> int:
    from deepa2.chains import export_training
    from deepa2.records import encode_json, load_corpus

    records = load_corpus(args.corpus)
    weights = {"aaac": "aaac", "entailment-bank": "entailment_bank"}[args.weights]
    pairs = export_training(records, weights=weights, n_per_record=args.n, seed=args.seed)
    # The bytes of json.dumps({"input": src, "target": tgt}, ensure_ascii=False).
    _atomic_write_lines(
        Path(args.out),
        (f'{{"input": {encode_json(src)}, "target": {encode_json(tgt)}}}\n' for src, tgt in pairs),
    )
    print(f"wrote {len(pairs)} sequence-to-sequence pairs to {args.out}")
    return EXIT_OK


def _int_at_least(minimum: int):
    """An argparse ``type``: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepa2",
        description="Deep argument analysis toolkit: corpus generation, "
        "generative chains, and reconstruction metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic corpus")
    p.add_argument("--preset", default="aaac01", help="config preset (aaac01, aaac02)")
    p.add_argument("--config", help="JSON generator-config file (overrides --preset)")
    p.add_argument("-n", type=_int_at_least(0), required=True, help="number of records")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="corpus JSON-lines path")
    p.add_argument("--census", help="census JSON path (default: <out>.census.json)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="execute generative chains over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--chains", default="all", help='comma-separated ids or "all"')
    p.add_argument(
        "--backend",
        default="oracle",
        help="oracle | noisy:<rate> | http(s)://host:port",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--with-formalization", action="store_true",
                   help="append the formalization sub-chain")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--out", required=True, help="traces JSON-lines path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="apply the metric suite to traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="per-record metrics JSON-lines path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-training", help="emit seq2seq training pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--weights", choices=("aaac", "entailment-bank"), default="aaac")
    p.add_argument("-n", type=_int_at_least(0), default=14, help="pairs per record")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_training)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_CONFIG if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, ChainDefinitionError) as err:
        _log("error", str(err))
        return EXIT_CONFIG
    except BackendError as err:
        _log("error", f"backend: {err}")
        return EXIT_BACKEND
    except (DeepA2Error, OSError) as err:
        _log("error", str(err))
        return EXIT_VALIDATION


def entry() -> None:
    """The process entry, for ``python -m deepa2.cli`` and the ``deepa2``
    script: ``main`` with the command line, then exit with its code.

    Every file, pool and connection is closed when ``main`` returns.  The
    heap is frozen then, so the interpreter's last garbage collection skips
    the objects (memos included) that the process's exit frees anyway."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
