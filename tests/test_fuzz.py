"""Seeded fuzz of every stage's input files.

Each case mutates one value of a well-formed input: a corpus line (read by
``run``, ``eval`` and ``export-training``), a trace line (``eval``), a
``generate --config`` file, or an entailment-tree row
(``load_entailmentbank``).  A mutation puts a null, a number, a boolean, a
list, an object, ``""`` or a multi-line string in place of a field or
``meta`` value, drops the field, or splices ``|``, ``\\``, ``(ref: (0))`` or
a line break into a text.  Every stage must then exit 0, 2, 3 or 4 without
a traceback, and every exit 4 and every ``ImportFormatError`` must name the
file and line at fault.
"""

import json
import random
import re

import pytest

from deepa2.cli import EXIT_BACKEND, EXIT_CONFIG, EXIT_OK, EXIT_VALIDATION, main
from deepa2.errors import ImportFormatError
from deepa2.generator import GeneratorConfig
from deepa2.importers import load_entailmentbank

HOSTILE_VALUES = [
    None, 0, -1, 7, 1.5, 1e308, True, False, [], [1, "a"], {}, {"a": None}, "",
    "two\nlines", "three\r\nlines\nhere",
]
SPLICES = ["|", "\\", "(ref: (0))", "\n", "\r\n"]

EB_ROW = {
    "id": "x1",
    "sentences": {"s1": "copper is a metal", "s2": "metals conduct electricity",
                  "s3": "the sky is blue"},
    "distractors": ["s3"],
    "hypothesis": "copper conducts electricity",
    "steps": [{"from": ["s1", "s2"], "id": "int1", "text": "copper is a conductor"},
              {"from": ["int1"], "id": "hypothesis"}],
}


def _paths(value, path=()):
    """The path of every value nested in ``value``, the root excepted."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


def mutate(data, rng: random.Random):
    """A copy of the decoded JSON ``data`` with one value changed, and what
    was changed."""
    data = json.loads(json.dumps(data))
    path = rng.choice(list(_paths(data)))
    *parents, key = path
    holder = data
    for step in parents:
        holder = holder[step]
    old, where = holder[key], ".".join(map(str, path))
    roll = rng.random()
    if isinstance(old, str) and roll < 0.5:
        at = rng.randrange(len(old) + 1)
        holder[key] = old[:at] + rng.choice(SPLICES) + old[at:]
    elif isinstance(holder, dict) and roll < 0.6:
        del holder[key]
        return data, f"{where}: {old!r} dropped"
    else:
        holder[key] = rng.choice(HOSTILE_VALUES)
    return data, f"{where}: {old!r} -> {holder[key]!r}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A two-record corpus and its traces under chain 1 with formalization."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus, traces = root / "corpus.jsonl", root / "traces.jsonl"
    assert main(["generate", "-n", "2", "--seed", "5", "--out", str(corpus)]) == EXIT_OK
    assert main(["run", "--corpus", str(corpus), "--chains", "1", "--with-formalization",
                 "--out", str(traces)]) == EXIT_OK
    return corpus.read_text().splitlines(), traces.read_text().splitlines()


def _write_lines(path, rows, number, row):
    """Write rows as JSON lines, with row ``number`` replaced by ``row``."""
    lines = [json.dumps(row if i == number else r) for i, r in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")


class _Stages:
    """Runs stages in-process and checks each exit against the contract."""

    def __init__(self, caplog):
        self.caplog = caplog
        self.codes = []

    def run(self, what: str, argv: list[str], files: list) -> int:
        self.caplog.clear()
        try:
            code = main(argv)
        except Exception as err:  # a traceback: the contract is broken
            pytest.fail(f"{argv[0]} after {what} raised {err!r}")
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BACKEND, EXIT_VALIDATION), what
        if code == EXIT_VALIDATION:
            located = "|".join(re.escape(str(path)) for path in files)
            assert re.search(rf"({located}):\d+: ", self.caplog.text), (
                f"{argv[0]} after {what}: {self.caplog.text}")
        self.codes.append(code)
        return code


def test_mutated_inputs_end_every_stage_in_a_known_exit(tmp_path, inputs, caplog):
    rng = random.Random(20)
    stages = _Stages(caplog)
    corpus_rows = [json.loads(line) for line in inputs[0]]
    trace_rows = [json.loads(line) for line in inputs[1]]
    corpus, traces = tmp_path / "corpus.jsonl", tmp_path / "traces.jsonl"
    clean_traces = "\n".join(inputs[1]) + "\n"
    out = str(tmp_path / "out.jsonl")

    for _ in range(80):
        number = rng.randrange(len(corpus_rows))
        row, what = mutate(corpus_rows[number], rng)
        what = f"corpus line {number + 1} {what}"
        _write_lines(corpus, corpus_rows, number, row)
        traces.write_text(clean_traces)
        files = [corpus, traces]
        stages.run(what, ["run", "--corpus", str(corpus), "--chains", "1",
                          "--with-formalization", "--out", str(traces)], files)
        traces.write_text(clean_traces)
        stages.run(what, ["eval", "--traces", str(traces), "--corpus", str(corpus),
                          "--out", out], files)
        stages.run(what, ["export-training", "--corpus", str(corpus), "-n", "2",
                          "--out", out], files)

    corpus.write_text("\n".join(inputs[0]) + "\n")
    for _ in range(200):
        number = rng.randrange(len(trace_rows))
        row, what = mutate(trace_rows[number], rng)
        _write_lines(traces, trace_rows, number, row)
        stages.run(f"trace line {number + 1} {what}",
                   ["eval", "--traces", str(traces), "--corpus", str(corpus), "--out", out],
                   [corpus, traces])

    config = tmp_path / "config.json"
    preset = GeneratorConfig.preset("aaac02").to_dict()
    for _ in range(60):
        data, what = mutate(preset, rng)
        config.write_text(json.dumps(data))
        stages.run(f"config {what}", ["generate", "--config", str(config), "-n", "2",
                                      "--out", out], [config])

    # Runs ended in success and in each refusal, so the cases reach past
    # the first input check.
    assert {EXIT_OK, EXIT_CONFIG, EXIT_VALIDATION} <= set(stages.codes)


def test_mutated_entailment_trees_are_imported_or_refused_with_their_line(tmp_path):
    rng = random.Random(21)
    path = tmp_path / "eb.jsonl"
    refused = 0
    for _ in range(500):
        row, what = mutate(EB_ROW, rng)
        _write_lines(path, [EB_ROW, EB_ROW], 1, row)
        try:
            load_entailmentbank(path)
        except ImportFormatError as err:
            assert str(err).startswith(f"{path}:2: "), what
            refused += 1
        except Exception as err:
            pytest.fail(f"{what} raised {err!r}")
    assert 0 < refused < 500
