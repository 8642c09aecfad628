"""The trace codec: what ``read_finals`` keeps of the lines ``trace_lines``
writes, of older lines, and which lines it refuses."""

import json
import re

import pytest

from deepa2.chains import ChainResult, TraceStep
from deepa2.dimensions import DimensionId
from deepa2.errors import DeepA2Error
from deepa2.traces import TraceFinal, read_finals, trace_lines

AWKWARD = 'Zoë said "no" \\ then\nleft  — ½ \t \x01 end'

RESULTS = [
    ChainResult(
        3, "r-ü\"1",
        {DimensionId.SOURCE: AWKWARD, DimensionId.ARGDOWN: AWKWARD + "!"},
        (TraceStep("S => A", AWKWARD + "!"),),
    ),
    ChainResult(4, "r-ü\"1", {DimensionId.SOURCE: AWKWARD}, (), error="HTTP 500\n"),
    ChainResult(1, None, {}, (), error=""),
]


def finals_of(results) -> list[TraceFinal]:
    return [TraceFinal(r.chain_id, r.record_id, r.final, r.error) for r in results]


def test_read_finals_keeps_all_but_the_steps(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(trace_lines(RESULTS)) + "\n  \n", encoding="utf-8")
    assert list(read_finals(path)) == finals_of(RESULTS)


def old_format_line(result: ChainResult) -> str:
    """A line as earlier writers wrote it: steps with their inputs, keys in
    another order, compact separators and escaped non-ASCII text."""
    data = result.to_dict()
    data["steps"] = [{"inputs": {"source": "..."}, **s} for s in data["steps"]]
    return json.dumps(dict(reversed(data.items())), separators=(",", ":")) + "\n"


def test_old_format_lines_read_the_same(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(map(old_format_line, RESULTS)), encoding="utf-8")
    assert list(read_finals(path)) == finals_of(RESULTS)


def test_absent_optional_fields(tmp_path):
    path = tmp_path / "traces.jsonl"
    path.write_text('{"chain_id": 2}\n', encoding="utf-8")
    assert list(read_finals(path)) == [TraceFinal(2, None, {}, None)]


@pytest.mark.parametrize("line", [
    '{"chain_id": 1, "final": ',
    '[1, 2]',
    '{"record_id": "r", "final": {}}',
    '{"chain_id": "2", "record_id": "r", "final": {}}',
    '{"chain_id": true, "record_id": "r", "final": {}}',
    '{"chain_id": 2.0, "record_id": "r", "final": {}}',
    '{"chain_id": 1, "record_id": 7, "final": {}}',
    '{"chain_id": 1, "record_id": "r", "final": ["source"]}',
    '{"chain_id": 1, "record_id": "r", "final": {"sauce": "x"}}',
    '{"chain_id": 1, "record_id": "r", "final": {"argdown": null}}',
    '{"chain_id": 1, "record_id": "r", "final": {}, "error": {"code": 500}}',
], ids=["truncated", "not-an-object", "no-chain-id", "string-chain-id", "bool-chain-id",
        "float-chain-id", "number-record-id", "list-final", "unknown-dimension",
        "null-final-value", "object-error"])
def test_malformed_line_names_its_position(tmp_path, line):
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(trace_lines(RESULTS[:1])) + "\n" + line + "\n",
                    encoding="utf-8")
    finals = read_finals(path)
    assert next(finals) == finals_of(RESULTS[:1])[0]
    with pytest.raises(DeepA2Error, match="^" + re.escape(f"{path}:3: malformed trace line")):
        next(finals)
