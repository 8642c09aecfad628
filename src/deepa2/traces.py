"""Trace files: the one codec between ``run`` and ``eval``.

Each line of a traces file is one chain on one record::

    {"chain_id": 9, "record_id": "...", "final": {"source": "...", ...},
     "steps": [{"mode": "S => A", "output": "..."}, ...], "error": null}

``trace_lines`` writes a record's ``ChainResult``s as such lines, encoding
each distinct text and each distinct step once.  ``read_finals`` reads a
file back for scoring: it keeps each line's chain id, record id, final
dictionary and error, and builds no step, so ``eval`` loads neither
``deepa2.chains`` nor ``deepa2.modes``.  The steps of older files may carry
an ``inputs`` field; the reader skips steps whatever they hold.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from deepa2.dimensions import DimensionId
from deepa2.errors import DeepA2Error
from deepa2.records import encode_json

if TYPE_CHECKING:
    from deepa2.chains import ChainResult


def trace_lines(results: Iterable[ChainResult]) -> list[str]:
    """Each result's line, ``json.dumps(result.to_dict(), ensure_ascii=False)``
    plus a newline, byte for byte.

    Each distinct text and each distinct step is encoded once per call, so
    one record's results, which share most of their texts, go in one call.
    """
    texts: dict[str, str] = {}
    fragments: dict[tuple[str, str], str] = {}

    def text(value: str) -> str:
        encoded = texts.get(value)
        if encoded is None:
            encoded = texts[value] = encode_json(value)
        return encoded

    lines = []
    for result in results:
        final = ", ".join(
            [f"{text(d.keyword)}: {text(value)}" for d, value in result.final.items()]
        )
        steps = []
        for step in result.trace:
            key = (step.mode_label, step.output)
            fragment = fragments.get(key)
            if fragment is None:
                fragment = fragments[key] = (
                    f'{{"mode": {text(step.mode_label)}, "output": {text(step.output)}}}'
                )
            steps.append(fragment)
        record_id = "null" if result.record_id is None else text(result.record_id)
        error = "null" if result.error is None else text(result.error)
        lines.append(
            f'{{"chain_id": {result.chain_id}, "record_id": {record_id}, '
            f'"final": {{{final}}}, "steps": [{", ".join(steps)}], "error": {error}}}\n'
        )
    return lines


class TraceFinal(NamedTuple):
    """What ``eval`` reads of one trace line: the fields of a ``ChainResult``
    other than its steps."""

    chain_id: int
    record_id: str | None
    final: dict[DimensionId, str]
    error: str | None


def _trace_final(data: object) -> TraceFinal:
    """The scored fields of one decoded line; ValueError names the first
    field of the wrong type.  ``record_id`` and ``error`` may be null or
    absent, and an absent ``final`` is empty."""
    if type(data) is not dict:
        raise ValueError("not a JSON object")
    chain_id = data.get("chain_id")
    if type(chain_id) is not int:  # a bool is not a chain id
        raise ValueError(f"chain_id must be an integer, got {type(chain_id).__name__}")
    record_id = data.get("record_id")
    if record_id is not None and type(record_id) is not str:
        raise ValueError(f"record_id must be a string or null, got {type(record_id).__name__}")
    error = data.get("error")
    if error is not None and type(error) is not str:
        raise ValueError(f"error must be a string or null, got {type(error).__name__}")
    final = data.get("final", {})
    if type(final) is not dict:
        raise ValueError(f"final must be an object, got {type(final).__name__}")
    final = {DimensionId.from_keyword(keyword): text for keyword, text in final.items()}
    for dim, text in final.items():
        if type(text) is not str:
            raise ValueError(f"final {dim.keyword} must be a string, got {type(text).__name__}")
    return TraceFinal(chain_id, record_id, final, error)


def read_finals(path) -> Iterator[TraceFinal]:
    """The traces of a file, one per non-blank line, in order.

    A line that is not JSON, or whose fields have the wrong type, raises
    DeepA2Error ``<path>:<line>: malformed trace line``.  The file is read
    as a stream, so a line is read only when the previous trace has been
    consumed."""
    loads = json.loads
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                trace = _trace_final(loads(line))
            except ValueError as err:
                raise DeepA2Error(f"{path}:{number}: malformed trace line ({err})") from None
            yield trace
