"""The multi-angular record model and its plain-text serialization.

Every dimension serializes to a flat string: list-valued dimensions join
their items with `` | `` (escaped as ``\\|`` inside item text) and attach
statement references as `` (ref: (n))``; the key dimension renders as
``F: phrase | G: phrase``.  Corpus files are JSON lines, one record per
line, with the nine dimension keywords plus ``meta`` as field names.

A record renders its dimensions once: ``DeepA2Record.texts`` holds each
present dimension's wire text, and every serializer (``serialize_dimension``,
``record_to_dict``, the oracle backends, metrics work dicts and training
export) reads it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Iterator

from deepa2.argdown import ArgdownArgument, parse_argdown, render_argdown
from deepa2.dimensions import FORMULA_DIMENSIONS, LIST_DIMENSIONS, DimensionId
from deepa2.errors import DeepA2Error, DimensionParseError, MissingDimensionError
from deepa2.formula import parse_formula
from deepa2.memo import process_memo
from deepa2.textnorm import normalize_ws


@dataclass(frozen=True)
class QuotedStatement:
    """A statement string with an optional reference to a statement number."""

    text: str
    ref: int | None = None

    def __post_init__(self):
        if self.ref is not None and self.ref < 1:
            raise ValueError(f"ref must be a positive integer, got {self.ref}")


@dataclass(frozen=True)
class RecordMeta:
    """Construction facts about a record, used for subset classification."""

    record_id: str | None = None
    n_inference_steps: int = 0
    n_implicit_premises: int = 0
    n_implicit_conclusions: int = 0
    final_conclusion_explicit: bool = True
    n_distractors: int = 0
    uses_complex_schemes: bool = False
    domain_tag: str = ""
    label: str | None = None

    def __post_init__(self):
        for name in ("n_inference_steps", "n_implicit_premises",
                     "n_implicit_conclusions", "n_distractors"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v for k, v in data.items() if v is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "RecordMeta":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class DeepA2Record:
    """One comprehensive argumentative analysis.  Each dimension's field is
    named by its ``DimensionId.keyword``; dimensions may be absent (None)
    while a record is being filled in."""

    source: str | None = None
    reasons: tuple[QuotedStatement, ...] | None = None
    conjectures: tuple[QuotedStatement, ...] | None = None
    argdown: ArgdownArgument | None = None
    premises: tuple[QuotedStatement, ...] | None = None
    conclusion: tuple[QuotedStatement, ...] | None = None
    premises_form: tuple[QuotedStatement, ...] | None = None
    conclusion_form: tuple[QuotedStatement, ...] | None = None
    keys: tuple[tuple[str, str], ...] | None = None
    meta: RecordMeta = field(default_factory=RecordMeta)

    def __post_init__(self):
        for name in ("conclusion", "conclusion_form"):
            value = getattr(self, name)
            if value is not None and len(value) != 1:
                raise ValueError(f"{name} must hold exactly one statement when present")

    def get(self, dim: DimensionId):
        return getattr(self, dim.keyword)

    def has(self, dim: DimensionId) -> bool:
        return self.get(dim) is not None

    def present_dimensions(self) -> list[DimensionId]:
        return [d for d in DimensionId if self.has(d)]

    @cached_property
    def texts(self) -> dict[DimensionId, str]:
        """Each present dimension's wire text, in ``DimensionId`` order.

        Rendered on first access and kept on the instance, so a pickled
        record carries its texts.  It is not a field: ``==`` and ``hash``
        ignore it.  Every reader shares the dict; none may change it."""
        texts = {}
        for dim in DimensionId:
            value = self.get(dim)
            if value is not None:
                texts[dim] = _render(dim, value)
        return texts


# ---------------------------------------------------------------------------
# Dimension serialization
# ---------------------------------------------------------------------------

_REF_SUFFIX_RE = re.compile(r"\s*\(ref:\s*\((\d+)\)\)\s*$")
_KEY_ITEM_RE = re.compile(r"^([A-Z]):\s*(.*)$")


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("|", "\\|")


def _unescape(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text)


def _split_items(text: str) -> list[str]:
    # Escaping guarantees item texts never contain the " | " separator.
    if not text.strip():
        return []
    return text.split(" | ")


def serialize_statements(items: Iterable[QuotedStatement]) -> str:
    parts = []
    for item in items:
        part = _escape(item.text)
        if item.ref is not None:
            part += f" (ref: ({item.ref}))"
        parts.append(part)
    return " | ".join(parts)


def parse_statements(text: str, validate_formulas: bool = False) -> tuple[QuotedStatement, ...]:
    """The items of a list dimension; raises DimensionParseError at the offset
    of the first malformed item.

    Each distinct well-formed text is parsed once per process, without
    formula checks, and a malformed one again on each call;
    ``validate_formulas`` then parses each item with the memoized
    ``parse_formula``, so validated and unvalidated calls share one entry."""
    try:
        items = _parse_statements(text)
    except DimensionParseError as err:
        if validate_formulas and err.position:
            # Items are checked in order, so a bad formula in an item before
            # the malformed one is the error to report.  Those items are the
            # text up to the separator in front of the malformed item.
            parse_statements(text[: err.position - 3], validate_formulas=True)
        raise
    if validate_formulas:
        offset = 0
        for item, raw in zip(items, _split_items(text)):
            try:
                parse_formula(item.text)
            except DimensionParseError as err:
                raise DimensionParseError(
                    f"bad formula {item.text!r}: {err}", offset
                ) from err
            offset += len(raw) + 3
    return items


@process_memo
def _parse_statements(text: str) -> tuple[QuotedStatement, ...]:
    """The items of a list dimension, without formula checks; statement
    tuples are frozen, so every caller shares one."""
    items = []
    offset = 0
    for raw in _split_items(text):
        m = _REF_SUFFIX_RE.search(raw)
        ref = None
        body = raw
        if m:
            ref = int(m.group(1))
            if ref < 1:
                raise DimensionParseError(
                    f"statement reference must be positive, got {ref}", offset
                )
            body = raw[: m.start()]
        body = normalize_ws(_unescape(body))
        if not body:
            raise DimensionParseError("empty statement text", offset)
        items.append(QuotedStatement(body, ref))
        offset += len(raw) + 3
    return tuple(items)


def serialize_dimension(record: DeepA2Record, dim: DimensionId) -> str:
    """One dimension's plain-text wire format, from the record's ``texts``."""
    try:
        return record.texts[dim]
    except KeyError:
        raise MissingDimensionError(f"dimension {dim.keyword} is absent") from None


def _render(dim: DimensionId, value) -> str:
    if dim is DimensionId.SOURCE:
        return value
    if dim is DimensionId.ARGDOWN:
        return render_argdown(value)
    if dim is DimensionId.KEYS:
        return " | ".join(f"{letter}: {phrase}" for letter, phrase in value)
    if dim in LIST_DIMENSIONS:
        return serialize_statements(value)
    raise ValueError(f"unhandled dimension {dim!r}")


def parse_dimension(text: str, dim: DimensionId):
    """Inverse of serialize_dimension, modulo whitespace normalization."""
    if dim is DimensionId.SOURCE:
        return normalize_ws(text)
    if dim is DimensionId.ARGDOWN:
        return parse_argdown(text)
    if dim is DimensionId.KEYS:
        pairs = []
        offset = 0
        for raw in _split_items(text):
            m = _KEY_ITEM_RE.match(raw.strip())
            if m is None:
                raise DimensionParseError(f"malformed key entry {raw!r}", offset)
            pairs.append((m.group(1), normalize_ws(m.group(2))))
            offset += len(raw) + 3
        return tuple(pairs)
    if dim in LIST_DIMENSIONS:
        return parse_statements(text, validate_formulas=dim in FORMULA_DIMENSIONS)
    raise ValueError(f"unhandled dimension {dim!r}")


# ---------------------------------------------------------------------------
# Record (de)serialization and corpus files
# ---------------------------------------------------------------------------


def record_to_dict(record: DeepA2Record) -> dict:
    data = {dim.keyword: text for dim, text in record.texts.items()}
    data["meta"] = record.meta.to_dict()
    return data


def record_from_dict(data: dict) -> DeepA2Record:
    kwargs = {}
    for dim in DimensionId:
        if dim.keyword in data and data[dim.keyword] is not None:
            kwargs[dim.keyword] = parse_dimension(data[dim.keyword], dim)
    meta = RecordMeta.from_dict(data.get("meta", {}))
    return DeepA2Record(meta=meta, **kwargs)


def dump_corpus(records: Iterable[DeepA2Record], path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), ensure_ascii=False) + "\n")
            count += 1
    return count


def load_corpus(path) -> list[DeepA2Record]:
    return list(iter_corpus(path))


def iter_corpus(path) -> Iterator[DeepA2Record]:
    """The records of a JSON-lines corpus, in file order; a malformed line
    or a repeated ``meta.record_id`` raises ``DeepA2Error``."""
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = record_from_dict(json.loads(line))
            except (DeepA2Error, ValueError, KeyError, TypeError, AttributeError) as err:
                raise DeepA2Error(
                    f"{path}:{number}: malformed corpus line ({err!r})"
                ) from None
            record_id = record.meta.record_id
            if record_id is not None:
                first = first_line.setdefault(record_id, number)
                if first != number:
                    raise DeepA2Error(
                        f"{path}:{number}: duplicate record id '{record_id}' "
                        f"(first at line {first})"
                    )
            yield record


# ---------------------------------------------------------------------------
# Subset classification
# ---------------------------------------------------------------------------

SUBSET_SIMPLE = "simple"
SUBSET_COMPLEX = "complex"
SUBSET_PLAIN = "plain"
SUBSET_MUTILATED = "mutilated"
SUBSET_CM = "C&M"

ALL_SUBSETS = (SUBSET_SIMPLE, SUBSET_COMPLEX, SUBSET_PLAIN, SUBSET_MUTILATED, SUBSET_CM)


def classify_subsets(meta: RecordMeta) -> set[str]:
    """All homogeneous-subset tags whose definition the meta satisfies.

    simple: one inference step with no negation handling or intricate schemes;
    complex: four steps relying on intricate schemes; plain: everything
    explicit and no distractors; mutilated: at least two implicit premises
    and one implicit conclusion, two distractors, final conclusion explicit;
    C&M: complex inference plus at least two distractors.
    """
    tags: set[str] = set()
    if meta.n_inference_steps == 1 and not meta.uses_complex_schemes:
        tags.add(SUBSET_SIMPLE)
    is_complex = meta.n_inference_steps == 4 and meta.uses_complex_schemes
    if is_complex:
        tags.add(SUBSET_COMPLEX)
    if (
        meta.n_implicit_premises == 0
        and meta.n_implicit_conclusions == 0
        and meta.n_distractors == 0
    ):
        tags.add(SUBSET_PLAIN)
    if (
        meta.n_implicit_premises >= 2
        and meta.n_implicit_conclusions >= 1
        and meta.n_distractors == 2
        and meta.final_conclusion_explicit
    ):
        tags.add(SUBSET_MUTILATED)
    if is_complex and meta.n_distractors >= 2:
        tags.add(SUBSET_CM)
    return tags
