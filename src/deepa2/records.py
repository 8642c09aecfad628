"""The multi-angular record model and its plain-text serialization.

Every dimension serializes to a flat string: list-valued dimensions join
their items with `` | `` (escaped as ``\\|`` inside item text) and attach
statement references as `` (ref: (n))``; the key dimension renders as
``F: phrase | G: phrase``.  Corpus files are JSON lines, one record per
line, with the nine dimension keywords plus ``meta`` as field names.

A record stores its texts: ``DeepA2Record.texts`` maps each present
dimension to its wire text, and a record read from a corpus line keeps
the line's texts verbatim and parses nothing.  Each parsed view
(``record.argdown``, ``record.reasons``, ...) is built on first read through
``parse_dimension`` and its memoized parsers, so a stage parses only the
dimensions it reads.  ``DeepA2Record.from_parts`` builds a record from
parsed dimensions, rendering each once; the generator and the importers
use it.
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from typing import Iterable

# The argument and formula parsers are imported where a text is parsed or
# rendered, so a stage that only copies texts loads neither.
from deepa2.dimensions import FORMULA_DIMENSIONS, LIST_DIMENSIONS, DimensionId
from deepa2.errors import DeepA2Error, DimensionParseError, MissingDimensionError
from deepa2.frozen import Frozen
from deepa2.memo import process_memo
from deepa2.textnorm import normalize_ws


class QuotedStatement(Frozen):
    """A statement string with an optional reference to a statement number."""

    _fields = ("text", "ref")

    def __init__(self, text: str, ref: int | None = None):
        if ref is not None and ref < 1:
            raise ValueError(f"ref must be a positive integer, got {ref}")
        fields = self.__dict__
        fields["text"] = text
        fields["ref"] = ref

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.text, self.ref) == (other.text, other.ref)
        return NotImplemented

    def __hash__(self):
        return hash((self.text, self.ref))


class RecordMeta(Frozen):
    """Construction facts about a record, used for subset classification.

    Each field has its default's exact type (``record_id`` may also be
    None), so a bool is not taken for a count."""

    #: Each field, in order, with its type's name and the exact types it admits.
    _TYPES = {
        "record_id": ("str | None", (str, type(None))),
        "n_inference_steps": ("int", (int,)),
        "n_implicit_premises": ("int", (int,)),
        "n_implicit_conclusions": ("int", (int,)),
        "final_conclusion_explicit": ("bool", (bool,)),
        "n_distractors": ("int", (int,)),
        "uses_complex_schemes": ("bool", (bool,)),
        "domain_tag": ("str", (str,)),
    }
    _fields = tuple(_TYPES)

    def __init__(
        self,
        record_id: str | None = None,
        n_inference_steps: int = 0,
        n_implicit_premises: int = 0,
        n_implicit_conclusions: int = 0,
        final_conclusion_explicit: bool = True,
        n_distractors: int = 0,
        uses_complex_schemes: bool = False,
        domain_tag: str = "",
    ):
        values = (
            record_id, n_inference_steps, n_implicit_premises, n_implicit_conclusions,
            final_conclusion_explicit, n_distractors, uses_complex_schemes, domain_tag,
        )
        fields = self.__dict__
        for (name, (type_name, allowed)), value in zip(self._TYPES.items(), values):
            if type(value) not in allowed:
                raise TypeError(f"{name} must be {type_name}, got {type(value).__name__}")
            if type(value) is int and value < 0:
                raise ValueError(f"{name} must be non-negative")
            fields[name] = value

    def to_dict(self) -> dict:
        return {name: value for name, value in vars(self).items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "RecordMeta":
        return cls(**{k: v for k, v in data.items() if k in cls._TYPES})


#: Dimensions that hold exactly one statement when present.
_SINGLETONS = (DimensionId.CONCLUSION, DimensionId.CONCLUSION_FORM)


def _view(dim: DimensionId) -> cached_property:
    """The parsed view of one dimension: ``parse_dimension`` of its text,
    built on first read and kept on the record; None when it is absent."""

    def view(self: DeepA2Record):
        text = self.texts.get(dim)
        return None if text is None else parse_dimension(text, dim)

    view.__name__ = dim.keyword
    return cached_property(view)


class DeepA2Record(Frozen):
    """One comprehensive argumentative analysis, stored as its dimension
    texts and its meta.

    ``texts`` maps each present dimension to its wire text, in
    ``DimensionId`` order; every reader shares the dict and none may change
    it.  ``==`` and ``hash`` work on ``(texts, meta)``.  Each dimension also
    has a parsed view named by its keyword (``record.argdown``,
    ``record.premises_form``, ...), parsed on first read; a malformed text
    raises ``DimensionParseError`` there."""

    _fields = ("texts", "meta")

    # The parsed views, not fields: each is a ``cached_property``.
    source = _view(DimensionId.SOURCE)
    reasons = _view(DimensionId.REASONS)
    conjectures = _view(DimensionId.CONJECTURES)
    argdown = _view(DimensionId.ARGDOWN)
    premises = _view(DimensionId.PREMISES)
    conclusion = _view(DimensionId.CONCLUSION)
    premises_form = _view(DimensionId.PREMISES_FORM)
    conclusion_form = _view(DimensionId.CONCLUSION_FORM)
    keys = _view(DimensionId.KEYS)

    def __init__(self, texts: dict[DimensionId, str] = {}, meta: RecordMeta = RecordMeta()):
        # The copy is in DimensionId order, so that equal records hash
        # alike; ``texts`` itself, the shared default included, is not changed.
        ordered = {dim: texts[dim] for dim in DimensionId if dim in texts}
        if len(ordered) != len(texts) or not all(
            isinstance(text, str) for text in ordered.values()
        ):
            raise TypeError("texts must map DimensionId members to strings")
        self.__dict__.update(texts=ordered, meta=meta)

    @classmethod
    def from_parts(cls, meta: RecordMeta = RecordMeta(), **parts) -> DeepA2Record:
        """A record built from parsed dimensions, each passed under its
        keyword (None or omitted: absent).

        Each part is rendered once through ``_render`` and kept as its
        view, so reading it parses nothing.  Only a canonical part parses
        back from its text to itself; the generator's parts do by
        construction, which ``tests/test_validate_differential.py`` checks."""
        unknown = set(parts) - {dim.keyword for dim in DimensionId}
        if unknown:
            raise TypeError(f"unknown dimensions {sorted(unknown)}")
        present = {
            dim: parts[dim.keyword]
            for dim in DimensionId
            if parts.get(dim.keyword) is not None
        }
        for dim in _SINGLETONS:
            if dim in present and len(present[dim]) != 1:
                raise ValueError(
                    f"{dim.keyword} must hold exactly one statement when present"
                )
        record = cls({dim: _render(dim, value) for dim, value in present.items()}, meta)
        for dim, value in present.items():
            record.__dict__[dim.keyword] = value
        return record

    def __eq__(self, other):
        if not isinstance(other, DeepA2Record):
            return NotImplemented
        return self.meta == other.meta and self.texts == other.texts

    def __hash__(self):
        return hash((*self.texts.items(), self.meta))

    def get(self, dim: DimensionId):
        """The parsed view of ``dim`` (None when absent)."""
        return getattr(self, dim.keyword)

    def has(self, dim: DimensionId) -> bool:
        return dim in self.texts

    def present_dimensions(self) -> list[DimensionId]:
        return list(self.texts)


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
        from deepa2.formula import parse_formula

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
        from deepa2.argdown import render_argdown

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
        from deepa2.argdown import parse_argdown

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
        items = parse_statements(text, validate_formulas=dim in FORMULA_DIMENSIONS)
        if dim in _SINGLETONS and len(items) != 1:
            raise DimensionParseError(
                f"{dim.keyword} must hold exactly one statement when present"
            )
        return items
    raise ValueError(f"unhandled dimension {dim!r}")


# ---------------------------------------------------------------------------
# Record (de)serialization and corpus files
# ---------------------------------------------------------------------------


def record_to_dict(record: DeepA2Record) -> dict:
    data = {dim.keyword: text for dim, text in record.texts.items()}
    data["meta"] = record.meta.to_dict()
    return data


def record_from_dict(data: dict) -> DeepA2Record:
    """The record holding the dict's dimension texts verbatim; nothing is
    parsed."""
    texts = {}
    for dim in DimensionId:
        text = data.get(dim.keyword)
        if text is not None:
            texts[dim] = text
    return DeepA2Record(texts, RecordMeta.from_dict(data.get("meta", {})))


#: ``json.dumps(value, ensure_ascii=False)`` without building an encoder per
#: call; every JSON-lines writer encodes through it.
encode_json = json.JSONEncoder(ensure_ascii=False).encode


def corpus_line(record: DeepA2Record) -> str:
    """The record's corpus line: ``json.dumps(record_to_dict(record),
    ensure_ascii=False)`` and a newline."""
    return encode_json(record_to_dict(record)) + "\n"


def load_corpus(
    path, views: Iterable[DimensionId] = (), ids_required: bool = False
) -> list[DeepA2Record]:
    """The records of a JSON-lines corpus, in file order, with their texts
    as the lines hold them.

    The view of each dimension in ``views`` is parsed as its line is read,
    so a malformed one is reported with its line; the rest are parsed on
    first read, if ever.  A malformed line, a repeated ``meta.record_id``
    or, with ``ids_required``, a missing one raises ``DeepA2Error``."""
    views = tuple(views)
    records = []
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = record_from_dict(json.loads(line))
                for dim in views:
                    record.get(dim)
            except (DeepA2Error, ValueError, KeyError, TypeError, AttributeError) as err:
                raise DeepA2Error(
                    f"{path}:{number}: malformed corpus line ({err!r})"
                ) from None
            record_id = record.meta.record_id
            if record_id is None and ids_required:
                raise DeepA2Error(f"{path}:{number}: record has no id (meta.record_id)")
            if record_id is not None:
                first = first_line.setdefault(record_id, number)
                if first != number:
                    raise DeepA2Error(
                        f"{path}:{number}: duplicate record id '{record_id}' "
                        f"(first at line {first})"
                    )
            records.append(record)
    return records


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
