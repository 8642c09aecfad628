"""Sentence templates keyed by statement shape.

A statement shape is a formula pattern with its letters canonicalized in
first-occurrence order (predicates to P1, P2, ...; constants to c1, c2, ...).
Each shape owns a bank of sentence templates used in two directions:
rendering a concrete formula as a natural-language statement, and
recovering shape plus phrase bindings from a statement text.  Recovery is
best-effort; statements phrased outside the bank simply yield no candidates.
"""

from __future__ import annotations

import re
from functools import cached_property

from deepa2.formula.syntax import Formula, parse_formula, render_formula, substitute
from deepa2.frozen import Frozen
from deepa2.memo import process_memo
from deepa2.textnorm import normalize_ws

_ARTICLE_RE = re.compile(r"^(?:an?|the)\s+", re.IGNORECASE)


def normalize_phrase(phrase: str) -> str:
    phrase = normalize_ws(phrase).strip(" .,:;")
    phrase = _ARTICLE_RE.sub("", phrase)
    return phrase.lower()


def with_article(phrase: str) -> str:
    article = "an" if phrase[:1].lower() in "aeiou" else "a"
    return f"{article} {phrase}"


class StatementShape(Frozen):
    """Canonical pattern string plus the original letters per position."""

    _fields = ("key", "pred_letters", "const_letters")

    def __init__(self, key: str, pred_letters: tuple[str, ...], const_letters: tuple[str, ...]):
        fields = self.__dict__
        fields["key"] = key
        fields["pred_letters"] = pred_letters
        fields["const_letters"] = const_letters


@process_memo
def shape_of(formula: Formula) -> StatementShape:
    """The formula's shape; computed once per process for each distinct
    formula."""
    preds: dict[str, str] = {}
    consts: dict[str, str] = {}
    canonical = substitute(
        formula,
        lambda p: preds.setdefault(p, f"P{len(preds) + 1}"),
        lambda c: consts.setdefault(c, f"c{len(consts) + 1}"),
        lambda v: v,
    )
    key = render_formula(canonical)
    return StatementShape(key, tuple(preds), tuple(consts))


class SentenceTemplate(Frozen):
    """A fill-in sentence for one shape.

    Slots: ``{P1}`` noun phrase with article, ``{P1bare}`` bare noun phrase,
    ``{c1}`` proper name.  ``imprecise`` templates loosen the logical form
    and are only used when a corpus configuration asks for them.  The
    regex that ``recover`` matches is compiled on its first call, as the
    generator only renders.
    """

    _fields = ("shape_key", "text", "imprecise")

    def __init__(self, shape_key: str, text: str, imprecise: bool = False):
        self.__dict__.update(shape_key=shape_key, text=text, imprecise=imprecise)

    @cached_property
    def _regex(self) -> re.Pattern:
        return _compile_template(self.text)

    def render(self, pred_phrases: dict[str, str], const_names: dict[str, str]) -> str:
        def fill(m: re.Match) -> str:
            slot = m.group(1)
            if slot.startswith("P"):
                if slot.endswith("bare"):
                    return pred_phrases[slot[: -len("bare")]]
                return with_article(pred_phrases[slot])
            return const_names[slot]

        return _SLOT_RE.sub(fill, self.text)

    def recover(self, text: str) -> tuple[dict[str, str], dict[str, str]] | None:
        m = self._regex.match(normalize_ws(text))
        if m is None:
            return None
        preds: dict[str, str] = {}
        consts: dict[str, str] = {}
        for name, value in m.groupdict().items():
            if value is None:
                return None
            if name.startswith("P"):
                slot = name[: -len("bare")] if name.endswith("bare") else name
                phrase = normalize_phrase(value)
                if preds.setdefault(slot, phrase) != phrase:
                    return None
            else:
                consts[name] = normalize_ws(value)
        return preds, consts


_SLOT_RE = re.compile(r"\{(P\d+(?:bare)?|c\d+)\}")


def _compile_template(text: str) -> re.Pattern:
    parts = []
    seen: set[str] = set()
    pos = 0
    for m in _SLOT_RE.finditer(text):
        parts.append(re.escape(text[pos : m.start()]))
        name = m.group(1)
        if name in seen:
            parts.append(f"(?P={name})")
        else:
            seen.add(name)
            parts.append(f"(?P<{name}>.+?)")
        pos = m.end()
    tail = text[pos:]
    if tail.endswith("."):
        parts.append(re.escape(tail[:-1]) + r"\.?")
    else:
        parts.append(re.escape(tail))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE)


def _shape_key(pattern_text: str) -> str:
    return shape_of(parse_formula(pattern_text)).key


def _bank(pattern_text: str, *templates: str | tuple[str, bool]) -> list[SentenceTemplate]:
    key = _shape_key(pattern_text)
    out = []
    for t in templates:
        if isinstance(t, tuple):
            out.append(SentenceTemplate(key, t[0], imprecise=t[1]))
        else:
            out.append(SentenceTemplate(key, t))
    return out


TEMPLATE_BANK: dict[str, list[SentenceTemplate]] = {}
for _templates in [
    _bank(
        "(x): F x -> G x",
        "If someone is {P1}, then they are {P2}.",
        "Every {P1bare} is {P2}.",
        "Whoever is {P1} is also {P2}.",
        ("Being {P1bare} is sufficient for being {P2bare}.", True),
    ),
    _bank(
        "(x): F x -> not G x",
        "If someone is {P1}, then they are not {P2}.",
        "No {P1bare} is {P2}.",
        "Whoever is {P1} is not {P2}.",
        ("Being {P1bare} rules out being {P2bare}.", True),
    ),
    _bank(
        "(x): not F x -> G x",
        "If someone is not {P1}, then they are {P2}.",
        "Whoever is not {P1} is {P2}.",
    ),
    _bank(
        "(x): not F x -> not G x",
        "If someone is not {P1}, then they are not {P2}.",
        "Whoever is not {P1} is not {P2}.",
    ),
    _bank(
        "(x): F x -> G x v H x",
        "If someone is {P1}, then they are {P2} or {P3}.",
        "Every {P1bare} is {P2} or {P3}.",
    ),
    _bank(
        "(x): F x -> not G x v not H x",
        "If someone is {P1}, then they are not {P2} or not {P3}.",
    ),
    _bank(
        "(x): not (F x & G x)",
        "No one is both {P1} and {P2}.",
        "Nobody is {P1} and, at the same time, {P2}.",
    ),
    _bank(
        "(x): not F x v not G x",
        "Everyone is not {P1} or not {P2}.",
        "Each person fails to be {P1} or fails to be {P2}.",
    ),
    _bank(
        "(x): F x",
        "Everyone is {P1}.",
        "Everybody is {P1}.",
    ),
    _bank(
        "F a",
        "{c1} is {P1}.",
        "It is true that {c1} is {P1}.",
    ),
    _bank(
        "not F a",
        "{c1} is not {P1}.",
        "It is false that {c1} is {P1}.",
    ),
    _bank(
        "F a -> G a",
        "If {c1} is {P1}, then {c1} is {P2}.",
        "Assuming that {c1} is {P1}, {c1} is {P2}.",
    ),
    _bank(
        "not F a -> G a",
        "If {c1} is not {P1}, then {c1} is {P2}.",
    ),
    _bank(
        "F a -> not G a",
        "If {c1} is {P1}, then {c1} is not {P2}.",
    ),
    _bank(
        "F a & G a",
        "{c1} is {P1} and {c1} is {P2}.",
    ),
]:
    TEMPLATE_BANK.setdefault(_templates[0].shape_key, []).extend(_templates)


@process_memo
def templates_for(
    formula: Formula, include_imprecise: bool = False
) -> tuple[SentenceTemplate, ...]:
    """The bank's templates for the formula's shape, in bank order; chosen
    once per process for each distinct formula."""
    bank = TEMPLATE_BANK.get(shape_of(formula).key, ())
    return tuple(t for t in bank if include_imprecise or not t.imprecise)


def render_statement(
    formula: Formula,
    key_phrases: dict[str, str],
    const_names: dict[str, str],
    template: SentenceTemplate,
) -> str:
    """Fill a template with the formula's phrases and names."""
    shape = shape_of(formula)
    if template.shape_key != shape.key:
        raise ValueError(f"template shape {template.shape_key!r} != formula shape {shape.key!r}")
    pred_phrases = {
        f"P{i + 1}": key_phrases[letter] for i, letter in enumerate(shape.pred_letters)
    }
    names = {f"c{i + 1}": const_names[c] for i, c in enumerate(shape.const_letters)}
    return template.render(pred_phrases, names)


def recover_statement(text: str, shape_key: str) -> list[tuple[dict[str, str], dict[str, str]]]:
    """All (positional pred phrases, positional const names) readings of a
    statement text under the bank's templates for one shape."""
    out = []
    for template in TEMPLATE_BANK.get(shape_key, ()):
        got = template.recover(text)
        if got is not None:
            out.append(got)
    return out
