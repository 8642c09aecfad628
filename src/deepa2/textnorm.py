"""Whitespace normalization, the verbatim-quote check and token-level
comparison helpers.

``eval_exe_meq`` lives here, not among the metrics, because the generator
checks each attempt with it and so loads no metric module."""

from __future__ import annotations

import re
from collections import Counter
from typing import TYPE_CHECKING, Sequence

from deepa2.memo import process_memo

if TYPE_CHECKING:
    from deepa2.records import QuotedStatement

_TOKEN_RE = re.compile(r"[a-z0-9']+")


def normalize_ws(text: str) -> str:
    """Collapse runs of whitespace and trim the ends."""
    return " ".join(text.split())


def eval_exe_meq(
    source: str,
    reasons: Sequence[QuotedStatement],
    conjectures: Sequence[QuotedStatement],
) -> int:
    """1 iff every reason and conjecture occurs verbatim in the source and
    pairwise-disjoint spans can be assigned greedily left to right."""
    haystack = normalize_ws(source)
    quotes = [normalize_ws(q.text) for q in list(reasons) + list(conjectures)]
    if not quotes:
        return 1
    first_positions = []
    for idx, quote in enumerate(quotes):
        pos = haystack.find(quote)
        if pos < 0:
            return 0
        first_positions.append((pos, idx, quote))
    cursor = 0
    for _, _, quote in sorted(first_positions):
        pos = haystack.find(quote, cursor)
        if pos < 0:
            return 0
        cursor = pos + len(quote)
    return 1


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens, punctuation dropped."""
    return _TOKEN_RE.findall(text.lower())


@process_memo
def _counted_tokens(text: str) -> tuple[Counter, int]:
    """A compared text's token multiset and token count, for the whole process."""
    tokens = Counter(tokenize(text))
    return tokens, sum(tokens.values())


def token_f1(a: str, b: str) -> float:
    """Unigram-multiset F1 between two texts; 1.0 when both are empty."""
    ta, na = _counted_tokens(a)
    tb, nb = _counted_tokens(b)
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    overlap = sum(min(n, tb[t]) for t, n in ta.items() if t in tb)
    if overlap == 0:
        return 0.0
    precision = overlap / na
    recall = overlap / nb
    return 2 * precision * recall / (precision + recall)
