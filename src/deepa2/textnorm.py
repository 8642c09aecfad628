"""Whitespace normalization and token-level comparison helpers."""

from __future__ import annotations

import re
from collections import Counter

from deepa2.memo import process_memo

_TOKEN_RE = re.compile(r"[a-z0-9']+")


def normalize_ws(text: str) -> str:
    """Collapse runs of whitespace and trim the ends."""
    return " ".join(text.split())


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
