"""Process-wide memos: one parse, tokenization or verdict per distinct text.

A process memo is a ``functools.cache``d function: it keeps every result for
the life of the process, and nothing is evicted.  A call that raises is not
remembered, so a malformed text is parsed again and raises an equal, fresh
error.  ``cache_info()`` on each memo gives its size and hits.
``clear_memos`` empties every memo made by ``process_memo``, so that a test
can start from cold memos.
"""

from __future__ import annotations

import functools
from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)

#: Every process memo, in the order they were made.
memos: list = []


def process_memo(fn: F) -> F:
    """``fn`` cached for the life of the process; ``clear_memos`` empties it."""
    cached = functools.cache(fn)
    memos.append(cached)
    return cached


def clear_memos() -> None:
    """Forget every entry of every process memo."""
    for memo in memos:
        memo.cache_clear()
