"""Process-wide memos: one parse, tokenization or verdict per distinct text.

A memo maps a key to a frozen value, or to the error its computation raised,
and keeps every entry for the life of the process; nothing is evicted.  A
race between threads only computes a key twice, with equal results, so no
lock is taken.  ``clear_memos`` empties every memo made by ``process_memo``,
so that a test can start from cold memos.
"""

from __future__ import annotations

import copy
from typing import Callable, TypeVar

T = TypeVar("T")

_memos: list[dict] = []


def process_memo() -> dict:
    """A new, empty process-wide memo that ``clear_memos`` will empty."""
    memo: dict = {}
    _memos.append(memo)
    return memo


def clear_memos() -> None:
    """Forget every entry of every process-wide memo."""
    for memo in _memos:
        memo.clear()


def parse_once(
    memo: dict, parse: Callable[[str], T], text: str, error: type[Exception]
) -> T:
    """``parse(text)``, computed once per distinct text through ``memo``.

    A remembered ``error`` is stored without its traceback and raised again
    as a fresh copy with the same message and attributes (e.g. ``position``).
    Parsers must not return None."""
    result = memo.get(text)
    if result is None:
        try:
            result = parse(text)
        except error as err:
            result = err.with_traceback(None)
        memo[text] = result
    if isinstance(result, error):
        # Raising the stored instance would prepend frames to its traceback
        # on every raise.
        raise copy.copy(result)
    return result
