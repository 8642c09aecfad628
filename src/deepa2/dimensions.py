"""The nine dimensions of a comprehensive argumentative analysis."""

from __future__ import annotations

from enum import Enum


class DimensionId(Enum):
    """One angle of the multi-angular data model.

    Each dimension has a single-letter short form (used in mode labels such
    as ``S A => R``) and a canonical keyword (used as task prefix, JSON field
    name, and prompt field label).
    """

    SOURCE = ("S", "source")
    REASONS = ("R", "reasons")
    CONJECTURES = ("J", "conjectures")
    ARGDOWN = ("A", "argdown")
    PREMISES = ("P", "premises")
    CONCLUSION = ("C", "conclusion")
    PREMISES_FORM = ("F", "premises_form")
    CONCLUSION_FORM = ("O", "conclusion_form")
    KEYS = ("K", "keys")

    # Members are singletons compared by identity, so they hash by identity
    # too, in C, instead of through Enum's Python-level hash of the name.
    # No output order depends on it: no code iterates a set of dimensions.
    __hash__ = object.__hash__

    def __init__(self, letter: str, keyword: str):
        self.letter = letter
        self.keyword = keyword

    @classmethod
    def from_keyword(cls, keyword: str) -> "DimensionId":
        try:
            return _BY_KEYWORD[keyword]
        except KeyError:
            raise ValueError(f"unknown dimension keyword: {keyword!r}") from None

    def __repr__(self) -> str:
        return f"DimensionId.{self.name}"


_BY_KEYWORD = {d.keyword: d for d in DimensionId}

#: Dimensions whose serialized form is a " | "-joined list of statements.
LIST_DIMENSIONS = frozenset(
    {
        DimensionId.REASONS,
        DimensionId.CONJECTURES,
        DimensionId.PREMISES,
        DimensionId.CONCLUSION,
        DimensionId.PREMISES_FORM,
        DimensionId.CONCLUSION_FORM,
    }
)

#: Dimensions holding formula strings (their items parse under the formula grammar).
FORMULA_DIMENSIONS = frozenset(
    {DimensionId.PREMISES_FORM, DimensionId.CONCLUSION_FORM}
)
