"""Domain lexicons: pools of predicate phrases and proper names.

A lexicon file is a small plain-text table: an ``id`` line, comma-separated
``names``, relation templates with a ``%`` object slot, and the objects to
fill them with.  Predicate phrases are the relation/object cross product,
so two lexicons with disjoint relations and objects share no phrase.
"""

from __future__ import annotations

import functools
from pathlib import Path

from deepa2.errors import ConfigError
from deepa2.frozen import Frozen

BUILTIN_LEXICON_IDS = ("places_people", "sports_clubs")


class DomainLexicon(Frozen):
    _fields = ("lexicon_id", "names", "relations", "objects")

    def __init__(
        self,
        lexicon_id: str,
        names: tuple[str, ...],
        relations: tuple[str, ...],
        objects: tuple[str, ...],
    ):
        if not (names and relations and objects):
            raise ConfigError(f"lexicon {lexicon_id!r} has an empty pool")
        for relation in relations:
            if "%" not in relation:
                raise ConfigError(f"relation {relation!r} lacks the % object slot")
        self.__dict__.update(
            lexicon_id=lexicon_id, names=names, relations=relations, objects=objects
        )

    def phrases(self) -> tuple[str, ...]:
        """All predicate phrases, relation-major order; built on first call."""
        return self._phrases

    @functools.cached_property
    def _phrases(self) -> tuple[str, ...]:
        return tuple(r.replace("%", o) for r in self.relations for o in self.objects)

    @classmethod
    def from_text(cls, text: str) -> "DomainLexicon":
        fields: dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition(":")
            if not sep:
                raise ConfigError(f"malformed lexicon line: {line!r}")
            fields[key.strip()] = value.strip()
        try:
            return cls(
                lexicon_id=fields["id"],
                names=_split(fields["names"]),
                relations=_split(fields["relations"]),
                objects=_split(fields["objects"]),
            )
        except KeyError as err:
            raise ConfigError(f"lexicon misses field {err}") from None


def _split(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


@functools.cache
def builtin_lexicon(lexicon_id: str) -> DomainLexicon:
    """A packaged lexicon; each is loaded once."""
    if lexicon_id not in BUILTIN_LEXICON_IDS:
        raise ConfigError(
            f"unknown lexicon {lexicon_id!r}; built in: {BUILTIN_LEXICON_IDS}"
        )
    path = Path(__file__).parent / "data" / "lexicons" / f"{lexicon_id}.txt"
    return DomainLexicon.from_text(path.read_text("utf-8"))
