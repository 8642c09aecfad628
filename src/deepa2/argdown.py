"""Parsing and rendering of argument reconstructions.

The format is a block of numbered statements interleaved with inference
separators::

    (1) If someone is an admirer of Chico, then they are an admirer of
        Laguna Beach or a visitor of Stockton.
    (2) If someone admires Laguna Beach, then they haven't visited Monterey.
    (3) If someone has visited Stockton, then they haven't visited Monterey.
    -- with generalized dilemma (neg variant) from (1) (2) (3) --
    (4) If someone admires Chico, then they haven't visited Monterey.

The parser also accepts the separator spread over three lines (``--`` /
``with ... from ...`` / ``--``) and the bare form ``----`` that declares no
scheme; a bare separator derives the next statement from all statements
above it that are not themselves derived.
"""

from __future__ import annotations

import re

from deepa2.errors import ArgdownParseError
from deepa2.frozen import Frozen
from deepa2.memo import process_memo
from deepa2.textnorm import normalize_ws


class InferenceStep(Frozen):
    """One sub-inference; ``scheme_name`` is None for undeclared schemes."""

    _fields = ("from_numbers", "derives", "scheme_name", "variant")

    def __init__(
        self,
        from_numbers: tuple[int, ...],
        derives: int,
        scheme_name: str | None = None,
        variant: str | None = None,
    ):
        fields = self.__dict__
        fields["from_numbers"] = from_numbers
        fields["derives"] = derives
        fields["scheme_name"] = scheme_name
        fields["variant"] = variant

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.from_numbers, self.derives, self.scheme_name, self.variant) == (
                other.from_numbers, other.derives, other.scheme_name, other.variant
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.from_numbers, self.derives, self.scheme_name, self.variant))


class ArgdownArgument(Frozen):
    _fields = ("statements", "inferences")

    def __init__(
        self,
        statements: tuple[tuple[int, str], ...],
        inferences: tuple[InferenceStep, ...],
    ):
        self.__dict__.update(statements=statements, inferences=inferences)

    @property
    def derived_numbers(self) -> set[int]:
        return {inf.derives for inf in self.inferences}


_STMT_RE = re.compile(r"^\((\d+)\)\s*(.*)$")
_DASHES_RE = re.compile(r"^-{2,}$")
_INLINE_SEP_RE = re.compile(r"^-{2,}\s+(.*?)\s*-{2,}$")
_CONTENT_RE = re.compile(
    r"^(?:with\s+(?P<scheme>.*?))?\s*(?:\bfrom\s+(?P<refs>\(\d+\)(?:\s*\(\d+\))*)\s*)?$"
)
_VARIANT_RE = re.compile(r"^(.*?)\s*\(([^()]*)\)$")


@process_memo
def parse_argdown(text: str) -> ArgdownArgument:
    """Parse an argument block; raises ArgdownParseError on malformed input.

    Each distinct well-formed text is parsed once per process, and every
    caller shares its frozen argument; a malformed text is parsed again on
    each call."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]

    statements: list[tuple[int, str]] = []
    inferences: list[InferenceStep] = []
    pending: tuple[str | None, str | None, tuple[int, ...] | None] | None = None

    def open_inference(content: str | None):
        nonlocal pending
        if pending is not None:
            raise ArgdownParseError("inference separator not followed by a statement")
        if content is None:
            pending = (None, None, None)
            return
        m = _CONTENT_RE.match(content)
        if m is None or (m.group("scheme") is None and m.group("refs") is None):
            raise ArgdownParseError(f"malformed inference line: {content!r}")
        scheme = m.group("scheme")
        variant = None
        if scheme:
            vm = _VARIANT_RE.match(scheme)
            if vm:
                scheme, variant = vm.group(1), vm.group(2)
            scheme = normalize_ws(scheme)
        refs = None
        if m.group("refs"):
            refs = tuple(int(n) for n in re.findall(r"\((\d+)\)", m.group("refs")))
        pending = (scheme or None, variant, refs)

    i = 0
    while i < len(lines):
        line = lines[i]
        stmt = _STMT_RE.match(line)
        if stmt:
            number = int(stmt.group(1))
            body = normalize_ws(stmt.group(2))
            if pending is not None:
                scheme, variant, refs = pending
                if refs is None:
                    refs = tuple(
                        n for n, _ in statements if n not in {s.derives for s in inferences}
                    )
                    if not refs:
                        raise ArgdownParseError(
                            f"inference deriving ({number}) has no premises above it"
                        )
                inferences.append(InferenceStep(refs, number, scheme, variant))
                pending = None
            statements.append((number, body))
            i += 1
            continue
        if _DASHES_RE.match(line):
            nxt = lines[i + 1] if i + 1 < len(lines) else None
            if nxt is not None and not _STMT_RE.match(nxt) and not _DASHES_RE.match(nxt):
                if i + 2 >= len(lines) or not _DASHES_RE.match(lines[i + 2]):
                    raise ArgdownParseError(f"unterminated inference block after {line!r}")
                open_inference(nxt)
                i += 3
                continue
            open_inference(None)
            i += 1
            continue
        inline = _INLINE_SEP_RE.match(line)
        if inline:
            open_inference(inline.group(1))
            i += 1
            continue
        raise ArgdownParseError(f"unexpected line: {line!r}")

    if pending is not None:
        raise ArgdownParseError("dangling inference separator at end of block")
    if not statements:
        raise ArgdownParseError("no statements found")

    numbers = [n for n, _ in statements]
    if numbers != list(range(1, len(numbers) + 1)):
        raise ArgdownParseError(f"statement numbers must run 1..n, got {numbers}")
    if not inferences:
        raise ArgdownParseError("an argument needs at least one inference")

    derived: set[int] = set()
    for inf in inferences:
        if inf.derives in derived:
            raise ArgdownParseError(f"statement ({inf.derives}) derived twice")
        derived.add(inf.derives)
        for ref in inf.from_numbers:
            if ref not in dict(statements):
                raise ArgdownParseError(f"inference refers to missing statement ({ref})")
            if ref >= inf.derives:
                raise ArgdownParseError(
                    f"inference for ({inf.derives}) may only use earlier statements, got ({ref})"
                )
    if numbers[-1] not in derived:
        raise ArgdownParseError("the final statement must be derived by an inference")
    return ArgdownArgument(tuple(statements), tuple(inferences))


def render_argdown(arg: ArgdownArgument) -> str:
    """Canonical rendering; ``parse_argdown`` inverts it."""
    by_derives = {inf.derives: inf for inf in arg.inferences}
    lines: list[str] = []
    for number, text in arg.statements:
        inf = by_derives.get(number)
        if inf is not None:
            refs = " ".join(f"({n})" for n in inf.from_numbers)
            if inf.scheme_name:
                scheme = inf.scheme_name
                if inf.variant:
                    scheme += f" ({inf.variant})"
                lines.append(f"-- with {scheme} from {refs} --")
            else:
                lines.append(f"-- from {refs} --")
        lines.append(f"({number}) {text}")
    return "\n".join(lines)


def premises_of(arg: ArgdownArgument) -> list[tuple[int, str]]:
    """Statements never derived by an inference, in numeric order."""
    derived = arg.derived_numbers
    return [(n, t) for n, t in arg.statements if n not in derived]


def final_conclusion_of(arg: ArgdownArgument) -> tuple[int, str]:
    """The last statement of the argument."""
    return arg.statements[-1]


def conclusions_of(arg: ArgdownArgument) -> list[tuple[int, str]]:
    """All derived statements (intermediate and final), in numeric order."""
    derived = arg.derived_numbers
    return [(n, t) for n, t in arg.statements if n in derived]
