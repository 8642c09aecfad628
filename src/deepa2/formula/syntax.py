"""Syntax of the formalization language: AST, parser, and canonical printer.

The language is monadic first-order logic without equality or function
symbols.  Quantifier prefixes are written ``(x):`` (universal) and ``(Ex):``
(existential) and scope over the whole remaining body, so
``(x): F x -> G x`` means "for all x, Fx implies Gx".  Connectives bind in
the order ``not`` > ``&`` > ``v`` > ``->`` > ``<->`` with right-associative
binary operators.  Atoms accept both spaced (``F x``) and fused (``Fx``)
spellings on input; the printer always emits the spaced form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from deepa2.errors import FormulaParseError
from deepa2.memo import process_memo

VARIABLE_NAMES = ("x", "y", "z")

# "v" is the disjunction token, so it is excluded from the constant alphabet.
RESERVED_LOWER = "v"


@dataclass(frozen=True)
class Term:
    name: str


@dataclass(frozen=True)
class Var(Term):
    pass


@dataclass(frozen=True)
class Const(Term):
    pass


class Formula:
    """Base class for formula nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    term: Term


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ForAll(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


def predicates_of(formula: Formula) -> set[str]:
    """All predicate letters occurring in the formula."""
    out: set[str] = set()
    _walk_atoms(formula, lambda a: out.add(a.pred))
    return out


def constants_of(formula: Formula) -> set[str]:
    """All constant names occurring in the formula."""
    out: set[str] = set()
    _walk_atoms(formula, lambda a: out.add(a.term.name) if isinstance(a.term, Const) else None)
    return out


def free_variables(formula: Formula, bound: frozenset[str] = frozenset()) -> set[str]:
    """Variable names occurring outside the scope of their quantifier."""
    if isinstance(formula, Atom):
        if isinstance(formula.term, Var) and formula.term.name not in bound:
            return {formula.term.name}
        return set()
    if isinstance(formula, Not):
        return free_variables(formula.sub, bound)
    if isinstance(formula, (And, Or, Implies, Iff)):
        return free_variables(formula.left, bound) | free_variables(formula.right, bound)
    if isinstance(formula, (ForAll, Exists)):
        return free_variables(formula.body, bound | {formula.var})
    raise TypeError(f"not a formula node: {formula!r}")


def _walk_atoms(formula: Formula, visit) -> None:
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            visit(node)
        elif isinstance(node, Not):
            stack.append(node.sub)
        elif isinstance(node, (And, Or, Implies, Iff)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (ForAll, Exists)):
            stack.append(node.body)
        else:
            raise TypeError(f"not a formula node: {node!r}")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Binding strength; operands whose own level is below the required level get
# parenthesized.  Quantified formulas scope over everything to their right,
# hence the lowest level.
_LEVEL_QUANT = 0
_LEVEL_IFF = 1
_LEVEL_IMPLIES = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_NOT = 5
_LEVEL_ATOM = 6


def _level(f: Formula) -> int:
    if isinstance(f, Atom):
        return _LEVEL_ATOM
    if isinstance(f, Not):
        return _LEVEL_NOT
    if isinstance(f, And):
        return _LEVEL_AND
    if isinstance(f, Or):
        return _LEVEL_OR
    if isinstance(f, Implies):
        return _LEVEL_IMPLIES
    if isinstance(f, Iff):
        return _LEVEL_IFF
    return _LEVEL_QUANT


def render_formula(formula: Formula) -> str:
    """Canonical spaced rendering; ``parse_formula`` inverts it."""
    return _render(formula, _LEVEL_QUANT)


def _render(f: Formula, required: int) -> str:
    level = _level(f)
    if isinstance(f, Atom):
        text = f"{f.pred} {f.term.name}"
    elif isinstance(f, Not):
        text = "not " + _render(f.sub, _LEVEL_NOT)
    elif isinstance(f, And):
        text = _render(f.left, _LEVEL_AND + 1) + " & " + _render(f.right, _LEVEL_AND)
    elif isinstance(f, Or):
        text = _render(f.left, _LEVEL_OR + 1) + " v " + _render(f.right, _LEVEL_OR)
    elif isinstance(f, Implies):
        text = _render(f.left, _LEVEL_IMPLIES + 1) + " -> " + _render(f.right, _LEVEL_IMPLIES)
    elif isinstance(f, Iff):
        text = _render(f.left, _LEVEL_IFF + 1) + " <-> " + _render(f.right, _LEVEL_IFF)
    elif isinstance(f, ForAll):
        text = f"({f.var}): " + _render(f.body, _LEVEL_QUANT)
    elif isinstance(f, Exists):
        text = f"(E{f.var}): " + _render(f.body, _LEVEL_QUANT)
    else:
        raise TypeError(f"not a formula node: {f!r}")
    if level < required:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<iff><->)
      | (?P<implies>->)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<colon>:)
      | (?P<amp>&)
      | (?P<not>not\b)
      | (?P<or>v\b)
      | (?P<upper>[A-Z])
      | (?P<lower>[a-z])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaParseError(f"unknown token {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, offset: int = 0) -> _Token:
        j = min(self.i + offset, len(self.tokens) - 1)
        return self.tokens[j]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise FormulaParseError(message, tok.pos)

    # formula := quantifier-prefix formula | iff-expression
    def formula(self, bound: frozenset[str]) -> Formula:
        prefix = self._quantifier_prefix()
        if prefix is not None:
            existential, var, var_tok = prefix
            if var in bound:
                self.fail(f"variable {var!r} is already bound", var_tok)
            body = self.formula(bound | {var})
            return Exists(var, body) if existential else ForAll(var, body)
        return self.iff_expr(bound)

    def _quantifier_prefix(self):
        # "(x):" or "(Ex):" -- requires 4-token lookahead to distinguish from
        # a parenthesized formula such as "(Ex)" meaning the atom E x.
        if self.peek().kind != "lparen":
            return None
        t1, t2, t3 = self.peek(1), self.peek(2), self.peek(3)
        if t1.kind == "lower" and t2.kind == "rparen" and t3.kind == "colon":
            self.next(), self.next(), self.next(), self.next()
            self._check_quant_var(t1)
            return (False, t1.text, t1)
        t4 = self.peek(4)
        if (
            t1.kind == "upper"
            and t1.text == "E"
            and t2.kind == "lower"
            and t3.kind == "rparen"
            and t4.kind == "colon"
        ):
            self.next(), self.next(), self.next(), self.next(), self.next()
            self._check_quant_var(t2)
            return (True, t2.text, t2)
        return None

    def _check_quant_var(self, tok: _Token):
        if tok.text not in VARIABLE_NAMES:
            self.fail(
                f"quantifier must bind one of {', '.join(VARIABLE_NAMES)}, got {tok.text!r}",
                tok,
            )

    def iff_expr(self, bound) -> Formula:
        left = self.implies_expr(bound)
        if self.peek().kind == "iff":
            self.next()
            return Iff(left, self.iff_expr(bound))
        return left

    def implies_expr(self, bound) -> Formula:
        left = self.or_expr(bound)
        if self.peek().kind == "implies":
            self.next()
            return Implies(left, self.implies_expr(bound))
        return left

    def or_expr(self, bound) -> Formula:
        left = self.and_expr(bound)
        if self.peek().kind == "or":
            self.next()
            return Or(left, self.or_expr(bound))
        return left

    def and_expr(self, bound) -> Formula:
        left = self.unary_expr(bound)
        if self.peek().kind == "amp":
            self.next()
            return And(left, self.and_expr(bound))
        return left

    def unary_expr(self, bound) -> Formula:
        tok = self.peek()
        if tok.kind == "not":
            self.next()
            return Not(self.unary_expr(bound))
        return self.primary(bound)

    def primary(self, bound) -> Formula:
        tok = self.peek()
        if tok.kind == "lparen":
            if self._quantifier_ahead():
                # A quantifier may start at operand position; it scopes over
                # the whole remaining group.
                return self.formula(bound)
            self.next()
            inner = self.formula(bound)
            closing = self.next()
            if closing.kind != "rparen":
                self.fail("expected ')'", closing)
            return inner
        if tok.kind == "upper":
            return self.atom(bound)
        self.fail(f"expected a formula, got {tok.text!r}" if tok.text else "unexpected end of input", tok)

    def _quantifier_ahead(self) -> bool:
        t1, t2, t3, t4 = self.peek(1), self.peek(2), self.peek(3), self.peek(4)
        if t1.kind == "lower" and t2.kind == "rparen" and t3.kind == "colon":
            return True
        return (
            t1.kind == "upper"
            and t1.text == "E"
            and t2.kind == "lower"
            and t3.kind == "rparen"
            and t4.kind == "colon"
        )

    def atom(self, bound) -> Formula:
        pred_tok = self.next()
        term_tok = self.peek()
        if term_tok.kind == "lparen":
            self.fail(
                "predicates are unary and written without parentheses (e.g. 'F x')",
                term_tok,
            )
        if term_tok.kind == "upper":
            self.fail(f"expected a term after predicate {pred_tok.text!r}", term_tok)
        if term_tok.kind != "lower":
            self.fail(f"expected a term after predicate {pred_tok.text!r}", term_tok)
        self.next()
        # Reject a second juxtaposed term: predicates take exactly one.
        if self.peek().kind == "lower":
            self.fail("predicates take exactly one term", self.peek())
        name = term_tok.text
        if name in VARIABLE_NAMES:
            if name not in bound:
                self.fail(f"unbound variable {name!r}", term_tok)
            return Atom(pred_tok.text, Var(name))
        if name == RESERVED_LOWER:
            self.fail("'v' is reserved for disjunction and cannot be a constant", term_tok)
        return Atom(pred_tok.text, Const(name))


@process_memo
def parse_formula(text: str) -> Formula:
    """Parse a closed monadic formula; raises FormulaParseError with position.

    Each distinct well-formed text is parsed once per process, and every
    caller shares its frozen AST; a malformed text is parsed again on each
    call."""
    parser = _Parser(text)
    result = parser.formula(frozenset())
    trailing = parser.peek()
    if trailing.kind != "eof":
        if trailing.kind == "lower":
            parser.fail("predicates take exactly one term", trailing)
        parser.fail(f"unexpected trailing input {trailing.text!r}", trailing)
    return result
