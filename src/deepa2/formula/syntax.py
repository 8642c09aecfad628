"""Syntax of the formalization language: AST, parser, and canonical printer.

The language is monadic first-order logic without equality or function
symbols.  Quantifier prefixes are written ``(x):`` (universal) and ``(Ex):``
(existential) and scope over the whole remaining body, so
``(x): F x -> G x`` means "for all x, Fx implies Gx".  Connectives bind in
the order ``not`` > ``&`` > ``v`` > ``->`` > ``<->`` with right-associative
binary operators.  Atoms accept both spaced (``F x``) and fused (``Fx``)
spellings on input; the printer always emits the spaced form.

Each connective is defined once.  ``And``, ``Or``, ``Implies`` and ``Iff``
subclass ``Binary`` and carry their symbol, token kind and binding level,
which the printer and the parser's one binary-expression loop read; this is
the language's precedence table.  ``ForAll`` and ``Exists`` subclass
``Quantified``.  ``substitute`` is the one walk that renames letters.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from deepa2.errors import FormulaParseError
from deepa2.frozen import Frozen
from deepa2.memo import process_memo

VARIABLE_NAMES = ("x", "y", "z")

# "v" is the disjunction token, so it is excluded from the constant alphabet.
RESERVED_LOWER = "v"


class Term(Frozen):
    _fields = ("name",)

    def __init__(self, name: str):
        self.__dict__["name"] = name

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))


class Var(Term):
    pass


class Const(Term):
    pass


class Formula(Frozen):
    """Base class for formula nodes.

    A node's hash, that of its tuple of fields, is taken once, when the node
    is built; memos keyed by formulas look it up on every call.  ``==``
    compares classes, then hashes, then fields; a node's ``vars()`` are its
    fields."""

    __slots__ = ("_hash",)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._hash == other._hash and self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuilt through the constructor: a hash taken in one process is
        # wrong in another, whose strings hash differently.
        return self.__class__, tuple(self.__dict__.values())


_set_hash = Formula._hash.__set__


class Atom(Formula):
    _fields = ("pred", "term")

    def __init__(self, pred: str, term: Term):
        fields = self.__dict__
        fields["pred"] = pred
        fields["term"] = term
        _set_hash(self, hash((pred, term)))


class Not(Formula):
    _fields = ("sub",)

    def __init__(self, sub: Formula):
        self.__dict__["sub"] = sub
        _set_hash(self, hash((sub,)))


# Binding strength; operands whose own level is below the required level get
# parenthesized.  A quantifier prefix scopes over everything to its right,
# hence the lowest level; negation binds tighter than every binary
# connective, and atoms never need parentheses.
_LEVEL_QUANT = 0
_LEVEL_NOT = 5


class Binary(Formula):
    """A binary connective.  Each subclass names its printed ``symbol``, the
    parser's token ``kind`` for it and its binding ``level`` (higher binds
    tighter); all are right-associative.  ``==`` compares classes, so
    ``And(p, q) != Or(p, q)``."""

    _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        fields = self.__dict__
        fields["left"] = left
        fields["right"] = right
        _set_hash(self, hash((left, right)))


class And(Binary):
    symbol, kind, level = "&", "amp", 4


class Or(Binary):
    symbol, kind, level = "v", "or", 3


class Implies(Binary):
    symbol, kind, level = "->", "implies", 2


class Iff(Binary):
    symbol, kind, level = "<->", "iff", 1


class Quantified(Formula):
    """A quantifier prefix over the rest of the formula; each subclass names
    the ``mark`` printed before its variable."""

    _fields = ("var", "body")

    def __init__(self, var: str, body: Formula):
        fields = self.__dict__
        fields["var"] = var
        fields["body"] = body
        _set_hash(self, hash((var, body)))


class ForAll(Quantified):
    mark = ""


class Exists(Quantified):
    mark = "E"


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
    if isinstance(formula, Binary):
        return free_variables(formula.left, bound) | free_variables(formula.right, bound)
    if isinstance(formula, Quantified):
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
        elif isinstance(node, Binary):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Quantified):
            stack.append(node.body)
        else:
            raise TypeError(f"not a formula node: {node!r}")


def substitute(
    formula: Formula,
    pred: Callable[[str], str],
    const: Callable[[str], str],
    var: Callable[[str], str],
) -> Formula:
    """The formula with each predicate letter, constant and variable name
    replaced by ``pred``, ``const`` and ``var`` of it.  Letters are visited
    left to right, so a renaming that numbers letters numbers them in
    first-occurrence order; an exception from a renaming propagates."""
    if isinstance(formula, Atom):
        term = formula.term
        new_pred = pred(formula.pred)
        if isinstance(term, Const):
            return Atom(new_pred, Const(const(term.name)))
        return Atom(new_pred, Var(var(term.name)))
    if isinstance(formula, Not):
        return Not(substitute(formula.sub, pred, const, var))
    if isinstance(formula, Binary):
        return type(formula)(
            substitute(formula.left, pred, const, var),
            substitute(formula.right, pred, const, var),
        )
    if isinstance(formula, Quantified):
        return type(formula)(var(formula.var), substitute(formula.body, pred, const, var))
    raise TypeError(f"not a formula node: {formula!r}")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def render_formula(formula: Formula) -> str:
    """Canonical spaced rendering; ``parse_formula`` inverts it."""
    return _render(formula, _LEVEL_QUANT)


def _render(f: Formula, required: int) -> str:
    if isinstance(f, Atom):
        return f"{f.pred} {f.term.name}"
    if isinstance(f, Not):
        return "not " + _render(f.sub, _LEVEL_NOT)
    if isinstance(f, Binary):
        level = f.level
        text = f"{_render(f.left, level + 1)} {f.symbol} {_render(f.right, level)}"
    elif isinstance(f, Quantified):
        level = _LEVEL_QUANT
        text = f"({f.mark}{f.var}): " + _render(f.body, _LEVEL_QUANT)
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


# The binary connectives by the token kind that spells them.
_BINARY_BY_KIND = {node.kind: node for node in Binary.__subclasses__()}


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

    # formula := quantifier-prefix formula | binary-expression
    def formula(self, bound: frozenset[str]) -> Formula:
        ahead = self._quantifier_ahead()
        if ahead is None:
            return self.binary_expr(bound, _LEVEL_QUANT)
        node, var_tok, width = ahead
        self.i += width
        var = var_tok.text
        if var not in VARIABLE_NAMES:
            self.fail(
                f"quantifier must bind one of {', '.join(VARIABLE_NAMES)}, got {var!r}",
                var_tok,
            )
        if var in bound:
            self.fail(f"variable {var!r} is already bound", var_tok)
        return node(var, self.formula(bound | {var}))

    def _quantifier_ahead(self):
        """``(ForAll, variable token, 4)`` for a prefix ``(x):``, ``(Exists,
        variable token, 5)`` for ``(Ex):``, else None.  It takes up to five
        tokens of lookahead to tell ``(Ex):`` from a parenthesized atom
        ``(Ex)``."""
        if self.peek().kind != "lparen":
            return None
        t1, t2, t3 = self.peek(1), self.peek(2), self.peek(3)
        if t1.kind == "lower" and t2.kind == "rparen" and t3.kind == "colon":
            return ForAll, t1, 4
        if (
            t1.text == "E"
            and t2.kind == "lower"
            and t3.kind == "rparen"
            and self.peek(4).kind == "colon"
        ):
            return Exists, t2, 5
        return None

    # binary-expression := unary-expression [connective binary-expression],
    # grouped by the connectives' binding levels
    def binary_expr(self, bound, level: int) -> Formula:
        """An expression whose connectives bind at ``level`` or tighter.  The
        operand right of a connective takes every connective that binds as
        tightly as it does, so connectives of one level group to the right."""
        left = self.unary_expr(bound)
        while True:
            node = _BINARY_BY_KIND.get(self.peek().kind)
            if node is None or node.level < level:
                return left
            self.next()
            left = node(left, self.binary_expr(bound, node.level))

    def unary_expr(self, bound) -> Formula:
        tok = self.peek()
        if tok.kind == "not":
            self.next()
            return Not(self.unary_expr(bound))
        return self.primary(bound)

    def primary(self, bound) -> Formula:
        tok = self.peek()
        if tok.kind == "lparen":
            if self._quantifier_ahead() is not None:
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

    def atom(self, bound) -> Formula:
        pred_tok = self.next()
        term_tok = self.peek()
        if term_tok.kind == "lparen":
            self.fail(
                "predicates are unary and written without parentheses (e.g. 'F x')",
                term_tok,
            )
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
