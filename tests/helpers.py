"""Shared fixtures and randomized-input builders for the test suite."""

from __future__ import annotations

import random

from deepa2.argdown import parse_argdown
from deepa2.dimensions import DimensionId
from deepa2.formula.syntax import (
    And,
    Atom,
    Const,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
)
from deepa2.records import DeepA2Record, QuotedStatement, RecordMeta

_VAR_NAMES = ("x", "y", "z")


def random_closed_formula(
    rng: random.Random,
    predicates: tuple[str, ...] = ("F", "G", "H"),
    constants: tuple[str, ...] = ("a", "b"),
    max_depth: int = 4,
) -> Formula:
    """A random closed formula over the given signature."""
    if constants and rng.random() < 0.35:
        return _random_body(rng, predicates, constants, (), max_depth)
    return _random_quantified(rng, predicates, constants, (), max_depth)


def _random_quantified(rng, predicates, constants, scope, depth) -> Formula:
    var = next(v for v in _VAR_NAMES if v not in scope)
    body = _random_body(rng, predicates, constants, scope + (var,), depth - 1)
    return (ForAll if rng.random() < 0.7 else Exists)(var, body)


def _random_atom(rng, predicates, constants, scope) -> Formula:
    pred = rng.choice(predicates)
    terms = list(scope) + list(constants)
    name = rng.choice(terms) if terms else "a"
    term = Var(name) if name in _VAR_NAMES else Const(name)
    return Atom(pred, term)


def _random_body(rng, predicates, constants, scope, depth) -> Formula:
    if depth <= 0:
        return _random_atom(rng, predicates, constants, scope)
    roll = rng.random()
    if roll < 0.25:
        return _random_atom(rng, predicates, constants, scope)
    if roll < 0.40:
        return Not(_random_body(rng, predicates, constants, scope, depth - 1))
    if roll < 0.50 and len(scope) < len(_VAR_NAMES):
        return _random_quantified(rng, predicates, constants, scope, depth)
    op = rng.choice((And, Or, Implies, Implies, Iff))
    return op(
        _random_body(rng, predicates, constants, scope, depth - 1),
        _random_body(rng, predicates, constants, scope, depth - 1),
    )


_DILEMMA_ARGDOWN = """\
(1) If someone is an admirer of Chico, then they are an admirer of Laguna Beach or a visitor of Stockton.
(2) If someone admires Laguna Beach, then they haven't visited Monterey.
(3) If someone has visited Stockton, then they haven't visited Monterey.
-- with generalized dilemma (neg variant) from (1) (2) (3) --
(4) If someone admires Chico, then they haven't visited Monterey.
"""


def dilemma_record(record_id: str = "dilemma-0") -> DeepA2Record:
    """A fully-dimensioned one-step record (two implicit premises, one
    distractor sentence, explicit final conclusion)."""
    arg = parse_argdown(_DILEMMA_ARGDOWN)
    statements = dict(arg.statements)
    return DeepA2Record.from_parts(
        source=(
            "It is not the case that Tracy is not an admirer of Fullerton and "
            "Tracy has seen La Habra. Plus, if someone loves Chico, then they "
            "haven't visited Monterey, owing to the fact that loving Laguna "
            "Beach is sufficient for not having visited Monterey."
        ),
        reasons=(
            QuotedStatement(
                "loving Laguna Beach is sufficient for not having visited Monterey", 2
            ),
        ),
        conjectures=(
            QuotedStatement("if someone loves Chico, then they haven't visited Monterey", 4),
        ),
        argdown=arg,
        premises=tuple(QuotedStatement(statements[n], n) for n in (1, 2, 3)),
        conclusion=(QuotedStatement(statements[4], 4),),
        premises_form=(
            QuotedStatement("(x): F x -> G x v H x", 1),
            QuotedStatement("(x): G x -> not I x", 2),
            QuotedStatement("(x): H x -> not I x", 3),
        ),
        conclusion_form=(QuotedStatement("(x): F x -> not I x", 4),),
        keys=(
            ("F", "admirer of Chico"),
            ("G", "admirer of Laguna Beach"),
            ("H", "visitor of Stockton"),
            ("I", "visitor of Monterey"),
        ),
        meta=RecordMeta(
            record_id=record_id,
            n_inference_steps=1,
            n_implicit_premises=2,
            n_implicit_conclusions=0,
            final_conclusion_explicit=True,
            n_distractors=1,
            uses_complex_schemes=True,
            domain_tag="places_people",
        ),
    )


def with_parts(record: DeepA2Record, **changes) -> DeepA2Record:
    """The record with the named parts (or ``meta``) replaced, built through
    ``DeepA2Record.from_parts``; a part set to None is dropped."""
    parts = {dim.keyword: record.get(dim) for dim in DimensionId}
    parts.update(changes)
    meta = parts.pop("meta", record.meta)
    return DeepA2Record.from_parts(meta=meta, **parts)


def random_formula_set(
    rng: random.Random,
    max_premises: int = 3,
    predicates: tuple[str, ...] = ("F", "G", "H"),
    constants: tuple[str, ...] = ("a", "b"),
    max_depth: int = 4,
) -> tuple[list[Formula], Formula]:
    """A random (premises, conclusion) pair for entailment cross-checks."""
    n = rng.randint(0, max_premises)
    premises = [
        random_closed_formula(rng, predicates, constants, max_depth) for _ in range(n)
    ]
    conclusion = random_closed_formula(rng, predicates, constants, max_depth)
    return premises, conclusion


def block_disjunctions(rng: random.Random, n: int) -> list[str]:
    """n premise texts ``((Ex): l1 & l2 & l3 & l4) v ((Ex): ...)``, each l a
    literal of x over four distinct letters of ``FGHIJKLMNP``.  Each premise
    is two quantifier blocks, so the decider's search branches about once
    per premise: it goes deeper the more premises there are."""

    def block():
        letters = rng.sample("FGHIJKLMNP", 4)
        return "((Ex): " + " & ".join(
            ("not " if rng.randrange(2) else "") + f"{letter} x" for letter in letters
        ) + ")"

    return [f"{block()} v {block()}" for _ in range(n)]
