"""Brute-force model enumeration used as an independent oracle in tests.

Evaluates formulas by direct recursive semantics over explicitly enumerated
finite structures.  Shares no code with the witness-set elimination in
``deepa2.formula.decide``.

Domains are enumerated as sets of predicate profiles.  In a language without
equality an element is indistinguishable from any other element with the
same profile, so enumerating profile sets covers every interpretation within
the 2^k + m small-model bound (duplicate-profile elements never change any
formula's truth value).
"""

from __future__ import annotations

from itertools import combinations, product

from deepa2.formula.syntax import (
    And,
    Atom,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    constants_of,
    predicates_of,
)


def _evaluate(f: Formula, elements: list[int], bits: dict[str, int],
              cmap: dict[str, int], env: dict[str, int]) -> bool:
    if isinstance(f, Atom):
        if isinstance(f.term, Var):
            profile = elements[env[f.term.name]]
        else:
            profile = elements[cmap[f.term.name]]
        return bool(profile & bits[f.pred])
    if isinstance(f, Not):
        return not _evaluate(f.sub, elements, bits, cmap, env)
    if isinstance(f, And):
        return _evaluate(f.left, elements, bits, cmap, env) and _evaluate(
            f.right, elements, bits, cmap, env
        )
    if isinstance(f, Or):
        return _evaluate(f.left, elements, bits, cmap, env) or _evaluate(
            f.right, elements, bits, cmap, env
        )
    if isinstance(f, Implies):
        return (not _evaluate(f.left, elements, bits, cmap, env)) or _evaluate(
            f.right, elements, bits, cmap, env
        )
    if isinstance(f, Iff):
        return _evaluate(f.left, elements, bits, cmap, env) == _evaluate(
            f.right, elements, bits, cmap, env
        )
    if isinstance(f, ForAll):
        return all(
            _evaluate(f.body, elements, bits, cmap, {**env, f.var: i})
            for i in range(len(elements))
        )
    if isinstance(f, Exists):
        return any(
            _evaluate(f.body, elements, bits, cmap, {**env, f.var: i})
            for i in range(len(elements))
        )
    raise TypeError(f"not a formula node: {f!r}")


def brute_force_satisfiable(formulas: list[Formula]) -> bool:
    """Exhaustively search all structures (up to elementary equivalence)."""
    if not formulas:
        return True
    preds = sorted(set().union(*(predicates_of(f) for f in formulas)))
    consts = sorted(set().union(*(constants_of(f) for f in formulas)))
    bits = {p: 1 << i for i, p in enumerate(preds)}
    profiles = list(range(1 << len(preds)))

    no_const = [f for f in formulas if not constants_of(f)]
    with_const = [f for f in formulas if constants_of(f)]

    for size in range(1, len(profiles) + 1):
        for chosen in combinations(profiles, size):
            elements = list(chosen)
            if not all(
                _evaluate(f, elements, bits, {}, {}) for f in no_const
            ):
                continue
            for assignment in product(range(size), repeat=len(consts)):
                cmap = dict(zip(consts, assignment))
                if all(
                    _evaluate(f, elements, bits, cmap, {}) for f in with_const
                ):
                    return True
    return False


def brute_force_entails(premises: list[Formula], conclusion: Formula) -> bool:
    return not brute_force_satisfiable(list(premises) + [Not(conclusion)])
