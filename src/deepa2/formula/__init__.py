"""Monadic first-order formula language: syntax, printing, and decision procedure.

The decision procedure is imported on first access, so a stage that only
parses formulas does not load it.
"""

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
    Term,
    Var,
    constants_of,
    free_variables,
    parse_formula,
    predicates_of,
    render_formula,
)

__all__ = [
    "And",
    "Atom",
    "Const",
    "Exists",
    "ForAll",
    "Formula",
    "Iff",
    "Implies",
    "Not",
    "Or",
    "Term",
    "Var",
    "check_entailment",
    "check_satisfiable",
    "constants_of",
    "free_variables",
    "parse_formula",
    "predicates_of",
    "render_formula",
]


def __getattr__(name: str):
    if name in ("check_entailment", "check_satisfiable"):
        from deepa2.formula import decide

        value = getattr(decide, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'deepa2.formula' has no attribute {name!r}")
