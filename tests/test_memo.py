"""The process memos: what ``clear_memos`` empties, and what is remembered."""

import pytest

from deepa2 import memo
from deepa2.argdown import parse_argdown
from deepa2.errors import FormulaParseError
from deepa2.evaluation import _scored, oracle_reports
from deepa2.formula import parse_formula
from deepa2.generator import _satisfiable
from deepa2.metrics import _decide_sys_val
from deepa2.nl_templates import render_statement, shape_of, templates_for
from deepa2.records import _parse_statements
from deepa2.textnorm import _counted_tokens

from .helpers import dilemma_record

MEMOS = (parse_formula, parse_argdown, _parse_statements, _decide_sys_val, _scored,
         _counted_tokens, shape_of, templates_for, _satisfiable)


def test_clear_memos_empties_every_process_memo():
    # The built-in catalog, sampler and lexicons are plain caches, not
    # process memos, so clearing does not reload them.
    assert set(memo.memos) == set(MEMOS)
    oracle_reports([dilemma_record()])
    # The generator's per-formula work: a statement rendered from a template,
    # and a formalization's consistency decided.
    formula = parse_formula("F a")
    render_statement(formula, {"F": "admirer of Chico"}, {"a": "Tracy"},
                     templates_for(formula)[0])
    assert _satisfiable(("F a",))
    assert all(fn.cache_info().currsize > 0 for fn in MEMOS)
    memo.clear_memos()
    assert [fn.cache_info().currsize for fn in MEMOS] == [0] * len(MEMOS)


def test_a_raising_call_is_not_remembered():
    parse_formula("F a")
    size = parse_formula.cache_info().currsize
    for _ in range(2):
        with pytest.raises(FormulaParseError):
            parse_formula("F a @ G a")
        assert parse_formula.cache_info().currsize == size


def test_templates_for_is_one_shared_tuple_per_formula():
    formula = parse_formula("(x): F x -> G x")
    assert templates_for(formula) is templates_for(formula)
    assert isinstance(templates_for(formula), tuple) and templates_for(formula)
    loose = templates_for(formula, include_imprecise=True)
    assert set(templates_for(formula)) == {t for t in loose if not t.imprecise}
