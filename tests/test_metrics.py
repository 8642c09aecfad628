"""Metric-suite unit tests with hand-computed expectations."""

import math
import random

import pytest

from deepa2.argdown import parse_argdown
from deepa2.dimensions import DimensionId
from deepa2.errors import UndefinedMetricError
from deepa2.formula import check_entailment
from deepa2.memo import clear_memos
from deepa2.metrics import (
    default_scorer,
    eval_basic_flaws,
    eval_exe_meq,
    eval_exe_ppr,
    eval_exe_rss,
    eval_exe_jss,
    eval_exe_te,
    eval_sys_val,
    evaluate_analysis,
    te_prediction,
)
from deepa2.records import QuotedStatement


def qs(text, ref=None):
    return QuotedStatement(text, ref)


SIMPLE_BLOCK = "(1) p one.\n(2) p two.\n-- from (1) (2) --\n(3) c final."


class TestDefaultScorer:
    def test_identity_scores_one(self):
        assert default_scorer("some text here", "some text here") == 1.0

    def test_disjoint_scores_minus_one(self):
        assert default_scorer("a b", "c d") == -1.0

    def test_two_thirds_overlap(self):
        assert math.isclose(default_scorer("a b c", "a b d"), 2 * (2 / 3) - 1)

    def test_symmetric(self):
        rng = random.Random(5)
        words = "alpha beta gamma delta".split()
        for _ in range(200):
            a = " ".join(rng.choices(words, k=rng.randint(1, 6)))
            b = " ".join(rng.choices(words, k=rng.randint(1, 6)))
            assert abs(default_scorer(a, b) - default_scorer(b, a)) < 1e-9


def test_token_f1_matches_multiset_intersection(monkeypatch):
    from collections import Counter

    from deepa2 import textnorm

    def reference(a, b):
        ta, tb = Counter(textnorm.tokenize(a)), Counter(textnorm.tokenize(b))
        na, nb = sum(ta.values()), sum(tb.values())
        if na == 0 and nb == 0:
            return 1.0
        overlap = sum((ta & tb).values())
        if overlap == 0:
            return 0.0
        return 2 * (overlap / na) * (overlap / nb) / (overlap / na + overlap / nb)

    rng = random.Random(4)
    words = ["a", "b", "c", "d", "e", "Don't", "x1", "--", ""]
    texts = [" ".join(rng.choices(words, k=rng.randrange(6))) for _ in range(40)]
    pairs = [(rng.choice(texts), rng.choice(texts)) for _ in range(300)]
    expected = [reference(a, b) for a, b in pairs]

    tokenized = []
    tokenize = textnorm.tokenize
    monkeypatch.setattr(textnorm, "tokenize", lambda t: tokenized.append(t) or tokenize(t))
    assert [textnorm.token_f1(a, b) for a, b in pairs] == expected
    assert sorted(tokenized) == sorted({t for pair in pairs for t in pair})


class TestBasicFlaws:
    def test_premise_equal_to_conclusion_flags_pp(self):
        arg = parse_argdown("(1) p.\n(2) q.\n-- from (1) (2) --\n(3) p.")
        assert eval_basic_flaws(arg)[0] == 0

    def test_duplicated_premise_flags_rp(self):
        arg = parse_argdown("(1) p.\n(2) p.\n-- from (1) (2) --\n(3) c.")
        pp, rp, rc, us = eval_basic_flaws(arg)
        assert rp == 0 and rc == 1

    def test_unused_statement_flags_us(self):
        arg = parse_argdown("(1) p.\n(2) x.\n-- from (1) --\n(3) c.")
        assert eval_basic_flaws(arg)[3] == 0

    def test_clean_argument_passes_all(self):
        arg = parse_argdown(SIMPLE_BLOCK)
        assert eval_basic_flaws(arg) == (1, 1, 1, 1)

    def test_duplicated_intermediate_conclusion_flags_rc(self):
        block = (
            "(1) p.\n-- from (1) --\n(2) same.\n"
            "(3) q.\n-- from (2) (3) --\n(4) same."
        )
        arg = parse_argdown(block)
        assert eval_basic_flaws(arg)[2] == 0


class TestSysVal:
    def test_valid_forms(self):
        premises = (
            qs("(x): Fx -> (G x v H x)", 1),
            qs("(x): G x -> not I x", 2),
            qs("(x): H x -> not I x", 3),
        )
        conclusion = (qs("(x): F x -> not I x", 4),)
        assert eval_sys_val(premises, conclusion) == 1

    def test_non_sequitur(self):
        assert eval_sys_val((qs("F a"),), (qs("G a"),)) == 0

    def test_unparseable_formula_scores_zero_with_diagnostic(self):
        diag = []
        assert eval_sys_val((qs("F x y"),), (qs("G a"),), diag) == 0
        assert diag

    def test_each_formalization_is_decided_once(self, monkeypatch):
        import deepa2.metrics as metrics

        decided = []

        def counting(premises, conclusion):
            decided.append((tuple(premises), conclusion))
            return check_entailment(premises, conclusion)

        monkeypatch.setattr(metrics, "check_entailment", counting)
        premises = (qs("(x): F x -> G x", 1), qs("F a", 2))
        for ref in (3, 4):
            assert eval_sys_val(premises, (qs("G a", ref),)) == 1
        assert eval_sys_val(premises, (qs("H a"),)) == 0
        assert len(decided) == 2

        diagnostics = []
        for _ in range(2):
            diag = ["earlier"]
            assert eval_sys_val((qs("F x y"),), (qs("G a"),), diag) == 0
            diagnostics.append(diag)
        assert diagnostics[0] == diagnostics[1]
        assert len(diagnostics[0]) == 2 and diagnostics[0][1].startswith("sys_val: ")
        assert len(decided) == 2

    def test_conclusion_count_is_checked_before_the_memo(self):
        premises = (qs("F a"),)
        assert eval_sys_val(premises, (qs("F a"),)) == 1
        diag = []
        assert eval_sys_val(premises, (qs("F a"), qs("F a")), diag) == 0
        assert diag == ["conclusion_form must hold exactly one formula, got 2"]


class TestMeq:
    def test_disjoint_quotes_found(self):
        source = "It is unethical to destroy embryos. The argument stresses that killing is wrong."
        reasons = (qs("killing is wrong", 1),)
        conjectures = (qs("It is unethical to destroy embryos", 3),)
        assert eval_exe_meq(source, reasons, conjectures) == 1

    def test_non_substring_fails(self):
        assert eval_exe_meq("some text", (), (qs("absent claim", 1),)) == 0

    def test_overlapping_spans_fail(self):
        source = "alpha beta gamma delta"
        reasons = (qs("alpha beta gamma"), qs("beta gamma delta"))
        assert eval_exe_meq(source, reasons, ()) == 0

    def test_repeated_quote_needs_two_occurrences(self):
        assert eval_exe_meq("hi there hi there", (qs("hi there"), qs("hi there")), ()) == 1
        assert eval_exe_meq("hi there once", (qs("hi there"), qs("hi there")), ()) == 0

    def test_no_quotes_is_vacuously_exclusive(self):
        assert eval_exe_meq("whatever", (), ()) == 1


class TestRssJss:
    def test_resolvable_refs_score_high(self):
        arg = parse_argdown(SIMPLE_BLOCK)
        reasons = (qs("p one", 1), qs("p two", 2))
        assert eval_exe_rss(reasons, arg) == 1.0

    def test_dangling_ref_contributes_minus_one(self):
        arg = parse_argdown(SIMPLE_BLOCK)
        reasons = (qs("p one", 1), qs("p two", 2), qs("phantom", 9))
        # premises (1) and (2) score 1.0 each; the dangling quote adds -1.
        assert math.isclose(eval_exe_rss(reasons, arg), (1.0 + 1.0 - 1.0) / 3)

    def test_implicit_premise_contributes_exactly_minus_one(self):
        arg = parse_argdown(SIMPLE_BLOCK)
        reasons = (qs("p one", 1),)
        assert math.isclose(eval_exe_rss(reasons, arg), (1.0 - 1.0) / 2)

    def test_no_reasons_is_neutral(self):
        arg = parse_argdown(SIMPLE_BLOCK)
        assert eval_exe_rss((), arg) == 0.0

    def test_jss_uses_conclusions(self):
        arg = parse_argdown(SIMPLE_BLOCK)
        assert eval_exe_jss((qs("c final", 3),), arg) == 1.0

    def test_dangling_replacement_never_raises_mean(self):
        arg = parse_argdown(SIMPLE_BLOCK)
        rng = random.Random(17)
        for _ in range(200):
            quotes = [
                qs(" ".join(rng.choices(["p", "one", "two", "zz"], k=3)), rng.choice([1, 2]))
                for _ in range(rng.randint(1, 3))
            ]
            base = eval_exe_rss(tuple(quotes), arg)
            k = rng.randrange(len(quotes))
            broken = list(quotes)
            broken[k] = QuotedStatement(broken[k].text, 42)
            assert eval_exe_rss(tuple(broken), arg) <= base + 1e-9


class TestPprPpj:
    def test_identity_is_one(self):
        assert eval_exe_ppr(["a b c", "d e f"], ["a b c", "d e f"]) == 1.0

    def test_half_recall(self):
        got = eval_exe_ppr(["a b c"], ["a b c", "d e f"])
        assert math.isclose(got, 2 * 1.0 * 0.5 / 1.5)

    def test_disjoint_is_zero(self):
        assert eval_exe_ppr(["a b"], ["c d"]) == 0.0

    def test_both_empty_is_one(self):
        assert eval_exe_ppr([], []) == 1.0

    def test_one_to_one_matching(self):
        # Two identical predictions cannot both match a single target.
        got = eval_exe_ppr(["a b c", "a b c"], ["a b c"])
        assert math.isclose(got, 2 * 0.5 * 1.0 / 1.5)


class TestTe:
    def test_all_correct(self):
        assert eval_exe_te([(True, True), (False, False), (True, True)]) == 1.0

    def test_never_predicting_explicit_when_half_are(self):
        assert eval_exe_te([(False, True), (False, False), (False, True)]) == 0.0

    def test_all_implicit_convention(self):
        assert eval_exe_te([(False, False), (False, False)]) == 1.0

    def test_empty_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            eval_exe_te([])

    def test_prediction_rule(self):
        arg = parse_argdown(SIMPLE_BLOCK)
        assert te_prediction((qs("c final", 3),), arg) is True
        assert te_prediction((qs("c final", 1),), arg) is False
        assert te_prediction((), None) is False


class TestFullSuiteOnReferenceRecord:
    def test_dilemma_record_scores_like_target_data(self):
        from deepa2.metrics import evaluate_analysis, work_dict_of_record
        from .helpers import dilemma_record

        record = dilemma_record()
        report = evaluate_analysis(work_dict_of_record(record), target=record)
        assert report.basic_flaw_bits == (1, 1, 1, 1)
        assert report.sys_val == 1
        assert report.sys_sch == 1.0
        assert report.exe_meq == 1
        assert report.exe_ppr == 1.0 and report.exe_ppj == 1.0
        assert report.exe_te_prediction is True
        # Two implicit premises drag the reason-coherence mean down.
        assert report.exe_rss < 0

    def test_each_formalization_is_parsed_once(self):
        from deepa2.formula import parse_formula
        from deepa2.metrics import evaluate_analysis, work_dict_of_record
        from .helpers import dilemma_record

        record = dilemma_record()
        work = work_dict_of_record(record)
        expected = evaluate_analysis(work, target=record)
        clear_memos()
        assert evaluate_analysis(work, target=record) == expected
        assert evaluate_analysis(work, target=record) == expected
        formal = [q.text for q in record.premises_form + record.conclusion_form]
        assert parse_formula.cache_info().misses == len(set(formal))


class TestGarbageRobustness:
    def test_garbage_work_dict_yields_in_range_report(self):
        work = {
            DimensionId.SOURCE: "some source text",
            DimensionId.ARGDOWN: "complete (34 nonsense !!",
            DimensionId.REASONS: "a quote (ref: (xx",
            DimensionId.CONJECTURES: "",
            DimensionId.PREMISES_FORM: "@@garbage",
            DimensionId.CONCLUSION_FORM: "",
        }
        report = evaluate_analysis(work)
        assert report.sys_pp == report.sys_val == 0
        assert report.sys_sch == 0.0
        assert -1.0 <= report.exe_rss <= 1.0
        assert -1.0 <= report.exe_jss <= 1.0
        assert report.exe_meq in (0, 1)
        assert report.diagnostics

    @pytest.mark.parametrize("dim", [
        DimensionId.REASONS, DimensionId.CONJECTURES,
        DimensionId.PREMISES_FORM, DimensionId.CONCLUSION_FORM,
    ], ids=lambda dim: dim.keyword)
    def test_reference_to_statement_zero_is_a_diagnostic(self, dim):
        from deepa2.metrics import work_dict_of_record
        from .helpers import dilemma_record

        record = dilemma_record()
        work = work_dict_of_record(record)
        work[dim] += " (ref: (0))"
        report = evaluate_analysis(work, target=record)
        assert report.sys_pp in (0, 1) and report.sys_val in (0, 1)
        assert report.sys_sch is None or 0.0 <= report.sys_sch <= 1.0
        assert -1.0 <= report.exe_rss <= 1.0
        assert -1.0 <= report.exe_jss <= 1.0
        assert any(
            d.startswith(f"{dim.keyword}: statement reference must be positive, got 0")
            for d in report.diagnostics
        )

    def test_empty_work_dict(self):
        report = evaluate_analysis({})
        assert report.sys_val == 0
        assert report.exe_rss == 0.0
        assert report.exe_te_prediction is False

    def test_random_garbage_never_aborts_and_stays_in_range(self):
        rng = random.Random(404)
        fragments = [
            "", "(1) a.", "----", "x | y", "(ref: (2))", "not", "(x):",
            "F a ->", "| | |", "keys: F:", "@@", "(12 13)", "a \\| b",
            "-- with zig from (1) --", "F: one | G:",
        ]
        for _ in range(300):
            work = {}
            for dim in DimensionId:
                if rng.random() < 0.7:
                    work[dim] = " ".join(
                        rng.choices(fragments, k=rng.randint(0, 4))
                    )
            report = evaluate_analysis(work)
            assert report.sys_pp in (0, 1) and report.sys_val in (0, 1)
            assert report.sys_sch is None or 0.0 <= report.sys_sch <= 1.0
            assert -1.0 <= report.exe_rss <= 1.0
            assert -1.0 <= report.exe_jss <= 1.0
            assert report.exe_meq in (0, 1)
