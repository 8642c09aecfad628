"""Scheme catalog, pattern matching, and instantiation checking tests."""

import pytest

from deepa2.argdown import InferenceStep, parse_argdown
from deepa2.errors import CatalogError
from deepa2.formula import check_entailment, parse_formula
from deepa2.schemes import (
    SchemeCatalog,
    _candidate_variants,
    builtin_catalog,
    check_scheme_instantiation,
    patterns_unify,
    sys_sch_ratio,
)

DILEMMA_BLOCK = """\
(1) If someone is an admirer of Chico, then they are an admirer of Laguna Beach or a visitor of Stockton.
(2) If someone admires Laguna Beach, then they haven't visited Monterey.
(3) If someone has visited Stockton, then they haven't visited Monterey.
-- with generalized dilemma (neg variant) from (1) (2) (3) --
(4) If someone admires Chico, then they haven't visited Monterey.
"""

DILEMMA_FORMS = {
    1: parse_formula("(x): Fx -> (G x v H x)"),
    2: parse_formula("(x): G x -> not I x"),
    3: parse_formula("(x): H x -> not I x"),
    4: parse_formula("(x): F x -> not I x"),
}


def test_builtin_catalog_contains_named_schemes():
    catalog = builtin_catalog()
    for name in (
        "modus ponens",
        "hypothetical syllogism",
        "generalized dilemma",
        "classical dilemma",
        "instantiation",
        "transposition",
        "de Morgan",
    ):
        assert catalog.get(name) is not None, name


def test_every_catalog_variant_is_valid():
    for variant in builtin_catalog().all_variants():
        assert check_entailment(list(variant.premises), variant.conclusion), variant.label


def test_invalid_scheme_rejected_at_load():
    bad = "scheme: affirming the consequent\npremise: (x): F x -> G x\npremise: G a\nconclusion: F a\n"
    with pytest.raises(CatalogError, match="not deductively valid"):
        SchemeCatalog.from_text(bad)


class TestFormalMatching:
    def test_appendix_style_dilemma_step(self):
        arg = parse_argdown(DILEMMA_BLOCK)
        step = arg.inferences[0]
        assert check_scheme_instantiation(step, arg, DILEMMA_FORMS)

    def test_wrong_scheme_shape_rejected(self):
        block = (
            "(1) p1.\n(2) p2.\n"
            "-- with modus ponens from (1) (2) --\n(3) c."
        )
        arg = parse_argdown(block)
        forms = {
            1: parse_formula("(x): F x -> G x"),
            2: parse_formula("(x): G x -> H x"),
            3: parse_formula("(x): F x -> H x"),
        }
        assert not check_scheme_instantiation(arg.inferences[0], arg, forms)

    def test_transposition_unification(self):
        block = "(1) p.\n-- with transposition from (1) --\n(2) c."
        arg = parse_argdown(block)
        forms = {
            1: parse_formula("(x): F x -> G x"),
            2: parse_formula("(x): not G x -> not F x"),
        }
        assert check_scheme_instantiation(arg.inferences[0], arg, forms)

    def test_premise_order_insensitive(self):
        block = "(1) p1.\n(2) p2.\n-- with instantiation from (1) (2) --\n(3) c."
        arg = parse_argdown(block)
        forms = {
            1: parse_formula("F a"),
            2: parse_formula("(x): F x -> G x"),
            3: parse_formula("G a"),
        }
        assert check_scheme_instantiation(arg.inferences[0], arg, forms)

    def test_unknown_scheme_is_false(self):
        block = "(1) p1.\n(2) p2.\n-- with wishful thinking from (1) (2) --\n(3) c."
        arg = parse_argdown(block)
        assert not check_scheme_instantiation(arg.inferences[0], arg, {})

    def test_intermediate_formula_derived_for_downstream_step(self):
        block = (
            "(1) p1.\n(2) p2.\n"
            "-- with hypothetical syllogism from (1) (2) --\n(3) i.\n"
            "(4) p3.\n"
            "-- with hypothetical syllogism from (3) (4) --\n(5) c."
        )
        arg = parse_argdown(block)
        forms = {
            1: parse_formula("(x): F x -> G x"),
            2: parse_formula("(x): G x -> H x"),
            4: parse_formula("(x): H x -> I x"),
            5: parse_formula("(x): F x -> I x"),
        }
        assert sys_sch_ratio(arg, forms) == 1.0


class TestNaturalLanguageMatching:
    def test_matches_template_rendered_statements(self):
        block = (
            "(1) If someone is an admirer of Chico, then they are a visitor of Stockton.\n"
            "(2) If someone is a visitor of Stockton, then they are a fan of Modesto.\n"
            "-- with hypothetical syllogism from (1) (2) --\n"
            "(3) If someone is an admirer of Chico, then they are a fan of Modesto."
        )
        arg = parse_argdown(block)
        assert check_scheme_instantiation(arg.inferences[0], arg)

    def test_inconsistent_middle_phrase_rejected(self):
        block = (
            "(1) If someone is an admirer of Chico, then they are a visitor of Stockton.\n"
            "(2) If someone is a visitor of Fresno, then they are a fan of Modesto.\n"
            "-- with hypothetical syllogism from (1) (2) --\n"
            "(3) If someone is an admirer of Chico, then they are a fan of Modesto."
        )
        arg = parse_argdown(block)
        assert not check_scheme_instantiation(arg.inferences[0], arg)

    def test_dilemma_matched_from_sentence_templates(self):
        block = (
            "(1) If someone is an admirer of Chico, then they are a visitor of Sonoma or a fan of Ukiah.\n"
            "(2) If someone is a visitor of Sonoma, then they are not a critic of Vallejo.\n"
            "(3) If someone is a fan of Ukiah, then they are not a critic of Vallejo.\n"
            "-- with generalized dilemma (neg variant) from (1) (2) (3) --\n"
            "(4) If someone is an admirer of Chico, then they are not a critic of Vallejo."
        )
        arg = parse_argdown(block)
        assert check_scheme_instantiation(arg.inferences[0], arg)

    def test_free_text_gives_false_negative_not_error(self):
        block = (
            "(1) Entirely untemplated claim one.\n"
            "(2) Another untemplated claim.\n"
            "-- with hypothetical syllogism from (1) (2) --\n"
            "(3) And an untemplated conclusion."
        )
        arg = parse_argdown(block)
        assert not check_scheme_instantiation(arg.inferences[0], arg)


class TestRatio:
    def test_half_matching_steps(self):
        block = (
            "(1) p1.\n(2) p2.\n"
            "-- with hypothetical syllogism from (1) (2) --\n(3) i.\n"
            "(4) p3.\n"
            "-- with modus ponens from (3) (4) --\n(5) c."
        )
        arg = parse_argdown(block)
        forms = {
            1: parse_formula("(x): F x -> G x"),
            2: parse_formula("(x): G x -> H x"),
            4: parse_formula("(x): H x -> I x"),
            5: parse_formula("(x): F x -> I x"),
        }
        assert sys_sch_ratio(arg, forms) == 0.5

    def test_undeclared_schemes_fall_out_of_denominator(self):
        block = "(1) a.\n(2) b.\n----\n(3) c."
        arg = parse_argdown(block)
        assert sys_sch_ratio(arg, {}) is None

    def test_matched_step_entails_its_conclusion(self):
        arg = parse_argdown(DILEMMA_BLOCK)
        step = arg.inferences[0]
        assert check_scheme_instantiation(step, arg, DILEMMA_FORMS)
        premises = [DILEMMA_FORMS[n] for n in step.from_numbers]
        assert check_entailment(premises, DILEMMA_FORMS[step.derives])


def test_pattern_unification_for_chaining():
    syll = builtin_catalog().get("hypothetical syllogism").variant_named(None)
    assert patterns_unify(syll.conclusion, syll.premises[0])
    dilemma = builtin_catalog().get("generalized dilemma").variant_named("neg variant")
    neg_syll = builtin_catalog().get("hypothetical syllogism").variant_named(
        "negation variant"
    )
    assert patterns_unify(neg_syll.conclusion, dilemma.premises[1])
    assert not patterns_unify(syll.conclusion, dilemma.premises[0])


class TestCandidateVariants:
    """Which variants a step's scheme declaration is matched against."""

    def candidates(self, variant):
        step = InferenceStep((1, 2), 3, "instantiation", variant)
        return [v.variant for v in _candidate_variants(step)]

    def test_an_exact_label_names_its_variant(self):
        assert self.candidates("bare variant") == ["bare variant"]

    def test_no_label_names_the_base_variant_only(self):
        assert self.candidates(None) == [None]

    def test_an_unknown_label_tries_every_variant(self):
        assert self.candidates("no such variant") == [
            None, "negation variant", "bare variant"
        ]

    def test_every_builtin_scheme_has_a_base_variant(self):
        for spec in builtin_catalog().schemes.values():
            assert spec.variant_named(None) is not None, spec.name
