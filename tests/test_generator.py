"""Corpus generator tests: sampling, verbalization, composition, corpora."""

import json
import random

import pytest

from deepa2 import generator
from deepa2.cli import EXIT_OK, main
from deepa2.dimensions import DimensionId
from deepa2.errors import ConfigError, GenerationError
from deepa2.formula import check_entailment, check_satisfiable, parse_formula, predicates_of
from deepa2.generator import (
    GeneratorConfig,
    generate_corpus,
    subset_census,
    validate_record,
    verbalize_argument,
)
from deepa2.lexicon import builtin_lexicon
from deepa2.metrics import evaluate_analysis, work_dict_of_record
from deepa2.records import (
    QuotedStatement,
    _render,
    classify_subsets,
    parse_dimension,
    record_to_dict,
)

from . import reference_validate
from .helpers import with_parts


def small_corpus(n=40, seed=11, **overrides):
    return generate_corpus(GeneratorConfig(**overrides), n, seed=seed)


def sample_tree(config, rng):
    """An argument tree, resampled past unification dead ends."""
    while True:
        try:
            return generator._try_sample_tree(config, rng)
        except generator._DeadEnd:
            continue


def records_with_distractors(config, n, seed):
    """n accepted records with the distractors of their sources, built
    through the one build path from one generator."""
    rng = random.Random(seed)
    lexicon = builtin_lexicon(config.lexicon_id)
    built = []
    while len(built) < n:
        try:
            built.append(
                generator._generate_record(config, rng, lexicon, f"r-{len(built)}")
            )
        except generator._RecordRejected:
            continue
    return built


class TestSampleArgument:
    def test_every_sampled_tree_is_valid(self):
        rng = random.Random(0)
        config = GeneratorConfig()
        for _ in range(150):
            tree = sample_tree(config, rng)
            premises = [s.formula for s in tree.premises]
            assert check_entailment(premises, tree.final.formula)

    def test_step_counts_span_one_to_four(self):
        rng = random.Random(1)
        config = GeneratorConfig()
        sizes = {len(sample_tree(config, rng).steps) for _ in range(120)}
        assert sizes == {1, 2, 3, 4}

    def test_plain_flavor_yields_simple_single_steps(self):
        config = GeneratorConfig(
            step_weights=(1.0,), p_intricate=0.0,
        )
        rng = random.Random(2)
        for _ in range(40):
            tree = sample_tree(config, rng)
            assert len(tree.steps) == 1
            assert not tree.steps[0].variant.intricate

    def test_intricate_chains_appear(self):
        config = GeneratorConfig(step_weights=(0, 0, 0, 1.0), p_intricate=1.0)
        rng = random.Random(3)
        seen_intricate = False
        for _ in range(60):
            tree = sample_tree(config, rng)
            assert len(tree.steps) == 4
            if any(s.variant.intricate for s in tree.steps):
                seen_intricate = True
        assert seen_intricate


class TestVerbalize:
    def test_keys_cover_formalization_letters(self):
        rng = random.Random(4)
        config = GeneratorConfig()
        lexicon = builtin_lexicon("places_people")
        for _ in range(60):
            tree = sample_tree(config, rng)
            verbalized = verbalize_argument(tree, lexicon, rng)
            letters = {letter for letter, _ in verbalized.keys}
            used = set()
            for q in verbalized.premises_form + verbalized.conclusion_form:
                used |= predicates_of(parse_formula(q.text))
            assert used <= letters

    def test_repeated_statement_texts_reject_the_attempt(self, monkeypatch):
        """Statement texts come out pairwise distinct or not at all; the
        basic-flaw bits of a generated record rest on this."""
        rng = random.Random(4)
        tree = sample_tree(GeneratorConfig(), rng)
        monkeypatch.setattr(generator, "render_statement", lambda *args: "Same text.")
        with pytest.raises(GenerationError, match="could not verbalize statements uniquely"):
            verbalize_argument(tree, builtin_lexicon("places_people"), rng)

    def test_dilemma_record_shape(self):
        # A one-step generalized dilemma yields the three-premise,
        # one-conclusion, four-key record shape.
        config = GeneratorConfig(step_weights=(1.0,), p_intricate=1.0)
        rng = random.Random(5)
        lexicon = builtin_lexicon("places_people")
        for _ in range(200):
            tree = sample_tree(config, rng)
            if tree.steps[0].variant.scheme_name == "generalized dilemma":
                verbalized = verbalize_argument(tree, lexicon, rng)
                assert len(verbalized.premises) == 3
                assert len(verbalized.conclusion) == 1
                assert len(verbalized.premises_form) == 3
                assert len(verbalized.keys) == 4
                return
        pytest.fail("no generalized dilemma sampled in 200 tries")


class TestComposeAndValidate:
    def test_generated_records_validate(self):
        config = GeneratorConfig()
        for record, distractors in records_with_distractors(config, 30, seed=21):
            assert validate_record(record, distractors) == []

    def test_plain_records_quote_every_statement(self):
        for record in small_corpus(120, seed=22):
            if "plain" not in classify_subsets(record.meta):
                continue
            quoted = {q.ref for q in record.reasons + record.conjectures}
            assert quoted == {n for n, _ in record.argdown.statements}
            report = evaluate_analysis(work_dict_of_record(record), record)
            assert report.exe_meq == 1

    def test_mutilated_records_hide_statements_and_add_distractors(self):
        found = False
        for record, distractors in records_with_distractors(GeneratorConfig(), 400, seed=23):
            if "mutilated" not in classify_subsets(record.meta):
                continue
            found = True
            quoted = {q.ref for q in record.reasons + record.conjectures}
            premise_numbers = {q.ref for q in record.premises}
            assert len(premise_numbers - quoted) >= 2
            assert record.meta.n_distractors == 2
            for distractor in distractors:
                assert distractor.text in record.source
                assert all(distractor.text != q.text for q in record.reasons)
                assert all(distractor.text != q.text for q in record.conjectures)
        assert found, "no mutilated record in 400"

    def test_distractors_do_not_change_entailment(self):
        checked = 0
        for record, distractors in records_with_distractors(GeneratorConfig(), 120, seed=24):
            if not distractors:
                continue
            premises = [parse_formula(q.text) for q in record.premises_form]
            conclusion = parse_formula(record.conclusion_form[0].text)
            with_noise = premises + [d.formula for d in distractors]
            assert check_entailment(premises, conclusion)
            assert check_entailment(with_noise, conclusion)
            checked += 1
        assert checked >= 30

    def test_each_distractor_has_letters_of_its_own(self):
        """``validate_record`` decides the premises alone.  That decides the
        premises and their distractors together only if every distractor
        shape is satisfiable and no two of them share a predicate letter."""
        assert all(check_satisfiable([parse_formula(shape)])
                   for shape in generator._DISTRACTOR_SHAPES)
        config = GeneratorConfig(distractor_weights=(0, 0, 1))
        for record, distractors in records_with_distractors(config, 60, seed=26):
            tree = set().union(*(predicates_of(parse_formula(q.text))
                                 for q in record.premises_form + record.conclusion_form))
            parts = [tree, *(predicates_of(d.formula) for d in distractors)]
            assert len(distractors) == 2
            assert sum(map(len, parts)) == len(set().union(*parts))

    def test_final_conclusion_quote_tracks_explicitness(self):
        for record in small_corpus(80, seed=25):
            final_number = record.argdown.statements[-1][0]
            quoted = any(q.ref == final_number for q in record.conjectures)
            assert quoted == record.meta.final_conclusion_explicit


class TestRoundTrip:
    def test_part_that_does_not_round_trip_is_rejected(self):
        """The full validator rejects a part that does not parse back from
        its text; the generator's parts do by construction, so
        ``validate_record`` leaves the check to the differential test."""
        config = GeneratorConfig()
        (record, distractors), = records_with_distractors(config, 1, seed=8)
        assert reference_validate.validate_record(record, config, distractors) == []
        first, *rest = record.reasons
        # Rendered as written, parsed back without the doubled space.
        spaced = QuotedStatement(first.text.replace(" ", "  ", 1), first.ref)
        bad = with_parts(record, reasons=(spaced, *rest))
        assert "serialization round trip failed" in reference_validate.validate_record(
            bad, config, distractors
        )

    @pytest.mark.parametrize("preset", ["aaac01", "aaac02"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_texts_are_canonical(self, tmp_path, preset, seed):
        """Loading keeps texts verbatim, so every text generate writes must
        be the rendering of its own parse."""
        out = tmp_path / "corpus.jsonl"
        argv = ["generate", "--preset", preset, "-n", "40", "--seed", str(seed),
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 40
        for line in lines:
            data = json.loads(line)
            for dim in DimensionId:
                text = data[dim.keyword]
                assert _render(dim, parse_dimension(text, dim)) == text, dim


class TestCorpus:
    def test_deterministic_under_seed(self):
        a = [record_to_dict(r) for r in small_corpus(25, seed=31)]
        b = [record_to_dict(r) for r in small_corpus(25, seed=31)]
        assert json.dumps(a) == json.dumps(b)

    def test_different_seeds_differ(self):
        a = [record_to_dict(r) for r in small_corpus(10, seed=32)]
        b = [record_to_dict(r) for r in small_corpus(10, seed=33)]
        assert a != b

    def test_census_covers_all_subsets(self):
        census = subset_census(small_corpus(800, seed=34))
        for tag in ("simple", "complex", "plain", "mutilated", "C&M"):
            assert census[tag] > 0, census

    def test_record_ids_unique(self):
        records = small_corpus(50, seed=35)
        ids = [r.meta.record_id for r in records]
        assert len(set(ids)) == len(ids)

    def test_imprecise_preset_generates(self):
        config = GeneratorConfig.preset("aaac02")
        records = generate_corpus(config, 15, seed=36)
        assert all(r.meta.domain_tag == "sports_clubs" for r in records)


class TestLexicons:
    def test_disjoint_phrase_pools(self):
        a = set(builtin_lexicon("places_people").phrases())
        b = set(builtin_lexicon("sports_clubs").phrases())
        assert a and b
        assert not a & b

    def test_disjoint_names(self):
        a = set(builtin_lexicon("places_people").names)
        b = set(builtin_lexicon("sports_clubs").names)
        assert not a & b


class TestConfig:
    def test_round_trip(self):
        config = GeneratorConfig(step_weights=(0.5, 0.5), p_intricate=0.2)
        assert GeneratorConfig.from_dict(config.to_dict()) == config

    def test_bad_distribution_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(step_weights=())

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            GeneratorConfig.preset("aaac99")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig.from_dict({"nonsense": 1})


def always_rejected(config, rng, lexicon, record_id):
    raise generator._RecordRejected(["always rejected"])


def always_failing(config, rng, lexicon, record_id):
    raise ConfigError("boom")


def test_failure_rate_overrun_names_the_last_rejection(monkeypatch):
    monkeypatch.setattr(generator, "_generate_record", always_rejected)
    with pytest.raises(GenerationError) as failed:
        generate_corpus(GeneratorConfig(), 120, seed=5)
    assert "last rejection: ['always rejected']" in str(failed.value)


def test_build_errors_reach_the_caller(monkeypatch):
    monkeypatch.setattr(generator, "_generate_record", always_failing)
    with pytest.raises(ConfigError, match="boom"):
        generate_corpus(GeneratorConfig(), 60, seed=6)
