"""Record model, dimension serialization, and subset classification tests."""

import json
import random
import traceback
from functools import cached_property

import pytest

from deepa2.argdown import parse_argdown
from deepa2.dimensions import DimensionId
from deepa2.errors import DeepA2Error, DimensionParseError, MissingDimensionError
from deepa2.formula import parse_formula
from deepa2.memo import clear_memos
from deepa2.records import (
    _parse_statements,
    DeepA2Record,
    QuotedStatement,
    RecordMeta,
    classify_subsets,
    corpus_line,
    load_corpus,
    parse_dimension,
    parse_statements,
    record_from_dict,
    record_to_dict,
    serialize_dimension,
)

KEYS = (
    ("F", "admirer of Chico"),
    ("G", "admirer of Laguna Beach"),
    ("H", "visitor of Stockton"),
    ("I", "visitor of Monterey"),
)


def make_record(**overrides) -> DeepA2Record:
    base = dict(
        source="It is wrong. Therefore it is bad.",
        reasons=(QuotedStatement("it is wrong", 1),),
        keys=KEYS,
    )
    base.update(overrides)
    return DeepA2Record.from_parts(**base)


class TestSerializeDimension:
    def test_keys_render_as_letter_phrase_pairs(self):
        record = make_record()
        assert serialize_dimension(record, DimensionId.KEYS) == (
            "F: admirer of Chico | G: admirer of Laguna Beach | "
            "H: visitor of Stockton | I: visitor of Monterey"
        )

    def test_empty_list_serializes_to_empty_string(self):
        record = make_record(reasons=())
        assert serialize_dimension(record, DimensionId.REASONS) == ""

    def test_single_premise_with_ref(self):
        record = make_record(premises=(QuotedStatement("p", 1),))
        assert serialize_dimension(record, DimensionId.PREMISES) == "p (ref: (1))"

    def test_absent_dimension_raises(self):
        record = make_record()
        with pytest.raises(MissingDimensionError):
            serialize_dimension(record, DimensionId.PREMISES)


class TestParseDimension:
    def test_reason_with_ref(self):
        got = parse_dimension(
            "it is wrong to intentionally kill innocent human beings (ref: (1))",
            DimensionId.REASONS,
        )
        assert got == (
            QuotedStatement("it is wrong to intentionally kill innocent human beings", 1),
        )

    def test_empty_string_gives_empty_list(self):
        assert parse_dimension("", DimensionId.REASONS) == ()

    def test_items_without_refs(self):
        got = parse_dimension("a | b", DimensionId.PREMISES)
        assert got == (QuotedStatement("a"), QuotedStatement("b"))
        record = make_record(premises=got)
        assert serialize_dimension(record, DimensionId.PREMISES) == "a | b"

    def test_round_trip_with_escaped_pipe(self):
        stmt = QuotedStatement("either x | or y", 2)
        record = make_record(premises=(stmt,))
        text = serialize_dimension(record, DimensionId.PREMISES)
        assert parse_dimension(text, DimensionId.PREMISES) == (stmt,)

    def test_formula_dimension_validates_items(self):
        good = parse_dimension(
            "(x): Fx -> (G x v H x) (ref: (1)) | (x): G x -> not I x (ref: (2))",
            DimensionId.PREMISES_FORM,
        )
        assert good[0].ref == 1
        with pytest.raises(DimensionParseError):
            parse_dimension("F x y (ref: (1))", DimensionId.PREMISES_FORM)

    def test_remembered_error_is_raised_as_a_fresh_copy(self):
        """A malformed text raises an equal, fresh error on every call."""
        bad = "first item | (ref: (2)) | third item"
        with pytest.raises(DimensionParseError) as first:
            parse_statements(bad)
        depth = len(traceback.extract_tb(first.value.__traceback__))
        for _ in range(3):
            with pytest.raises(DimensionParseError) as again:
                parse_statements(bad)
            assert again.value is not first.value
            assert str(again.value) == str(first.value)
            assert again.value.position == first.value.position == 13
            assert len(traceback.extract_tb(again.value.__traceback__)) == depth

    @pytest.mark.parametrize("validated_first", [True, False])
    def test_formula_check_does_not_depend_on_call_order(self, validated_first):
        text = "F a (ref: (1)) | F x y (ref: (2))"

        def validated():
            with pytest.raises(DimensionParseError) as err:
                parse_statements(text, validate_formulas=True)
            assert "bad formula 'F x y'" in str(err.value)
            assert err.value.position == 17

        def unvalidated():
            assert parse_statements(text) == (
                QuotedStatement("F a", 1), QuotedStatement("F x y", 2)
            )

        calls = [validated, unvalidated] if validated_first else [unvalidated, validated]
        for call in calls + calls:
            call()

    @pytest.mark.parametrize("warm", [False, True])
    def test_bad_formula_before_a_malformed_item_is_reported_first(self, warm):
        text = "F a | F x y | G a | "
        if warm:
            with pytest.raises(DimensionParseError, match="empty statement text"):
                parse_statements(text)
        with pytest.raises(DimensionParseError) as err:
            parse_statements(text, validate_formulas=True)
        assert "bad formula 'F x y'" in str(err.value)
        assert err.value.position == 6

    def test_keys_parse(self):
        text = "F: admirer of Chico | G: admirer of Laguna Beach"
        assert parse_dimension(text, DimensionId.KEYS) == (
            ("F", "admirer of Chico"),
            ("G", "admirer of Laguna Beach"),
        )
        with pytest.raises(DimensionParseError):
            parse_dimension("nonsense without colon", DimensionId.KEYS)

    def test_whitespace_normalized(self):
        got = parse_dimension("a   b\tc (ref: (3))", DimensionId.CONJECTURES)
        assert got == (QuotedStatement("a b c", 3),)


class TestRecordRoundTrip:
    def test_random_statement_lists_round_trip(self):
        rng = random.Random(99)
        words = ["alpha", "beta", "gamma", "delta", "pipe|word", "back\\slash"]
        for _ in range(500):
            items = tuple(
                QuotedStatement(
                    " ".join(rng.choices(words, k=rng.randint(1, 5))),
                    rng.choice([None, rng.randint(1, 9)]),
                )
                for _ in range(rng.randint(0, 4))
            )
            record = make_record(reasons=items)
            text = serialize_dimension(record, DimensionId.REASONS)
            assert parse_dimension(text, DimensionId.REASONS) == items

    def test_record_dict_round_trip(self):
        record = make_record(
            conjectures=(QuotedStatement("it is bad", 3),),
            premises=(QuotedStatement("p1", 1), QuotedStatement("p2", 2)),
            conclusion=(QuotedStatement("c", 3),),
            premises_form=(
                QuotedStatement("(x): F x -> G x", 1),
                QuotedStatement("(x): H x -> F x", 2),
            ),
            conclusion_form=(QuotedStatement("(x): H x -> G x", 3),),
            meta=RecordMeta(record_id="r1", n_inference_steps=1, domain_tag="test"),
        )
        data = record_to_dict(record)
        assert set(data) == {
            "source", "reasons", "conjectures", "premises", "conclusion",
            "premises_form", "conclusion_form", "keys", "meta",
        }
        loaded = record_from_dict(data)
        assert loaded == record
        assert [loaded.get(dim) for dim in DimensionId] == [
            record.get(dim) for dim in DimensionId
        ]
        # Meta keys a record no longer has, such as the "label" of older
        # corpora, are ignored on loading.
        assert record_from_dict({**data, "meta": {**data["meta"], "label": "valid"}}) == record


def test_dimension_fields_are_the_keywords_in_dimension_order():
    """A record stores texts and meta; its parsed views are named by the
    dimension keywords, in dimension order."""
    assert list(DeepA2Record._fields) == ["texts", "meta"]
    names = [n for n, v in vars(DeepA2Record).items() if isinstance(v, cached_property)]
    assert names == [dim.keyword for dim in DimensionId]
    record = make_record()
    assert [record.get(dim) for dim in DimensionId] == [getattr(record, n) for n in names]


def test_conclusion_dimensions_must_be_singletons():
    with pytest.raises(ValueError, match="exactly one"):
        make_record(conclusion=(QuotedStatement("a", 1), QuotedStatement("b", 2)))
    with pytest.raises(ValueError, match="exactly one"):
        make_record(conclusion_form=())


class TestClassifySubsets:
    def test_single_step_all_explicit(self):
        meta = RecordMeta(n_inference_steps=1)
        assert classify_subsets(meta) == {"simple", "plain"}

    def test_four_steps_with_distractors(self):
        meta = RecordMeta(
            n_inference_steps=4, n_distractors=2, uses_complex_schemes=True
        )
        assert classify_subsets(meta) == {"complex", "C&M"}

    def test_middling_record_gets_no_tag(self):
        meta = RecordMeta(
            n_inference_steps=2, n_implicit_premises=1, n_distractors=1
        )
        assert classify_subsets(meta) == set()

    def test_mutilated(self):
        meta = RecordMeta(
            n_inference_steps=3,
            n_implicit_premises=2,
            n_implicit_conclusions=1,
            n_distractors=2,
            final_conclusion_explicit=True,
        )
        assert "mutilated" in classify_subsets(meta)

    def test_plain_and_mutilated_exclusive_and_simple_complex_exclusive(self):
        rng = random.Random(3)
        for _ in range(2000):
            meta = RecordMeta(
                n_inference_steps=rng.randint(1, 4),
                n_implicit_premises=rng.randint(0, 3),
                n_implicit_conclusions=rng.randint(0, 2),
                final_conclusion_explicit=rng.random() < 0.5,
                n_distractors=rng.randint(0, 3),
                uses_complex_schemes=rng.random() < 0.5,
            )
            tags = classify_subsets(meta)
            assert not {"plain", "mutilated"} <= tags
            assert not {"simple", "complex"} <= tags


class TestCorpusFiles:
    def test_records_without_ids_may_repeat(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [make_record(), make_record(), make_record(meta=RecordMeta("a"))]
        path.write_text("".join(map(corpus_line, records)), encoding="utf-8")
        assert load_corpus(path) == records

    def test_repeated_id_names_both_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        records = [make_record(meta=RecordMeta(rid)) for rid in "abcb"]
        path.write_text("".join(map(corpus_line, records)), encoding="utf-8")
        with pytest.raises(DeepA2Error, match=r"c.jsonl:4: duplicate record id 'b' "
                                              r"\(first at line 2\)"):
            load_corpus(path)


def memo_sizes() -> list[int]:
    return [memo.cache_info().currsize
            for memo in (_parse_statements, parse_argdown, parse_formula)]


class TestTextFirst:
    """A record stores its texts; each parsed view is built on first read."""

    LINE = {
        "source": "It  is wrong.\tTherefore it is bad.",
        "reasons": "it   is wrong (ref: (1))",
        "argdown": "(1) it is wrong\n-- with modus ponens from (1) --\n(2) it is bad",
        "premises_form": "F a (ref: (1))",
        "keys": "F:   wrong",
        "meta": {"record_id": "r1"},
    }

    def test_loading_a_line_parses_nothing(self):
        clear_memos()
        record = record_from_dict(self.LINE)
        assert memo_sizes() == [0, 0, 0]
        assert not {dim.keyword for dim in DimensionId} & set(vars(record))
        assert {k: v for k, v in record_to_dict(record).items() if k != "meta"} == {
            k: v for k, v in self.LINE.items() if k != "meta"
        }
        assert record.premises_form == (QuotedStatement("F a", 1),)
        assert record.argdown.statements[1] == (2, "it is bad")
        assert memo_sizes() == [1, 1, 1]

    def test_texts_are_kept_verbatim_and_views_normalize(self):
        record = record_from_dict(self.LINE)
        assert record.texts[DimensionId.SOURCE] == self.LINE["source"]
        assert record.source == "It is wrong. Therefore it is bad."
        assert record.reasons == (QuotedStatement("it is wrong", 1),)
        assert record.keys == (("F", "wrong"),)
        assert record.conjectures is None and not record.has(DimensionId.CONJECTURES)
        assert record.present_dimensions() == [
            DimensionId.SOURCE, DimensionId.REASONS, DimensionId.ARGDOWN,
            DimensionId.PREMISES_FORM, DimensionId.KEYS,
        ]

    def test_equality_and_hash_work_on_texts_and_meta(self):
        a = record_from_dict(self.LINE)
        b = DeepA2Record(dict(reversed(list(a.texts.items()))), RecordMeta("r1"))
        assert a == b and hash(a) == hash(b) and list(b.texts) == list(a.texts)
        assert a != DeepA2Record(a.texts, RecordMeta("r2"))
        assert a != record_from_dict({**self.LINE, "keys": "F: wrong"})

    def test_parts_are_rendered_once_and_kept_as_views(self):
        clear_memos()
        record = make_record(premises_form=(QuotedStatement("F a", 1),))
        assert record.premises_form == (QuotedStatement("F a", 1),)
        assert record.texts[DimensionId.PREMISES_FORM] == "F a (ref: (1))"
        assert memo_sizes() == [0, 0, 0]

    def test_texts_must_be_strings_keyed_by_dimension(self):
        with pytest.raises(TypeError):
            DeepA2Record({DimensionId.SOURCE: 3})
        with pytest.raises(TypeError):
            DeepA2Record({"source": "text"})
        with pytest.raises(TypeError, match="unknown dimensions"):
            DeepA2Record.from_parts(sauce="text")

    def test_loaded_conclusion_must_be_a_singleton(self):
        record = record_from_dict({"conclusion": "a (ref: (1)) | b (ref: (2))"})
        with pytest.raises(DimensionParseError, match="exactly one"):
            record.conclusion

    def test_malformed_dimension_passes_unless_its_view_is_asked(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = {**self.LINE, "meta": {"record_id": "r2"}, "premises_form": "F x y"}
        path.write_text(json.dumps(self.LINE) + "\n" + json.dumps(bad) + "\n")
        assert [r.texts[DimensionId.PREMISES_FORM] for r in load_corpus(path)] == [
            "F a (ref: (1))", "F x y",
        ]
        assert len(load_corpus(path, views=[DimensionId.REASONS])) == 2
        with pytest.raises(DeepA2Error, match=r"c.jsonl:2: malformed corpus line"):
            load_corpus(path, views=[DimensionId.PREMISES_FORM])
