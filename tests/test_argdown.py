"""Argument-block parsing and rendering tests."""

import traceback

import pytest

from deepa2.argdown import (
    InferenceStep,
    final_conclusion_of,
    parse_argdown,
    premises_of,
    render_argdown,
)
from deepa2.errors import ArgdownParseError

EMBRYO_BLOCK = """\
(1) It is impermissible to kill innocent human beings.
(2) The human embryo is an innocent human being.
-- with hypothetical syllogism from (1) (2) --
(3) It is impermissible to kill the human embryo.
"""

DILEMMA_BLOCK = """\
(1) If someone is an admirer of Chico, then they are an admirer of Laguna Beach or a visitor of Stockton.
(2) If someone admires Laguna Beach, then they haven't visited Monterey.
(3) If someone has visited Stockton, then they haven't visited Monterey.
--
with generalized dilemma (neg variant) from (1) (2) (3)
--
(4) If someone admires Chico, then they haven't visited Monterey.
"""

BARE_BLOCK = """\
(1) Socrates is human.
(2) If someone is human, then they are mortal.
----
(3) Socrates is mortal.
"""


class TestParse:
    def test_inline_separator_block(self):
        arg = parse_argdown(EMBRYO_BLOCK)
        assert len(arg.statements) == 3
        assert arg.inferences == (
            InferenceStep((1, 2), 3, "hypothetical syllogism", None),
        )

    def test_multiline_separator_with_variant(self):
        arg = parse_argdown(DILEMMA_BLOCK)
        assert [n for n, _ in arg.statements] == [1, 2, 3, 4]
        step = arg.inferences[0]
        assert step.scheme_name == "generalized dilemma"
        assert step.variant == "neg variant"
        assert step.from_numbers == (1, 2, 3)
        assert step.derives == 4

    def test_bare_separator_uses_underived_statements(self):
        arg = parse_argdown(BARE_BLOCK)
        assert arg.statements == (
            (1, "Socrates is human."),
            (2, "If someone is human, then they are mortal."),
            (3, "Socrates is mortal."),
        )
        assert arg.inferences == (InferenceStep((1, 2), 3, None, None),)

    def test_single_statement_is_an_error(self):
        with pytest.raises(ArgdownParseError, match="inference"):
            parse_argdown("(1) Just one claim.")

    def test_non_consecutive_numbering_rejected(self):
        bad = "(1) a.\n(3) b.\n---- \n(4) c."
        with pytest.raises(ArgdownParseError):
            parse_argdown(bad)

    def test_dangling_ref_rejected(self):
        bad = "(1) a.\n-- with modus ponens from (1) (5) --\n(2) b."
        with pytest.raises(ArgdownParseError, match="missing statement"):
            parse_argdown(bad)

    def test_forward_ref_rejected(self):
        bad = "(1) a.\n-- with modus ponens from (1) (2) --\n(2) b."
        with pytest.raises(ArgdownParseError, match="earlier"):
            parse_argdown(bad)

    def test_underived_final_statement_rejected(self):
        bad = "(1) a.\n-- from (1) --\n(2) b.\n(3) c."
        with pytest.raises(ArgdownParseError, match="final statement"):
            parse_argdown(bad)

    def test_dangling_separator_rejected(self):
        with pytest.raises(ArgdownParseError):
            parse_argdown("(1) a.\n(2) b.\n----")

    def test_remembered_error_is_raised_as_a_fresh_copy(self):
        """A malformed text raises an equal, fresh error on every call."""
        bad = "(1) a.\n(2) b.\nnot a statement"
        with pytest.raises(ArgdownParseError) as first:
            parse_argdown(bad)
        depth = len(traceback.extract_tb(first.value.__traceback__))
        for _ in range(3):
            with pytest.raises(ArgdownParseError) as again:
                parse_argdown(bad)
            assert again.value is not first.value
            assert str(again.value) == str(first.value)
            assert again.value.position is first.value.position is None
            assert len(traceback.extract_tb(again.value.__traceback__)) == depth

    def test_each_text_is_parsed_once(self):
        first = parse_argdown(EMBRYO_BLOCK)
        assert parse_argdown(EMBRYO_BLOCK) is first
        assert parse_argdown.cache_info().misses == 1


class TestAccessors:
    def test_premises_and_final_conclusion(self):
        arg = parse_argdown(DILEMMA_BLOCK)
        assert [n for n, _ in premises_of(arg)] == [1, 2, 3]
        assert final_conclusion_of(arg)[0] == 4

    def test_two_step_chain_premises(self):
        block = (
            "(1) a.\n(2) b.\n-- from (1) (2) --\n(3) c.\n"
            "(4) d.\n-- from (3) (4) --\n(5) e."
        )
        arg = parse_argdown(block)
        assert [n for n, _ in premises_of(arg)] == [1, 2, 4]

    def test_single_inference_premises(self):
        arg = parse_argdown(BARE_BLOCK)
        assert [n for n, _ in premises_of(arg)] == [1, 2]


class TestRoundTrip:
    def test_render_parse_identity(self):
        for block in (EMBRYO_BLOCK, DILEMMA_BLOCK, BARE_BLOCK):
            arg = parse_argdown(block)
            assert parse_argdown(render_argdown(arg)) == arg

    def test_canonical_render_shape(self):
        arg = parse_argdown(EMBRYO_BLOCK)
        assert render_argdown(arg).splitlines()[2] == (
            "-- with hypothetical syllogism from (1) (2) --"
        )
