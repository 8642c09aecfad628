"""Training export: differential checks against a per-pair reference loop,
and the bytes of the CLI's pair lines."""

import json

import pytest

from deepa2.chains import export_training
from deepa2.cli import EXIT_OK, main
from deepa2.errors import GenerationError
from deepa2.generator import GeneratorConfig, generate_corpus
from deepa2.records import DeepA2Record, QuotedStatement, corpus_line

from .helpers import dilemma_record, with_parts
from .reference_export import reference_export_training


def informal(record):
    """The record without its formalization: no formal dimensions or keys."""
    return with_parts(record, premises_form=None, conclusion_form=None, keys=None)


@pytest.fixture(scope="module")
def corpus():
    generated = generate_corpus(GeneratorConfig.preset("aaac01"), 8, seed=5)
    mixed = []
    for i, record in enumerate(generated):
        mixed.append(record)
        if i % 2:
            mixed.append(informal(record))
    return mixed + [dilemma_record(), informal(dilemma_record("dilemma-1"))]


@pytest.mark.parametrize("weights", ["aaac", "entailment_bank"])
@pytest.mark.parametrize("n_per_record", [0, 14, 200])
def test_export_matches_reference_loop(corpus, weights, n_per_record):
    for seed in (0, 7):
        expected = reference_export_training(corpus, weights, n_per_record, seed)
        assert export_training(corpus, weights, n_per_record, seed) == expected
    assert len(expected) == n_per_record * len(corpus)


@pytest.mark.parametrize("n_per_record", [0, 14])
def test_record_without_usable_mode_fails_like_reference(n_per_record):
    records = [dilemma_record(), DeepA2Record.from_parts(source="only a source")]
    with pytest.raises(GenerationError) as expected:
        reference_export_training(records, "aaac", n_per_record)
    with pytest.raises(GenerationError) as got:
        export_training(records, "aaac", n_per_record)
    assert str(got.value) == str(expected.value)


AWKWARD = 'Ünïcødé “curly” "straight" back\\slash\nnew\u2028line\u2029end\ttab\x01 €'


def test_cli_pair_lines_are_json_dumps_bytes(tmp_path):
    """Every line is json.dumps({"input", "target"}, ensure_ascii=False) plus a
    newline.  The corpus holds texts that are not canonical, which loading
    keeps verbatim."""
    record = with_parts(
        dilemma_record(),
        source=AWKWARD,
        reasons=(QuotedStatement(AWKWARD + " | piped", 2),),
        conjectures=(QuotedStatement("\u2029", 4),),
    )
    other = with_parts(record, source='"\\"', meta=dilemma_record("dilemma-1").meta)
    records = [record, other]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(map(corpus_line, records)), encoding="utf-8")
    out = tmp_path / "pairs.jsonl"
    argv = ["export-training", "--corpus", str(corpus), "-n", "40", "--out", str(out)]
    assert main(argv) == EXIT_OK
    pairs = export_training(records, n_per_record=40)
    expected = "".join(
        json.dumps({"input": src, "target": tgt}, ensure_ascii=False) + "\n"
        for src, tgt in pairs
    )
    assert out.read_bytes() == expected.encode("utf-8")
    assert any("\u2028" in src for src, _ in pairs)
    assert any("\u2029" in target for _, target in pairs)
