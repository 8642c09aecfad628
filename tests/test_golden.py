"""Byte identity of the whole pipeline on small fixed workloads.

``generate -n 20 --seed 3 --preset aaac01``, then ``run --chains all
--with-formalization`` under ``oracle`` and ``noisy:0.2``, ``eval`` of each,
and ``export-training``.  The digests were taken before records cached
their texts; a change that alters any output byte must say why and update
them.

The ``aaac02`` leg, ``generate -n 20 --seed 3 --preset aaac02``, then ``run
--chains 1 --backend noisy:0.2`` without formalization and ``eval``, covers
the text-level paths: its corpus is rendered with the imprecise templates,
and without formalizations every scheme check parses statement texts
against the template bank.  Its digests were taken before each connective
became a subclass of ``Binary`` or ``Quantified``.

``generate -n 120 --seed 3`` under each preset pins a corpus of the size
that a process pool once built (it did so from 50 records on); the digests
were taken from the pool's output, so the serial build must match it.
"""

import hashlib

import pytest

from deepa2.cli import EXIT_OK, main

GOLDEN = {
    "corpus.jsonl": "dec31e6d18c55c1a673e751856e6638267839db0902be853594eee8906f195d7",
    "corpus.jsonl.census.json":
        "dfee0a13ca2134dbc8c6ee39c65a1fc1fe9b59686a28102ee5c6ab6c58cc9d26",
    "traces_oracle.jsonl": "d8f3ce651ed9054685806fec86c5d0c912f2ca94bfd77bd86df7aaa3add7c85e",
    "metrics_oracle.jsonl": "f53f2fd7053372b4e45ae1e6a60c1672601b056490164cdfda8e6260b74e1086",
    "metrics_oracle.jsonl.aggregate.json":
        "c2c7371ec062a5ecd2cb1c849c3fee2cca4d4b737471d71edf5e0477427ee463",
    "traces_noisy.jsonl": "f667e1792b24d50459cf21aae11b6c7e7511b77a15ce124d9513ba24bedd5c46",
    "metrics_noisy.jsonl": "fd2cbde32e0ce90ade090f660738b96c929714e44374657f8ca7d27f68f01af5",
    "metrics_noisy.jsonl.aggregate.json":
        "92c84dfd4321d171f7811893b52b83b1aef478bca471d863defc93f343d840ce",
    "pairs.jsonl": "4f7ad53041fe18a361a56d3f541119e84be55d6a7f46035bfa6f3135a1dcff40",
}

GOLDEN_AAAC02 = {
    "corpus.jsonl": "fd2e38f5ba65c18729f99d2dc34b371c109ba4c2b62b0a8d2a433ca94c64da93",
    "corpus.jsonl.census.json":
        "55897768f0fee3fdfc656ec4137cdaeedd6577b93f3fcfb6eb6d0098997e9e54",
    "traces.jsonl": "b5f1f79b65c95e44e5a447f04fa2b739a84d61a98d41ef79234844f303f616cf",
    "metrics.jsonl": "992c312b4d3ebd1122f5b65de1c884520ff6c1bddda4460bafd6b8236fba3d84",
    "metrics.jsonl.aggregate.json":
        "dfa8c599c59ef736af6e8a118faa1bdf9002764374b4d281e7b4e0925dd9a806",
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    corpus = str(tmp / "corpus.jsonl")
    assert main(["generate", "-n", "20", "--seed", "3", "--preset", "aaac01",
                 "--out", corpus]) == EXIT_OK
    for backend, name in (("oracle", "oracle"), ("noisy:0.2", "noisy")):
        traces = str(tmp / f"traces_{name}.jsonl")
        assert main(["run", "--corpus", corpus, "--chains", "all",
                     "--with-formalization", "--backend", backend,
                     "--out", traces]) == EXIT_OK
        assert main(["eval", "--traces", traces, "--corpus", corpus,
                     "--out", str(tmp / f"metrics_{name}.jsonl")]) == EXIT_OK
    assert main(["export-training", "--corpus", corpus,
                 "--out", str(tmp / "pairs.jsonl")]) == EXIT_OK
    return tmp


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden_digest(pipeline, name):
    digest = hashlib.sha256((pipeline / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]


@pytest.fixture(scope="module")
def text_level_pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden_aaac02")
    corpus, traces = str(tmp / "corpus.jsonl"), str(tmp / "traces.jsonl")
    assert main(["generate", "-n", "20", "--seed", "3", "--preset", "aaac02",
                 "--out", corpus]) == EXIT_OK
    assert main(["run", "--corpus", corpus, "--chains", "1", "--backend", "noisy:0.2",
                 "--out", traces]) == EXIT_OK
    assert main(["eval", "--traces", traces, "--corpus", corpus,
                 "--out", str(tmp / "metrics.jsonl")]) == EXIT_OK
    return tmp


@pytest.mark.parametrize("name", sorted(GOLDEN_AAAC02))
def test_text_level_output_bytes_match_golden_digest(text_level_pipeline, name):
    digest = hashlib.sha256((text_level_pipeline / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_AAAC02[name]


GOLDEN_120 = {
    "aaac01": (
        "8e56fb8551253f8ea8bfd4614b4d967479e90dc4b06ab82db7bd71e00812c4eb",
        "8832b36b32890b6076cee140f1aac8aac7eec88adaf8afd7d5fe9d8fdb427ab3",
    ),
    "aaac02": (
        "7c69d511ec795ba8d14165c4a4c8c9234ecc2154530d1357407f7867cec560b9",
        "03658f5263c33095d0eca676c07657ba6244a4feaf9d62017ad17588614019bc",
    ),
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_120))
def test_120_record_corpus_matches_golden_digest(tmp_path, preset):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["generate", "-n", "120", "--seed", "3", "--preset", preset,
                 "--out", str(corpus)]) == EXIT_OK
    census = tmp_path / "corpus.jsonl.census.json"
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (corpus, census))
    assert digests == GOLDEN_120[preset]
