"""The generator's per-attempt validator against the full one.

``generator.validate_record`` runs only the three checks that can reject
an attempt (the scheme ratio, verbatim and mutually exclusive quotes and,
when the source holds distractors, the premises' consistency), and stops
at the first problem; the ones that hold by construction (the basic-flaw
bits, ``sys_val``, self-prediction, the text-exploitation prediction,
dangling references, key letters, quote drift and the serialization round
trip) are left out.  Every attempt of a serial build goes through both
validators here, accepted or not: the checks left out must never fire, and
the per-attempt validator must return the full one's first problem, or
nothing when the full one finds none.
"""

import random
from collections import Counter

import pytest

from deepa2 import generator
from deepa2.frozen import replace
from deepa2.generator import GeneratorConfig, generate_corpus
from deepa2.lexicon import builtin_lexicon
from deepa2.records import QuotedStatement

from . import reference_validate
from .helpers import with_parts

CONFIGS = {
    "aaac01": (GeneratorConfig.preset("aaac01"), (0, 1, 2), 100),
    "aaac02": (GeneratorConfig.preset("aaac02"), (0, 1, 2), 100),
    "four-step": (GeneratorConfig(step_weights=(0, 0, 0, 1), p_intricate=1.0), (3, 4), 60),
    "final-implicit": (GeneratorConfig(p_final_explicit=0.0), (5, 6), 60),
    "final-explicit": (
        replace(GeneratorConfig.preset("aaac02"), p_final_explicit=1.0), (7, 8), 60
    ),
    "most-distractors": (GeneratorConfig(distractor_weights=(0, 0, 1)), (9, 10), 60),
}

SAMPLING_FAILURES = {"sampling dead end", "could not verbalize statements uniquely"}

#: The problems of the checks that hold by construction.
MOVED_CHECKS = ("basic flaws", "target formalization not valid", "self-prediction below 1",
                "text-exploitation prediction mismatch", "dangling ref", "keys miss letters",
                "quote for (", "serialization round trip failed")


@pytest.fixture()
def compared(monkeypatch):
    """Wraps ``generator.validate_record`` for builds under one config: the
    returned list gets each attempt's problems under both validators, in
    attempt order.  The full validator reads the config (quote drift)."""
    fast = generator.validate_record

    def wrap(config):
        seen = []

        def both(record, distractors):
            problems = fast(record, distractors)
            seen.append(
                (problems, reference_validate.validate_record(record, config, distractors))
            )
            return problems

        monkeypatch.setattr(generator, "validate_record", both)
        return seen

    return wrap


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_per_attempt_checks_agree_with_the_full_validator(compared, name):
    config, seeds, n = CONFIGS[name]
    seen = compared(config)
    rejections: Counter = Counter()
    for seed in seeds:
        generate_corpus(config, n, seed=seed, rejections=rejections)
    assert [full for _new, full in seen if any(p.startswith(MOVED_CHECKS) for p in full)] == []
    assert [(new, full) for new, full in seen if new != full[:1]] == []
    rejected = [new for new, _full in seen if new]
    assert rejected and len(seen) == n * len(seeds) + len(rejected)
    # The rejection counts name each rejected attempt by its first problem;
    # the attempts that never reach validation are sampling failures.
    by_check = Counter(generator._check_name(problems) for problems in rejected)
    assert rejections & by_check == by_check
    assert set(rejections - by_check) <= SAMPLING_FAILURES


def record_with_distractors(config, seed):
    """An accepted record whose source holds distractors, and those."""
    rng = random.Random(seed)
    lexicon = builtin_lexicon(config.lexicon_id)
    while True:
        try:
            record, distractors = generator._generate_record(config, rng, lexicon, "r")
        except generator._RecordRejected:
            continue
        if distractors:
            return record, distractors


def corrupted(name, record, distractors):
    """The record and distractors with one kept check broken."""
    arg = record.argdown
    if name == "scheme ratio":
        *steps, last = arg.inferences
        steps.append(replace(last, scheme_name="no such scheme"))
        return with_parts(record, argdown=replace(arg, inferences=tuple(steps))), distractors
    if name == "quotes not mutually exclusive verbatim":
        reasons = (*record.reasons, QuotedStatement("Nothing of this is in the source.", 1))
        return with_parts(record, reasons=reasons), distractors
    # An inconsistent formalized premise, over a letter of its own.  It goes
    # before premise (1)'s own formula, so the scheme check reads that one.
    assert name == "distractors made premises unsatisfiable"
    premises_form = (QuotedStatement("Z a & not Z a", 1), *record.premises_form)
    keys = (*record.keys, ("Z", "contradictory"))
    return with_parts(record, premises_form=premises_form, keys=keys), distractors


@pytest.mark.parametrize("name", [
    "scheme ratio", "quotes not mutually exclusive verbatim",
    "distractors made premises unsatisfiable",
])
def test_each_kept_check_rejects_as_the_full_validator_does(name):
    config = GeneratorConfig.preset("aaac01")
    record, distractors = corrupted(name, *record_with_distractors(config, 12))
    new = generator.validate_record(record, distractors)
    full = reference_validate.validate_record(record, config, distractors)
    assert new == full[:1]
    assert generator._check_name(new) == name
