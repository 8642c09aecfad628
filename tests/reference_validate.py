"""The generator's full record validator, used as a reference in tests.

Scores the record against itself with the whole metric suite, parses every
rendered text back and compares it with the part it came from, and checks
quote drift, key letters, dangling references and distractor consistency,
the way ``deepa2.generator.validate_record`` did before it kept only the
checks that can reject an attempt.  ``tests/test_validate_differential.py``
holds the two to the same verdicts.
"""

from __future__ import annotations

from deepa2.formula import check_satisfiable, parse_formula, predicates_of
from deepa2.generator import Distractor, GeneratorConfig
from deepa2.metrics import default_scorer, evaluate_analysis, work_dict_of_record
from deepa2.records import DeepA2Record, parse_dimension

QUOTE_SCORE_BOUND = 0.8


def validate_record(
    record: DeepA2Record,
    config: GeneratorConfig,
    distractors: list[Distractor],
) -> list[str]:
    """Internal validity checks; an empty list means the record is sound."""
    problems: list[str] = []
    report = evaluate_analysis(work_dict_of_record(record), record)
    if report.basic_flaw_bits != (1, 1, 1, 1):
        problems.append(f"basic flaws {report.basic_flaw_bits}")
    if report.sys_val != 1:
        problems.append("target formalization not valid")
    if report.sys_sch != 1.0:
        problems.append(f"scheme ratio {report.sys_sch}")
    if report.exe_meq != 1:
        problems.append("quotes not mutually exclusive verbatim")
    if report.exe_ppr != 1.0 or report.exe_ppj != 1.0:
        problems.append("self-prediction below 1")
    if report.exe_te_prediction != record.meta.final_conclusion_explicit:
        problems.append("text-exploitation prediction mismatch")

    statements = dict(record.argdown.statements)
    for dim_items in (record.reasons, record.conjectures, record.premises,
                      record.conclusion, record.premises_form, record.conclusion_form):
        for q in dim_items:
            if q.ref not in statements:
                problems.append(f"dangling ref {q.ref}")

    letters = {letter for letter, _ in record.keys}

    for q in list(record.premises_form) + list(record.conclusion_form):
        missing = predicates_of(parse_formula(q.text)) - letters
        if missing:
            problems.append(f"keys miss letters {sorted(missing)}")

    if not config.imprecise_rendition:
        for quote in list(record.reasons) + list(record.conjectures):
            counterpart = statements.get(quote.ref)
            if counterpart is None:
                continue
            if default_scorer(quote.text, counterpart) < QUOTE_SCORE_BOUND:
                problems.append(
                    f"quote for ({quote.ref}) drifts below {QUOTE_SCORE_BOUND}"
                )

    # A loaded record's views are parsed from its texts, so each rendered
    # text must parse back to the part it came from.
    if any(parse_dimension(text, dim) != record.get(dim)
           for dim, text in record.texts.items()):
        problems.append("serialization round trip failed")

    # Entailment with distractors follows from sys_val == 1 (entailment is
    # monotone); only their consistency with the premises is left to check.
    if distractors:
        premise_forms = [parse_formula(q.text) for q in record.premises_form]
        extended = premise_forms + [d.formula for d in distractors]
        if not check_satisfiable(extended):
            problems.append("distractors made premises unsatisfiable")
    return problems
