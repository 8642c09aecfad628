"""Systematic and exegetic quality metrics for argument reconstructions.

Systematic metrics judge the reconstructed argument itself (basic flaws,
scheme instantiation, deductive validity); exegetic metrics judge how the
reconstruction accounts for the source text (verbatim quoting, coherence
of quotes with their counterpart statements, predictive performance on
target reasons/conjectures, and text exploitation).

Every metric is total: arbitrary garbage input yields an in-range value
plus diagnostics, never an exception.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from deepa2.argdown import (
    ArgdownArgument,
    conclusions_of,
    final_conclusion_of,
    parse_argdown,
    premises_of,
)
from deepa2.dimensions import DimensionId
from deepa2.errors import DeepA2Error, UndefinedMetricError
from deepa2.formula import Formula, check_entailment, parse_formula
from deepa2.frozen import Frozen
from deepa2.memo import process_memo
from deepa2.records import DeepA2Record, QuotedStatement, parse_statements
from deepa2.schemes import sys_sch_ratio
from deepa2.textnorm import eval_exe_meq, normalize_ws, token_f1

#: Minimum token-overlap F1 for a predicted statement to count as matching a
#: target statement in the predictive-performance metrics.
MATCH_THRESHOLD = 0.8


def default_scorer(a: str, b: str) -> float:
    """Deterministic lexical similarity in [-1, 1]: 2 * token F1 - 1."""
    return 2.0 * token_f1(a, b) - 1.0


# ---------------------------------------------------------------------------
# Systematic metrics
# ---------------------------------------------------------------------------


def eval_basic_flaws(arg: ArgdownArgument) -> tuple[int, int, int, int]:
    """(no petitio, no redundant premises, no redundant conclusions, all
    statements used) as 0/1 bits, via normalized string identity."""
    derived = arg.derived_numbers
    premise_texts: list[str] = []
    conclusion_texts: list[str] = []
    for number, text in arg.statements:
        (conclusion_texts if number in derived else premise_texts).append(normalize_ws(text))
    final_number, final_text = final_conclusion_of(arg)

    sys_pp = 0 if normalize_ws(final_text) in premise_texts else 1
    sys_rp = 1 if len(set(premise_texts)) == len(premise_texts) else 0
    sys_rc = 1 if len(set(conclusion_texts)) == len(conclusion_texts) else 0

    used = {n for inf in arg.inferences for n in inf.from_numbers}
    sys_us = 1 if all(n in used or n == final_number for n, _ in arg.statements) else 0
    return sys_pp, sys_rp, sys_rc, sys_us


def eval_sys_val(
    premises_form: Sequence[QuotedStatement],
    conclusion_form: Sequence[QuotedStatement],
    diagnostics: list[str] | None = None,
) -> int:
    """1 iff all formalizations parse and the premises entail the conclusion.

    Each distinct formalization is decided once per process; a repeated one
    replays its verdict and its diagnostic."""
    diag = diagnostics if diagnostics is not None else []
    if len(conclusion_form) != 1:
        diag.append(f"conclusion_form must hold exactly one formula, got {len(conclusion_form)}")
        return 0
    value, message = _decide_sys_val(
        tuple(q.text for q in premises_form), conclusion_form[0].text
    )
    if message is not None:
        diag.append(message)
    return value


@process_memo
def _decide_sys_val(
    premise_texts: tuple[str, ...], conclusion_text: str
) -> tuple[int, str | None]:
    """(sys_val, diagnostic or None) of one formalization, for the whole
    process; a refusal is a verdict, not an error, so it is remembered too."""
    try:
        premises = [parse_formula(text) for text in premise_texts]
        conclusion = parse_formula(conclusion_text)
        return (1 if check_entailment(premises, conclusion) else 0), None
    except DeepA2Error as err:
        return 0, f"sys_val: {err}"


# ---------------------------------------------------------------------------
# Exegetic metrics (``eval_exe_meq`` is ``deepa2.textnorm``'s)
# ---------------------------------------------------------------------------


def mean(values: Sequence[float]) -> float:
    """The mean of a non-empty sequence, its sum taken left to right.

    From Python 3.12 on, ``sum`` adds floats with compensated summation and
    so changes the last digits of some means; this loop writes the same
    bytes on every supported interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _counterpart_mean(
    quotes: Sequence[QuotedStatement],
    counterparts: list[tuple[int, str]],
) -> float:
    """Shared core of the reason/conjecture coherence metrics.

    Each counterpart statement scores against the quote referring to it
    (implicit statements, i.e. counterparts nobody quotes, contribute -1)
    and each quote whose reference resolves to no counterpart contributes
    -1.  Empty quote lists are neutral by convention.
    """
    if not quotes:
        return 0.0
    numbers = {n for n, _ in counterparts}
    contributions: list[float] = []
    for number, text in counterparts:
        matching = [q for q in quotes if q.ref == number]
        if matching:
            contributions.extend(
                default_scorer(normalize_ws(q.text), normalize_ws(text))
                for q in matching
            )
        else:
            contributions.append(-1.0)
    for q in quotes:
        if q.ref is None or q.ref not in numbers:
            contributions.append(-1.0)
    if not contributions:
        return 0.0
    return mean(contributions)


def eval_exe_rss(
    reasons: Sequence[QuotedStatement], arg: ArgdownArgument | None
) -> float:
    """Mean coherence of reason quotes with their counterpart premises."""
    counterparts = premises_of(arg) if arg is not None else []
    return _counterpart_mean(reasons, counterparts)


def eval_exe_jss(
    conjectures: Sequence[QuotedStatement], arg: ArgdownArgument | None
) -> float:
    """Mean coherence of conjecture quotes with their counterpart conclusions."""
    counterparts = conclusions_of(arg) if arg is not None else []
    return _counterpart_mean(conjectures, counterparts)


def eval_exe_ppr(predicted: Sequence[str], target: Sequence[str]) -> float:
    """F1 for identifying target statements, greedy one-to-one matching at
    ``MATCH_THRESHOLD`` token overlap.  Also used for conjectures (EXE-PPJ)."""
    predicted = [normalize_ws(t) for t in predicted]
    target = [normalize_ws(t) for t in target]
    if not predicted and not target:
        return 1.0
    if not predicted or not target:
        return 0.0
    unmatched = list(range(len(target)))
    true_positives = 0
    for p in predicted:
        for j in unmatched:
            if token_f1(p, target[j]) >= MATCH_THRESHOLD:
                unmatched.remove(j)
                true_positives += 1
                break
    precision = true_positives / len(predicted)
    recall = true_positives / len(target)
    if true_positives == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def te_prediction(
    conjectures: Sequence[QuotedStatement], arg: ArgdownArgument | None
) -> bool:
    """Whether the analysis presents the final conclusion as explicit: some
    conjecture's reference equals the final conclusion's number."""
    if arg is None:
        return False
    final_number = final_conclusion_of(arg)[0]
    return any(q.ref == final_number for q in conjectures)


def eval_exe_te(items: Sequence[tuple[bool, bool]]) -> float:
    """Corpus-level F1 for (predicted explicit, target explicit) pairs, with
    "explicit" as the positive class; all-negative corpora score 1.0."""
    if not items:
        raise UndefinedMetricError("EXE-TE needs at least one item")
    tp = sum(1 for p, t in items if p and t)
    fp = sum(1 for p, t in items if p and not t)
    fn = sum(1 for p, t in items if not p and t)
    if tp + fp + fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


# ---------------------------------------------------------------------------
# Whole-analysis evaluation
# ---------------------------------------------------------------------------


class MetricReport(Frozen):
    """The metric values for one analysis; exe_te is corpus-level, so the
    per-item report carries only the explicitness prediction."""

    _fields = (
        "sys_pp", "sys_rp", "sys_rc", "sys_us", "sys_sch", "sys_val", "exe_meq",
        "exe_rss", "exe_jss", "exe_ppr", "exe_ppj", "exe_te_prediction", "diagnostics",
    )

    def __init__(
        self,
        sys_pp: int,
        sys_rp: int,
        sys_rc: int,
        sys_us: int,
        sys_sch: float | None,
        sys_val: int,
        exe_meq: int,
        exe_rss: float,
        exe_jss: float,
        exe_ppr: float | None,
        exe_ppj: float | None,
        exe_te_prediction: bool,
        diagnostics: tuple[str, ...] = (),
    ):
        self.__dict__.update(
            sys_pp=sys_pp, sys_rp=sys_rp, sys_rc=sys_rc, sys_us=sys_us, sys_sch=sys_sch,
            sys_val=sys_val, exe_meq=exe_meq, exe_rss=exe_rss, exe_jss=exe_jss,
            exe_ppr=exe_ppr, exe_ppj=exe_ppj, exe_te_prediction=exe_te_prediction,
            diagnostics=diagnostics,
        )

    def to_flat_dict(self) -> dict:
        data = {
            "sys_pp": self.sys_pp,
            "sys_rp": self.sys_rp,
            "sys_rc": self.sys_rc,
            "sys_us": self.sys_us,
            "sys_sch": self.sys_sch,
            "sys_val": self.sys_val,
            "exe_meq": self.exe_meq,
            "exe_rss": self.exe_rss,
            "exe_jss": self.exe_jss,
            "exe_ppr": self.exe_ppr,
            "exe_ppj": self.exe_ppj,
            "exe_te_prediction": self.exe_te_prediction,
        }
        if self.diagnostics:
            data["diagnostics"] = list(self.diagnostics)
        return data

    @property
    def basic_flaw_bits(self) -> tuple[int, int, int, int]:
        return (self.sys_pp, self.sys_rp, self.sys_rc, self.sys_us)


def _parse_quotes(text: str | None, dim: DimensionId, diag: list[str]):
    if text is None:
        return ()
    try:
        return parse_statements(text, validate_formulas=False)
    except DeepA2Error as err:
        diag.append(f"{dim.keyword}: {err}")
        return None


def evaluate_analysis(
    work: Mapping[DimensionId, str],
    target: DeepA2Record | None = None,
) -> MetricReport:
    """Apply the full metric suite to one analysis given as raw dimension
    texts (e.g. the final dictionary of a generative chain)."""
    diag: list[str] = []

    arg: ArgdownArgument | None = None
    argdown_text = work.get(DimensionId.ARGDOWN)
    if argdown_text is None:
        diag.append("argdown: absent")
    else:
        try:
            arg = parse_argdown(argdown_text)
        except DeepA2Error as err:
            diag.append(f"argdown: {err}")

    reasons = _parse_quotes(work.get(DimensionId.REASONS), DimensionId.REASONS, diag)
    conjectures = _parse_quotes(
        work.get(DimensionId.CONJECTURES), DimensionId.CONJECTURES, diag
    )

    if arg is not None:
        sys_pp, sys_rp, sys_rc, sys_us = eval_basic_flaws(arg)
    else:
        sys_pp = sys_rp = sys_rc = sys_us = 0

    premises_form = _parse_quotes(
        work.get(DimensionId.PREMISES_FORM), DimensionId.PREMISES_FORM, diag
    )
    conclusion_form = _parse_quotes(
        work.get(DimensionId.CONCLUSION_FORM), DimensionId.CONCLUSION_FORM, diag
    )
    if premises_form is None or conclusion_form is None:
        sys_val = 0
    else:
        sys_val = eval_sys_val(premises_form, conclusion_form, diag)

    forms: dict[int, Formula] = {}
    if arg is not None:
        for q in (*(premises_form or ()), *(conclusion_form or ())):
            if q.ref is not None:
                try:
                    forms[q.ref] = parse_formula(q.text)
                except DeepA2Error:
                    pass

    if arg is None:
        sys_sch: float | None = 0.0
    else:
        sys_sch = sys_sch_ratio(arg, forms)

    source = work.get(DimensionId.SOURCE, "")
    if reasons is None or conjectures is None:
        exe_meq = 0
    else:
        exe_meq = eval_exe_meq(source, reasons, conjectures)

    exe_rss = eval_exe_rss(reasons or (), arg)
    exe_jss = eval_exe_jss(conjectures or (), arg)
    prediction = te_prediction(conjectures or (), arg)

    exe_ppr: float | None = None
    exe_ppj: float | None = None
    if target is not None and target.reasons is not None:
        exe_ppr = eval_exe_ppr(
            [q.text for q in (reasons or ())], [q.text for q in target.reasons]
        )
    if target is not None and target.conjectures is not None:
        exe_ppj = eval_exe_ppr(
            [q.text for q in (conjectures or ())], [q.text for q in target.conjectures]
        )

    return MetricReport(
        sys_pp=sys_pp,
        sys_rp=sys_rp,
        sys_rc=sys_rc,
        sys_us=sys_us,
        sys_sch=sys_sch,
        sys_val=sys_val,
        exe_meq=exe_meq,
        exe_rss=exe_rss,
        exe_jss=exe_jss,
        exe_ppr=exe_ppr,
        exe_ppj=exe_ppj,
        exe_te_prediction=prediction,
        diagnostics=tuple(diag),
    )


def work_dict_of_record(record: DeepA2Record) -> dict[DimensionId, str]:
    """A record's own dimensions as raw texts (oracle-style evaluation input):
    a copy of its stored ``texts``."""
    return dict(record.texts)
