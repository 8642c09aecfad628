"""Corpus-level evaluation: applying the metric suite to chain traces and
aggregating per-chain, pooled, and oracle rows into one table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from deepa2.chains import ChainResult, default_ranking_key, pool_index
from deepa2.errors import DeepA2Error, UndefinedMetricError
from deepa2.metrics import (
    MetricReport,
    Scorer,
    default_scorer,
    eval_exe_te,
    evaluate_analysis,
    work_dict_of_record,
)
from deepa2.records import DeepA2Record

METRIC_COLUMNS = (
    "sys_pp", "sys_rp", "sys_rc", "sys_us", "sys_sch", "sys_val",
    "exe_meq", "exe_rss", "exe_jss", "exe_ppr", "exe_ppj", "exe_te",
)


@dataclass(frozen=True)
class EvaluatedTrace:
    record_id: str
    chain_id: int
    report: MetricReport

    def to_dict(self) -> dict:
        data = {"record_id": self.record_id, "chain_id": self.chain_id}
        data.update(self.report.to_flat_dict())
        return data


def evaluate_trace(
    result: ChainResult,
    record: DeepA2Record,
    scorer: Scorer = default_scorer,
) -> EvaluatedTrace:
    report = evaluate_analysis(result.final, target=record, scorer=scorer)
    return EvaluatedTrace(result.record_id, result.chain_id, report)


#: Reports of distinct analyses, keyed by record id and the items of a final.
ReportMemo = dict[tuple[str, frozenset], MetricReport]


def _memoized_report(
    memo: ReportMemo,
    record_id: str,
    final: dict,
    record: DeepA2Record,
    scorer: Scorer,
) -> MetricReport:
    key = (record_id, frozenset(final.items()))
    report = memo.get(key)
    if report is None:
        report = memo[key] = evaluate_analysis(final, target=record, scorer=scorer)
    return report


def evaluate_traces(
    results: Iterable[ChainResult],
    corpus: dict[str, DeepA2Record],
    scorer: Scorer = default_scorer,
    *,
    memo: ReportMemo | None = None,
) -> list[EvaluatedTrace]:
    """One row per result, in order; ``results`` may be any iterable and is
    read once.

    Each distinct analysis, a record id with the items of a ``final``
    (in any insertion order), is evaluated once per call, and its rows share
    one report.  This is exact because ``evaluate_analysis`` is a function
    of the analysis, the target record and the scorer, so a custom
    ``scorer`` must be deterministic.  Pass a ``memo`` to keep the reports
    for a later ``aggregate_table`` over the same corpus and scorer.
    """
    memo = {} if memo is None else memo
    rows = []
    for result in results:
        record = corpus.get(result.record_id)
        if record is None:
            raise DeepA2Error(
                f"trace for unknown record {result.record_id!r}; corpus mismatch"
            )
        report = _memoized_report(memo, result.record_id, result.final, record, scorer)
        rows.append(EvaluatedTrace(result.record_id, result.chain_id, report))
    if not rows:
        raise UndefinedMetricError("no traces to evaluate")
    return rows


def oracle_reports(
    records: Sequence[DeepA2Record],
    scorer: Scorer = default_scorer,
    *,
    memo: ReportMemo | None = None,
) -> list[tuple[DeepA2Record, MetricReport]]:
    """Metric suite applied to the target data itself.

    With a ``memo`` (records then need ids), a target whose work dict was
    already scored as some trace's final reuses that report.
    """
    out = []
    for record in records:
        work = work_dict_of_record(record)
        if memo is None:
            report = evaluate_analysis(work, target=record, scorer=scorer)
        else:
            report = _memoized_report(memo, record.meta.record_id, work, record, scorer)
        out.append((record, report))
    return out


def _aggregate_reports(
    pairs: Sequence[tuple[MetricReport, DeepA2Record]]
) -> dict[str, float | None]:
    row: dict[str, float | None] = {}
    for column in METRIC_COLUMNS[:-1]:  # all but exe_te, which is corpus-level
        values = [getattr(r, column) for r, _ in pairs]
        values = [v for v in values if v is not None]
        row[column] = sum(values) / len(values) if values else None
    te_items = [
        (r.exe_te_prediction, record.meta.final_conclusion_explicit)
        for r, record in pairs
    ]
    row["exe_te"] = eval_exe_te(te_items) if te_items else None
    return row


def aggregate_table(
    rows: Sequence[EvaluatedTrace],
    corpus: dict[str, DeepA2Record],
    include_oracle: bool = True,
    *,
    memo: ReportMemo | None = None,
) -> dict:
    """Per-chain mean rows plus a pooling row (item-wise best chain) and an
    oracle row (metrics on the target data).  The oracle row reuses the
    reports in ``memo``, the one ``evaluate_traces`` filled for ``rows``."""
    chains = sorted({row.chain_id for row in rows})
    table_rows = []
    for chain_id in chains:
        pairs = [
            (row.report, corpus[row.record_id])
            for row in rows
            if row.chain_id == chain_id
        ]
        table_rows.append({"chain": str(chain_id), **_aggregate_reports(pairs)})

    if len(chains) >= 1:
        pooled_pairs = []
        by_record: dict[str, list[EvaluatedTrace]] = {}
        for row in rows:
            by_record.setdefault(row.record_id, []).append(row)
        for record_id, group in by_record.items():
            best = pool_index([row.report for row in group], key=default_ranking_key)
            pooled_pairs.append((group[best].report, corpus[record_id]))
        table_rows.append({"chain": "pooling", **_aggregate_reports(pooled_pairs)})

    if include_oracle:
        oracle_pairs = [
            (report, record)
            for record, report in oracle_reports(
                [corpus[rid] for rid in sorted({r.record_id for r in rows})],
                memo=memo,
            )
        ]
        table_rows.append({"chain": "oracle", **_aggregate_reports(oracle_pairs)})
    return {"columns": list(METRIC_COLUMNS), "rows": table_rows}


def render_table(table: dict) -> str:
    """Fixed-width text rendering of an aggregate table."""
    headers = ["chain"] + [c.replace("sys_", "").replace("exe_", "").upper()
                           for c in table["columns"]]
    lines = ["  ".join(f"{h:>8}" for h in headers)]
    for row in table["rows"]:
        cells = [f"{row['chain']:>8}"]
        for column in table["columns"]:
            value = row.get(column)
            cells.append(f"{value:8.2f}" if value is not None else f"{'--':>8}")
        lines.append("  ".join(cells))
    return "\n".join(lines)
