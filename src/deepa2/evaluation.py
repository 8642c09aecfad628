"""Corpus-level evaluation: applying the metric suite to chain traces and
aggregating per-chain, pooled, and oracle rows into one table.

A trace here is anything with a ``chain_id``, a ``record_id`` and a
``final`` dictionary: a ``deepa2.chains.ChainResult``, or the
``deepa2.traces.TraceFinal`` that ``eval`` reads from a file.  This module
loads neither the chain catalogue nor the modes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from deepa2.dimensions import DimensionId
from deepa2.errors import DeepA2Error, UndefinedMetricError
from deepa2.frozen import Frozen
from deepa2.memo import process_memo
from deepa2.metrics import (
    MetricReport,
    eval_exe_te,
    evaluate_analysis,
    mean,
    work_dict_of_record,
)
from deepa2.records import DeepA2Record

if TYPE_CHECKING:
    from deepa2.traces import TraceFinal

METRIC_COLUMNS = (
    "sys_pp", "sys_rp", "sys_rc", "sys_us", "sys_sch", "sys_val",
    "exe_meq", "exe_rss", "exe_jss", "exe_ppr", "exe_ppj", "exe_te",
)


#: The target dimensions the metric suite parses: ``evaluate_analysis``
#: reads a target's reasons and conjectures, and the oracle row scores all
#: five texts.  ``eval`` parses them as it loads the corpus.
SCORED_DIMENSIONS = (
    DimensionId.ARGDOWN,
    DimensionId.REASONS,
    DimensionId.CONJECTURES,
    DimensionId.PREMISES_FORM,
    DimensionId.CONCLUSION_FORM,
)


class EvaluatedTrace(Frozen):
    _fields = ("record_id", "chain_id", "report")

    def __init__(self, record_id: str, chain_id: int, report: MetricReport):
        fields = self.__dict__
        fields["record_id"] = record_id
        fields["chain_id"] = chain_id
        fields["report"] = report

    def to_dict(self) -> dict:
        data = {"record_id": self.record_id, "chain_id": self.chain_id}
        data.update(self.report.to_flat_dict())
        return data


def _report(final: dict, record: DeepA2Record) -> MetricReport:
    """``evaluate_analysis(final, target=record)``, computed once per process
    for each distinct analysis (a ``final``'s items in any insertion order).

    This is exact because the metric suite is a function of the analysis
    and the target record alone."""
    return _scored(record, frozenset(final.items()))


@process_memo
def _scored(record: DeepA2Record, items: frozenset) -> MetricReport:
    """The report of one distinct analysis.  The key holds the record
    itself, not its id: two corpora in one process may share ids."""
    return evaluate_analysis(dict(items), target=record)


def trace_record(result: TraceFinal, corpus: dict[str, DeepA2Record]) -> DeepA2Record:
    """The corpus record a trace is scored against; DeepA2Error if the trace
    has no record id or the corpus no record of that id."""
    if result.record_id is None:
        raise DeepA2Error(
            f"trace of chain {result.chain_id} has no record_id, "
            "the key that joins traces to corpus records"
        )
    record = corpus.get(result.record_id)
    if record is None:
        raise DeepA2Error(f"trace for unknown record {result.record_id!r}; corpus mismatch")
    return record


def evaluate_traces(
    results: Iterable[TraceFinal], corpus: dict[str, DeepA2Record]
) -> list[EvaluatedTrace]:
    """One row per result, in order; ``results`` may be any iterable and is
    read once.  Rows of one distinct analysis share one report."""
    rows = []
    for result in results:
        record = trace_record(result, corpus)
        rows.append(
            EvaluatedTrace(result.record_id, result.chain_id, _report(result.final, record))
        )
    if not rows:
        raise UndefinedMetricError("no traces to evaluate")
    return rows


def oracle_reports(
    records: Sequence[DeepA2Record],
) -> list[tuple[DeepA2Record, MetricReport]]:
    """Metric suite applied to the target data itself; a target whose work
    dict was already scored as some trace's final reuses that report."""
    return [(record, _report(work_dict_of_record(record), record)) for record in records]


def default_ranking_key(report: MetricReport) -> tuple:
    """Lexicographic quality key over self-computable metrics, validity
    first."""
    return (
        report.sys_val,
        report.sys_pp + report.sys_rp + report.sys_rc + report.sys_us,
        report.sys_sch if report.sys_sch is not None else 0.0,
        report.exe_meq,
        (report.exe_rss + report.exe_jss) / 2,
    )


def pool_index(
    reports: Sequence[MetricReport],
    key: Callable[[MetricReport], tuple] = default_ranking_key,
) -> int:
    """Index of the item-wise best report under the ranking key; the first
    of equally ranked reports wins."""
    if not reports:
        raise ValueError("pooling needs at least one report")
    best = 0
    best_key = key(reports[0])
    for i in range(1, len(reports)):
        k = key(reports[i])
        if k > best_key:
            best, best_key = i, k
    return best


def _aggregate_reports(
    pairs: Sequence[tuple[MetricReport, DeepA2Record]]
) -> dict[str, float | None]:
    row: dict[str, float | None] = {}
    for column in METRIC_COLUMNS[:-1]:  # all but exe_te, which is corpus-level
        values = [getattr(r, column) for r, _ in pairs]
        values = [v for v in values if v is not None]
        row[column] = mean(values) if values else None
    te_items = [
        (r.exe_te_prediction, record.meta.final_conclusion_explicit)
        for r, record in pairs
    ]
    row["exe_te"] = eval_exe_te(te_items) if te_items else None
    return row


def aggregate_table(
    rows: Sequence[EvaluatedTrace],
    corpus: dict[str, DeepA2Record],
) -> dict:
    """Per-chain mean rows plus a pooling row (item-wise best chain) and an
    oracle row (metrics on the target data)."""
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

    oracle_pairs = [
        (report, record)
        for record, report in oracle_reports(
            [corpus[rid] for rid in sorted({r.record_id for r in rows})]
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
