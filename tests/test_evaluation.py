"""Trace evaluation and table aggregation tests."""

import pytest

import deepa2.evaluation as evaluation
from deepa2.backends import NoisyOracleBackend, OracleBackend
from deepa2.chains import (
    ChainResult,
    chain_by_id,
    chain_catalog,
    formalized,
    run_chain,
    run_chains,
)
from deepa2.errors import DeepA2Error, UndefinedMetricError
from deepa2.evaluation import (
    METRIC_COLUMNS,
    SCORED_DIMENSIONS,
    aggregate_table,
    evaluate_traces,
    oracle_reports,
    render_table,
)
from deepa2.generator import GeneratorConfig, generate_corpus
from deepa2.memo import clear_memos
from deepa2.metrics import evaluate_analysis, mean
from deepa2.records import corpus_line, load_corpus


@pytest.fixture(scope="module")
def corpus():
    records = generate_corpus(GeneratorConfig(), 40, seed=51)
    return {r.meta.record_id: r for r in records}


def traces_for(corpus, backend, chain_ids):
    return [
        run_chain(chain_by_id(cid), record.source, backend,
                  with_formalization=True, record_id=record_id)
        for record_id, record in corpus.items()
        for cid in chain_ids
    ]


class TestEvaluateTraces:
    def test_oracle_rows_are_perfect(self, corpus):
        backend = OracleBackend(corpus.values())
        rows = evaluate_traces(traces_for(corpus, backend, [1]), corpus)
        for row in rows:
            assert row.report.sys_val == 1
            assert row.report.sys_sch == 1.0
            assert row.report.exe_meq == 1
            assert row.report.exe_ppr == 1.0

    def test_unknown_record_rejected(self, corpus):
        backend = OracleBackend(corpus.values())
        traces = traces_for(corpus, backend, [1])
        bad = {k: v for i, (k, v) in enumerate(corpus.items()) if i > 0}
        with pytest.raises(DeepA2Error, match="mismatch"):
            evaluate_traces(traces, bad)

    def test_empty_traces_rejected(self, corpus):
        with pytest.raises(UndefinedMetricError):
            evaluate_traces([], corpus)


def all_chain_traces(corpus, backend):
    chains = [formalized(chain) for chain in chain_catalog()]
    return [
        result
        for record_id, record in corpus.items()
        for result in run_chains(chains, record.source, backend, record_id)
    ]


def analysis_key(record_id, final):
    return record_id, frozenset(final.items())


@pytest.fixture()
def counted(monkeypatch):
    """The analyses ``evaluate_traces`` hands to ``evaluate_analysis``."""
    calls = []

    def counting(work, target=None, **kwargs):
        calls.append(analysis_key(target.meta.record_id, work))
        return evaluate_analysis(work, target=target, **kwargs)

    monkeypatch.setattr(evaluation, "evaluate_analysis", counting)
    return calls


class TestReportMemo:
    @pytest.fixture(scope="class")
    def small(self, corpus):
        return dict(list(corpus.items())[:8])

    @pytest.mark.parametrize("noisy", [False, True], ids=["oracle", "noisy"])
    def test_rows_equal_a_memo_free_loop(self, small, noisy):
        backend = (NoisyOracleBackend(list(small.values()), 0.2, seed=0) if noisy
                   else OracleBackend(small.values()))
        results = all_chain_traces(small, backend)
        rows = evaluate_traces(iter(results), small)
        assert [(row.record_id, row.chain_id, row.report) for row in rows] == [
            (r.record_id, r.chain_id, evaluate_analysis(r.final, target=small[r.record_id]))
            for r in results
        ]

    def test_each_distinct_analysis_is_evaluated_once(self, small, counted):
        results = all_chain_traces(small, OracleBackend(small.values()))
        rows = evaluate_traces(results, small)
        assert len(rows) == 16 * len(small)
        assert sorted(counted) == sorted({analysis_key(r.record_id, r.final)
                                          for r in results})
        # Under the oracle the sixteen finals of a record coincide.
        assert len(counted) == len(small)
        assert len({id(row.report) for row in rows}) == len(small)

        counted.clear()
        clear_memos()
        results = all_chain_traces(small, NoisyOracleBackend(list(small.values()), 0.2, seed=0))
        evaluate_traces(results, small)
        distinct = {analysis_key(r.record_id, r.final) for r in results}
        assert len(counted) == len(distinct) and set(counted) == distinct

    def test_same_final_under_two_records_is_evaluated_twice(self, small, counted):
        (id_a, record_a), (id_b, record_b) = list(small.items())[:2]
        final = run_chain(chain_by_id(1), record_a.source, OracleBackend(small.values()),
                          with_formalization=True, record_id=id_a).final
        rows = evaluate_traces(
            [ChainResult(1, id_a, final, ()), ChainResult(1, id_b, final, ())], small
        )
        assert len(counted) == 2
        assert rows[0].report == evaluate_analysis(final, target=record_a)
        assert rows[1].report == evaluate_analysis(final, target=record_b)
        assert rows[0].report != rows[1].report

    def test_insertion_order_of_final_does_not_matter(self, small, counted):
        record_id, record = next(iter(small.items()))
        final = run_chain(chain_by_id(2), record.source, OracleBackend(small.values()),
                          with_formalization=True, record_id=record_id).final
        reordered = dict(reversed(list(final.items())))
        assert list(reordered) != list(final)
        rows = evaluate_traces(
            [ChainResult(2, record_id, final, ()), ChainResult(3, record_id, reordered, ())],
            small,
        )
        assert len(counted) == 1
        assert rows[0].report is rows[1].report

    def test_corpora_sharing_record_ids_keep_their_own_reports(self, small, counted):
        record_id, record = next(iter(small.items()))
        # Same lexicon and seed, so the same ids, but other records.
        other = {r.meta.record_id: r
                 for r in generate_corpus(GeneratorConfig(p_intricate=0.0), 1, seed=51)}
        assert other[record_id] != record
        final = run_chain(chain_by_id(1), record.source, OracleBackend(small.values()),
                          with_formalization=True, record_id=record_id).final
        trace = ChainResult(1, record_id, final, ())
        first = evaluate_traces([trace], small)[0].report
        second = evaluate_traces([trace], other)[0].report
        assert len(counted) == 2
        assert first == evaluate_analysis(final, target=record)
        assert second == evaluate_analysis(final, target=other[record_id])
        assert first != second

    def test_oracle_reports_reuse_the_trace_reports(self, small, counted):
        results = all_chain_traces(small, OracleBackend(small.values()))
        rows = evaluate_traces(results, small)
        assert len(counted) == len(small)
        reports = oracle_reports(list(small.values()))
        assert len(counted) == len(small)
        by_record = {row.record_id: row.report for row in rows}
        assert all(report is by_record[record.meta.record_id]
                   for record, report in reports)


class TestAggregateTable:
    def test_shape_and_rows(self, corpus):
        backend = OracleBackend(corpus.values())
        rows = evaluate_traces(traces_for(corpus, backend, [1, 9]), corpus)
        table = aggregate_table(rows, corpus)
        assert table["columns"] == list(METRIC_COLUMNS)
        assert [r["chain"] for r in table["rows"]] == ["1", "9", "pooling", "oracle"]
        oracle_row = table["rows"][-1]
        for column in ("sys_pp", "sys_rp", "sys_rc", "sys_us", "sys_sch",
                       "sys_val", "exe_meq", "exe_ppr", "exe_ppj", "exe_te"):
            assert oracle_row[column] == 1.0, column

    def test_pooling_dominates_on_validity(self, corpus):
        backend = NoisyOracleBackend(list(corpus.values()), 0.4, seed=5)
        rows = evaluate_traces(traces_for(corpus, backend, [1, 9, 13]), corpus)
        table = aggregate_table(rows, corpus)
        by_chain = {r["chain"]: r for r in table["rows"]}
        for chain in ("1", "9", "13"):
            assert by_chain["pooling"]["sys_val"] >= by_chain[chain]["sys_val"]

    def test_pooling_is_itemwise_max(self, corpus):
        backend = NoisyOracleBackend(list(corpus.values()), 0.5, seed=6)
        rows = evaluate_traces(traces_for(corpus, backend, [1, 9]), corpus)
        by_record = {}
        for row in rows:
            by_record.setdefault(row.record_id, []).append(row.report.sys_val)
        table = aggregate_table(rows, corpus)
        pooled = next(r for r in table["rows"] if r["chain"] == "pooling")
        expected = sum(max(vals) for vals in by_record.values()) / len(by_record)
        assert pooled["sys_val"] == pytest.approx(expected)

    def test_render_table_mentions_all_rows(self, corpus):
        backend = OracleBackend(corpus.values())
        rows = evaluate_traces(traces_for(corpus, backend, [1]), corpus)
        text = render_table(aggregate_table(rows, corpus))
        assert "pooling" in text and "oracle" in text


def test_oracle_reports_match_targets(corpus):
    for record, report in oracle_reports(list(corpus.values())[:10]):
        assert report.sys_val == 1
        assert report.exe_te_prediction == record.meta.final_conclusion_explicit


def test_mean_sums_left_to_right():
    """Metric means add in order on every interpreter; Python 3.12's
    compensated ``sum`` would give 0.1 here."""
    assert mean([0.1] * 10) == 0.09999999999999999


class TestProcessMemos:
    def test_oracle_row_parses_no_loaded_text_again(self, corpus, tmp_path):
        from deepa2.argdown import parse_argdown
        from deepa2.formula import parse_formula
        from deepa2.records import _parse_statements

        path = tmp_path / "corpus.jsonl"
        path.write_text(
            "".join(map(corpus_line, list(corpus.values())[:10])), encoding="utf-8"
        )
        # Loaded as eval loads it: the scored dimensions parsed at load.
        loaded = load_corpus(path, views=SCORED_DIMENSIONS)
        parses = (parse_argdown, _parse_statements, parse_formula)
        misses = [parse.cache_info().misses for parse in parses]
        reports = oracle_reports(loaded)
        assert [parse.cache_info().misses for parse in parses] == misses
        assert all(report.sys_val == 1 for _, report in reports)

    def test_noisy_reports_are_equal_with_cold_and_warm_memos(self, corpus):
        small = dict(list(corpus.items())[:6])
        backend = NoisyOracleBackend(list(small.values()), 0.2, seed=0)
        results = all_chain_traces(small, backend)

        def reports():
            return [evaluate_analysis(r.final, target=small[r.record_id]) for r in results]

        cold = []
        for result in results:
            clear_memos()
            cold.append(evaluate_analysis(result.final, target=small[result.record_id]))
        clear_memos()
        filling = reports()
        assert reports() == filling == cold
        # The run reaches the error paths whose diagnostics the memos replay.
        assert any(any(d.startswith("sys_val: ") for d in r.diagnostics) for r in cold)
        assert any(any(d.startswith("argdown: ") for d in r.diagnostics) for r in cold)
