"""Command-line pipeline tests (file-to-file stages, exit codes)."""

import hashlib
import json
import random
import time

import pytest

from deepa2 import evaluation
from deepa2.backends import GenerationRequest, NoisyOracleBackend, OracleBackend
from deepa2.chains import chain_catalog, formalization_subchain
from deepa2.cli import EXIT_BACKEND, EXIT_CONFIG, EXIT_OK, EXIT_VALIDATION, main
from deepa2.dimensions import DimensionId
from deepa2.evaluation import aggregate_table
from deepa2.memo import clear_memos
from deepa2.metrics import evaluate_analysis
from deepa2.records import _parse_statements, load_corpus
from deepa2.textnorm import normalize_ws
from deepa2.traces import read_finals

from .helpers import block_disjunctions
from .stubserver import digest_echo, start_stub_server, stop_stub_server


def run_cli(*argv) -> int:
    return main(list(argv))


class RecordingBackend:
    """Forwards every request and records (record, mode, inputs) of each."""

    def __init__(self, backend):
        self._backend = backend
        self.requests = []

    def generate(self, request):
        inputs = tuple(request.inputs[d] for d in request.mode.inputs)
        self.requests.append((request.record_id, request.mode.label, inputs))
        return self._backend.generate(request)


class DigestEchoBackend:
    """Answers as the stub server does in digest mode, without HTTP."""

    def generate(self, request):
        inputs = {d.keyword: text for d, text in request.inputs.items()}
        return digest_echo(request.mode.output.keyword, inputs)


def chain_by_chain(records, backend) -> list[tuple]:
    """(final, [(mode, output)]) of every catalogued chain with the
    formalization sub-chain, record-major, one chain at a time and with no
    memo: the reference for ``run``."""
    out = []
    for record in records:
        for chain in chain_catalog():
            work = {DimensionId.SOURCE: record.source}
            steps = []
            for m in chain.modes + formalization_subchain():
                request = GenerationRequest(
                    m, {d: work[d] for d in m.inputs}, record_id=record.meta.record_id
                )
                work[m.output] = backend.generate(request)
                steps.append((m.label, work[m.output]))
            out.append(({d.keyword: t for d, t in work.items()}, steps))
    return out


def read_traces(path) -> list[tuple]:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [
        (row["final"], [(s["mode"], s["output"]) for s in row["steps"]])
        for row in rows
    ]


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    code = run_cli("generate", "-n", "20", "--seed", "3", "--out", str(path))
    assert code == EXIT_OK
    return path


class TestGenerate:
    def test_writes_corpus_and_census(self, tmp_path):
        out = tmp_path / "c.jsonl"
        assert run_cli("generate", "-n", "12", "--seed", "1", "--out", str(out)) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 12
        census = json.loads((tmp_path / "c.jsonl.census.json").read_text())
        assert set(census) >= {"simple", "complex", "plain", "mutilated", "C&M"}

    def test_census_option_names_the_census_path(self, tmp_path):
        out, custom = tmp_path / "c.jsonl", tmp_path / "custom.json"
        assert run_cli("generate", "-n", "5", "--seed", "1", "--out", str(out),
                       "--census", str(custom)) == EXIT_OK
        census = json.loads(custom.read_text())
        assert sum(census.values()) >= 5
        assert not (tmp_path / "c.jsonl.census.json").exists()

    def test_zero_records_warns_and_writes_empty(self, tmp_path, caplog, capsys):
        out = tmp_path / "empty.jsonl"
        assert run_cli("generate", "-n", "0", "--out", str(out)) == EXIT_OK
        assert out.read_text() == ""
        assert "n=0" in caplog.text
        census = json.loads((tmp_path / "empty.jsonl.census.json").read_text())
        assert set(census) >= {"simple", "complex", "plain", "mutilated", "C&M", "untagged"}
        assert set(census.values()) == {0}
        digest = hashlib.sha256(b"").hexdigest()[:12]
        assert f"wrote 0 records to {out} (sha256 {digest})" in capsys.readouterr().out

    def test_reports_attempts_and_rejections(self, tmp_path, capsys):
        """Each rejected attempt is counted once, under the check that
        rejected it; the counts are the same under either validator."""
        out = tmp_path / "c.jsonl"
        assert run_cli("generate", "-n", "60", "--seed", "4", "--out", str(out)) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == (
            "attempts 70 (rejected: scheme ratio 7, quotes not mutually exclusive verbatim 3)"
        )
        assert run_cli("generate", "-n", "0", "--out", str(out)) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "attempts 0 (rejected: none)"

    def test_same_seed_same_hash(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("generate", "-n", "15", "--seed", "9", "--out", str(a))
        run_cli("generate", "-n", "15", "--seed", "9", "--out", str(b))
        assert hashlib.sha256(a.read_bytes()).digest() == hashlib.sha256(b.read_bytes()).digest()

    def test_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lexicon_id": "sports_clubs"}))
        out = tmp_path / "c.jsonl"
        assert run_cli("generate", "-n", "5", "--config", str(config),
                       "--out", str(out)) == EXIT_OK
        assert "sports_clubs" in out.read_text()

    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{nonsense")
        assert run_cli("generate", "-n", "5", "--config", str(config),
                       "--out", str(tmp_path / "c.jsonl")) == EXIT_CONFIG

    def test_seed_in_config_file_exits_2(self, tmp_path, caplog):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}))
        out = tmp_path / "c.jsonl"
        assert run_cli("generate", "-n", "5", "--config", str(config),
                       "--out", str(out)) == EXIT_CONFIG
        assert "seed" in caplog.text
        assert not out.exists()

    def test_paraphrase_in_config_file_exits_2(self, tmp_path, caplog):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paraphrase": "x"}))
        out = tmp_path / "c.jsonl"
        assert run_cli("generate", "-n", "5", "--config", str(config),
                       "--out", str(out)) == EXIT_CONFIG
        assert "bad generator config" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        [1, 2],
        {"step_weights": 3},
        {"step_weights": [1e308, 1e308]},
        {"imprecise_rendition": "yes"},
    ], ids=["not-an-object", "weights-not-a-list", "weights-sum-not-finite", "flag-not-a-bool"])
    def test_config_of_the_wrong_shape_exits_2(self, tmp_path, caplog, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "c.jsonl"
        assert run_cli("generate", "-n", "5", "--config", str(path),
                       "--out", str(out)) == EXIT_CONFIG
        assert "bad generator config" in caplog.text
        assert not out.exists()

    def test_unknown_preset_exits_2(self, tmp_path):
        assert run_cli("generate", "-n", "5", "--preset", "nope",
                       "--out", str(tmp_path / "c.jsonl")) == EXIT_CONFIG


class TestRun:
    def test_oracle_run_counts(self, tmp_path, corpus_file):
        traces = tmp_path / "traces.jsonl"
        code = run_cli("run", "--corpus", str(corpus_file), "--chains", "1,9,13",
                       "--backend", "oracle", "--out", str(traces))
        assert code == EXIT_OK
        assert len(traces.read_text().strip().splitlines()) == 20 * 3

    @pytest.mark.parametrize("backend", ["oracle", "noisy:0.2"])
    def test_oracle_target_without_the_output_fails_only_its_traces(
        self, tmp_path, corpus_file, backend
    ):
        rows = [json.loads(line) for line in corpus_file.read_text().splitlines()]
        del rows[1]["reasons"]
        corpus_file.write_text("".join(json.dumps(row) + "\n" for row in rows))
        traces = tmp_path / "traces.jsonl"
        code = run_cli("run", "--corpus", str(corpus_file), "--chains", "1",
                       "--backend", backend, "--out", str(traces))
        assert code == EXIT_BACKEND
        errors = [json.loads(line)["error"] for line in traces.read_text().splitlines()]
        record_id = rows[1]["meta"]["record_id"]
        assert errors[1] == f"record {record_id!r}: dimension reasons is absent"
        assert errors[:1] + errors[2:] == [None] * 19

    def test_bad_chain_id_exits_2(self, tmp_path, corpus_file):
        code = run_cli("run", "--corpus", str(corpus_file), "--chains", "17",
                       "--backend", "oracle", "--out", str(tmp_path / "t.jsonl"))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("spec", ["noisy:abc", "noisy:1.5"])
    def test_bad_noisy_rate_exits_2(self, tmp_path, corpus_file, caplog, spec):
        code = run_cli("run", "--corpus", str(corpus_file), "--chains", "1",
                       "--backend", spec, "--out", str(tmp_path / "t.jsonl"))
        assert code == EXIT_CONFIG
        assert f"bad backend spec {spec!r}" in caplog.text
        assert "[0, 1]" in caplog.text

    @pytest.mark.parametrize("spec, message", [
        ("foo", "unknown backend spec 'foo'"),
        ("http", "unknown backend spec 'http'"),
        ("http://", "is not an http(s) URL"),
        ("http://127.0.0.1:port", "endpoint 'http://127.0.0.1:port'"),
    ])
    def test_bad_backend_spec_exits_2(self, tmp_path, corpus_file, caplog, spec, message):
        traces = tmp_path / "t.jsonl"
        code = run_cli("run", "--corpus", str(corpus_file), "--chains", "1",
                       "--backend", spec, "--out", str(traces))
        assert code == EXIT_CONFIG
        assert message in caplog.text
        assert not traces.exists()

    @pytest.mark.parametrize("value", ["abc", "-5", "0", "nan"])
    @pytest.mark.parametrize("backend", ["oracle", "http://127.0.0.1:1"])
    def test_bad_timeout_exits_2(self, tmp_path, corpus_file, caplog, monkeypatch,
                                 value, backend):
        monkeypatch.setenv("DEEPA2_TIMEOUT_MS", value)
        traces = tmp_path / "t.jsonl"
        code = run_cli("run", "--corpus", str(corpus_file), "--chains", "1",
                       "--backend", backend, "--out", str(traces))
        assert code == EXIT_CONFIG
        assert "DEEPA2_TIMEOUT_MS" in caplog.text and repr(value) in caplog.text
        assert not traces.exists()

    def test_dead_http_endpoint_preserves_partial_traces(self, tmp_path, corpus_file):
        traces = tmp_path / "traces.jsonl"
        code = run_cli("run", "--corpus", str(corpus_file), "--chains", "1",
                       "--backend", "http://127.0.0.1:1", "--out", str(traces))
        assert code == EXIT_BACKEND
        rows = [json.loads(l) for l in traces.read_text().strip().splitlines()]
        assert rows and all(r["error"] for r in rows)

    def test_non_string_http_output_fails_its_chain(self, tmp_path, corpus_file, caplog):
        server = start_stub_server()
        server.state["raw_body"] = b'{"output": ["a"]}'
        traces = tmp_path / "traces.jsonl"
        try:
            code = run_cli("run", "--corpus", str(corpus_file), "--chains", "1,9",
                           "--backend", f"http://127.0.0.1:{server.server_address[1]}",
                           "--out", str(traces))
        finally:
            stop_stub_server(server)
        assert code == EXIT_BACKEND
        rows = [json.loads(line) for line in traces.read_text().splitlines()]
        assert len(rows) == 40
        assert all("malformed response" in row["error"] for row in rows)
        assert "backend failures on 40 traces" in caplog.text

    def test_parallel_jobs_match_sequential(self, tmp_path, corpus_file):
        seq, par = tmp_path / "seq.jsonl", tmp_path / "par.jsonl"
        for chains, backend, extra in (
            ("1,9", "oracle", ()),
            ("all", "noisy:0.2", ("--with-formalization",)),
        ):
            run_cli("run", "--corpus", str(corpus_file), "--chains", chains,
                    "--backend", backend, *extra, "--out", str(seq))
            run_cli("run", "--corpus", str(corpus_file), "--chains", chains,
                    "--backend", backend, *extra, "--jobs", "4", "--out", str(par))
            assert seq.read_text() == par.read_text()

    def test_each_distinct_request_reaches_the_backend_once(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        assert run_cli("generate", "-n", "2", "--seed", "3", "--out", str(corpus)) == EXIT_OK
        records = load_corpus(corpus)
        traces = tmp_path / "traces.jsonl"
        run_args = ("run", "--corpus", str(corpus), "--chains", "all",
                    "--with-formalization", "--out", str(traces))

        reference = RecordingBackend(DigestEchoBackend())
        expected = chain_by_chain(records, reference)
        distinct = len(set(reference.requests))
        assert len(reference.requests) == 350 and distinct < 350

        server = start_stub_server()
        server.state["digest"] = True
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            capsys.readouterr()
            assert run_cli(*run_args, "--backend", url, "--jobs", "2") == EXIT_OK
            assert len(server.state["requests"]) == distinct
        finally:
            stop_stub_server(server)
        assert f"{distinct} backend calls for 350 steps" in capsys.readouterr().out
        assert read_traces(traces) == expected

        for spec, backend in (
            ("oracle", OracleBackend(records)),
            ("noisy:0.2", NoisyOracleBackend(records, 0.2, seed=0)),
        ):
            assert run_cli(*run_args, "--backend", spec) == EXIT_OK
            assert read_traces(traces) == chain_by_chain(records, backend)


class TestEval:
    def test_eval_writes_reports_and_aggregate(self, tmp_path, corpus_file):
        traces = tmp_path / "traces.jsonl"
        run_cli("run", "--corpus", str(corpus_file), "--chains", "1,9",
                "--backend", "oracle", "--with-formalization", "--out", str(traces))
        metrics = tmp_path / "metrics.jsonl"
        code = run_cli("eval", "--traces", str(traces), "--corpus", str(corpus_file),
                       "--out", str(metrics))
        assert code == EXIT_OK
        rows = [json.loads(l) for l in metrics.read_text().strip().splitlines()]
        assert len(rows) == 40
        table = json.loads((tmp_path / "metrics.jsonl.aggregate.json").read_text())
        by_chain = {r["chain"]: r for r in table["rows"]}
        assert by_chain["oracle"]["sys_val"] == 1.0
        assert by_chain["pooling"]["sys_val"] >= by_chain["1"]["sys_val"]

    def test_oracle_row_reuses_the_trace_reports(self, tmp_path, corpus_file, monkeypatch):
        traces = tmp_path / "traces.jsonl"
        run_cli("run", "--corpus", str(corpus_file), "--chains", "all",
                "--backend", "oracle", "--with-formalization", "--out", str(traces))
        targets = []

        def counting(work, target=None, **kwargs):
            targets.append(target.meta.record_id)
            return evaluate_analysis(work, target=target, **kwargs)

        monkeypatch.setattr(evaluation, "evaluate_analysis", counting)
        metrics = tmp_path / "metrics.jsonl"
        assert run_cli("eval", "--traces", str(traces), "--corpus", str(corpus_file),
                       "--out", str(metrics)) == EXIT_OK
        corpus = {r.meta.record_id: r for r in load_corpus(corpus_file)}
        assert sorted(targets) == sorted(corpus)
        # The same table as with every report scored from scratch.
        monkeypatch.undo()
        clear_memos()
        table = aggregate_table(evaluation.evaluate_traces(read_finals(traces), corpus),
                                corpus)
        aggregate = tmp_path / "metrics.jsonl.aggregate.json"
        assert aggregate.read_text() == json.dumps(table, indent=2)

    def test_empty_traces_exit_4(self, tmp_path, corpus_file, caplog):
        traces = tmp_path / "traces.jsonl"
        traces.write_text("")
        code = run_cli("eval", "--traces", str(traces), "--corpus", str(corpus_file),
                       "--out", str(tmp_path / "m.jsonl"))
        assert code == EXIT_VALIDATION
        assert "traces file is empty" in caplog.text

    def test_failed_traces_are_skipped_and_counted(self, tmp_path, corpus_file, capsys):
        traces = tmp_path / "traces.jsonl"
        run_cli("run", "--corpus", str(corpus_file), "--chains", "1,9",
                "--backend", "oracle", "--with-formalization", "--out", str(traces))
        good = traces.read_text().splitlines(keepends=True)
        failed = []
        for line in good[:3]:
            row = json.loads(line)
            row["error"], row["steps"] = "backend down", row["steps"][:2]
            failed.append(json.dumps(row) + "\n")
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("".join(
            line for pair in zip(good, failed + [""] * len(good)) for line in pair
        ))
        alone, with_failed = tmp_path / "alone.jsonl", tmp_path / "with_failed.jsonl"
        for source, out in ((traces, alone), (mixed, with_failed)):
            capsys.readouterr()
            assert run_cli("eval", "--traces", str(source), "--corpus", str(corpus_file),
                           "--out", str(out)) == EXIT_OK
        assert with_failed.read_text() == alone.read_text()
        assert ((tmp_path / "with_failed.jsonl.aggregate.json").read_text()
                == (tmp_path / "alone.jsonl.aggregate.json").read_text())
        assert (f"wrote metrics for 40 traces to {with_failed} (3 failed traces "
                "skipped; 20 distinct analyses evaluated)") in capsys.readouterr().out

    def test_only_failed_traces_exit_4(self, tmp_path, corpus_file, caplog):
        traces = tmp_path / "traces.jsonl"
        run_cli("run", "--corpus", str(corpus_file), "--chains", "1",
                "--backend", "oracle", "--out", str(traces))
        rows = [json.loads(line) for line in traces.read_text().splitlines()]
        traces.write_text("".join(
            json.dumps({**row, "error": "backend down"}) + "\n" for row in rows
        ))
        code = run_cli("eval", "--traces", str(traces), "--corpus", str(corpus_file),
                       "--out", str(tmp_path / "m.jsonl"))
        assert code == EXIT_VALIDATION
        assert "no traces to evaluate" in caplog.text

    @pytest.mark.parametrize("bad_line", [
        '{"chain_id": 1, "final": ',
        '{"record_id": "r", "final": {}}',
    ], ids=["truncated", "no-chain-id"])
    def test_malformed_trace_line_exit_4(self, tmp_path, corpus_file, caplog, bad_line):
        traces = tmp_path / "traces.jsonl"
        run_cli("run", "--corpus", str(corpus_file), "--chains", "1",
                "--backend", "oracle", "--out", str(traces))
        lines = traces.read_text().splitlines(keepends=True)
        traces.write_text("".join(lines[:3]) + "\n" + bad_line)
        code = run_cli("eval", "--traces", str(traces), "--corpus", str(corpus_file),
                       "--out", str(tmp_path / "m.jsonl"))
        assert code == EXIT_VALIDATION
        assert f"{traces}:5: malformed trace line" in caplog.text
        assert not (tmp_path / "m.jsonl").exists()

    @pytest.mark.parametrize("field, value", [
        ("chain_id", "2"),
        ("chain_id", True),
        ("final", {"reasons": None}),
        ("error", 500),
    ], ids=["string-chain-id", "bool-chain-id", "null-final-value", "number-error"])
    def test_trace_field_of_wrong_type_exit_4(self, tmp_path, corpus_file, caplog,
                                              field, value):
        traces = tmp_path / "traces.jsonl"
        run_cli("run", "--corpus", str(corpus_file), "--chains", "1,2",
                "--backend", "oracle", "--out", str(traces))
        lines = traces.read_text().splitlines(keepends=True)
        row = json.loads(lines[5])
        row[field] = {**row[field], **value} if field == "final" else value
        lines[5] = json.dumps(row) + "\n"
        traces.write_text("".join(lines))
        metrics = tmp_path / "m.jsonl"
        code = run_cli("eval", "--traces", str(traces), "--corpus", str(corpus_file),
                       "--out", str(metrics))
        assert code == EXIT_VALIDATION
        assert f"{traces}:6: malformed trace line" in caplog.text
        assert not metrics.exists()
        assert not (tmp_path / "m.jsonl.aggregate.json").exists()

    def test_old_format_traces_give_the_same_bytes(self, tmp_path, corpus_file):
        traces = tmp_path / "traces.jsonl"
        run_cli("run", "--corpus", str(corpus_file), "--chains", "all", "--backend",
                "noisy:0.3", "--with-formalization", "--out", str(traces))
        # Steps with their inputs, keys in another order, compact separators.
        old = tmp_path / "old.jsonl"
        with old.open("w") as fh:
            for line in traces.read_text().splitlines():
                row = json.loads(line)
                row["steps"] = [{"inputs": {"source": "..."}, **s} for s in row["steps"]]
                fh.write(json.dumps(dict(reversed(row.items())), separators=(",", ":"))
                         + "\n")
        for source, out in ((traces, "new.jsonl"), (old, "old_m.jsonl")):
            assert run_cli("eval", "--traces", str(source), "--corpus", str(corpus_file),
                           "--out", str(tmp_path / out)) == EXIT_OK
        for suffix in ("", ".aggregate.json"):
            assert ((tmp_path / f"old_m.jsonl{suffix}").read_bytes()
                    == (tmp_path / f"new.jsonl{suffix}").read_bytes())

    def test_metric_lines_equal_json_dumps_of_the_rows(self, tmp_path, corpus_file):
        traces = tmp_path / "traces.jsonl"
        run_cli("run", "--corpus", str(corpus_file), "--chains", "1,9",
                "--backend", "oracle", "--with-formalization", "--out", str(traces))
        lines = traces.read_text(encoding="utf-8").splitlines(keepends=True)
        # Formalizations whose diagnostics quote a non-ASCII and a '"' token.
        for number, garbage in ((0, "Zoë ½ @@"), (3, '"F a" @@')):
            row = json.loads(lines[number])
            row["final"]["premises_form"] = garbage
            lines[number] = json.dumps(row, ensure_ascii=False) + "\n"
        traces.write_text("".join(lines), encoding="utf-8")
        metrics = tmp_path / "m.jsonl"
        assert run_cli("eval", "--traces", str(traces), "--corpus", str(corpus_file),
                       "--out", str(metrics)) == EXIT_OK
        clear_memos()
        corpus = {r.meta.record_id: r for r in load_corpus(corpus_file)}
        rows = evaluation.evaluate_traces(read_finals(traces), corpus)
        assert len({id(row.report) for row in rows}) < len(rows)  # shared reports
        diagnostics = [d for row in rows for d in row.report.diagnostics]
        assert any("ë" in d for d in diagnostics) and any('"' in d for d in diagnostics)
        expected = "".join(json.dumps(row.to_dict(), ensure_ascii=False) + "\n"
                           for row in rows)
        assert metrics.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("premises, diagnostic", [
        (["(" * 300 + "F a" + ")" * 300],
         "sys_val: formula nests deeper than 50 levels (at position 50)"),
        (["F a"] * 1200, None),
        (["(x): " + " & ".join(f"(G {c} -> F x)" for c in "abcdefghijklmnopqrst")],
         "sys_val: quantifier elimination exceeds 10000 nodes"),
        (block_disjunctions(random.Random(1), 2000),
         "sys_val: satisfiability search exceeds 100 levels"),
    ], ids=["nested-300-deep", "1200-premises", "20-guarded-conjuncts",
            "2000-block-disjunctions"])
    def test_hostile_formalization_is_scored_in_bounded_time(
        self, tmp_path, corpus_file, premises, diagnostic
    ):
        """One formalization too deep, too long, too costly to eliminate or
        too deep to search scores ``sys_val`` 0 with a diagnostic, or is
        decided, within 2 s."""
        traces = tmp_path / "traces.jsonl"
        run_cli("run", "--corpus", str(corpus_file), "--chains", "1",
                "--backend", "oracle", "--with-formalization", "--out", str(traces))
        lines = traces.read_text().splitlines(keepends=True)
        row = json.loads(lines[0])
        row["final"]["premises_form"] = " | ".join(
            f"{p} (ref: ({i}))" for i, p in enumerate(premises, 1))
        row["final"]["conclusion_form"] = f"F a v G a (ref: ({len(premises) + 1}))"
        traces.write_text(json.dumps(row) + "\n" + "".join(lines[1:]))
        metrics = tmp_path / "m.jsonl"
        clear_memos()
        start = time.perf_counter()
        assert run_cli("eval", "--traces", str(traces), "--corpus", str(corpus_file),
                       "--out", str(metrics)) == EXIT_OK
        assert time.perf_counter() - start < 2.0
        first = json.loads(metrics.read_text().splitlines()[0])
        assert first["sys_val"] == (0 if diagnostic else 1)
        assert [d for d in first.get("diagnostics", []) if d.startswith("sys_val")] == (
            [diagnostic] if diagnostic else [])

    def test_reference_to_statement_zero_is_scored(self, tmp_path, corpus_file):
        traces = tmp_path / "traces.jsonl"
        run_cli("run", "--corpus", str(corpus_file), "--chains", "1",
                "--backend", "oracle", "--out", str(traces))
        lines = traces.read_text().splitlines(keepends=True)
        row = json.loads(lines[0])
        row["final"]["reasons"] += " (ref: (0))"
        traces.write_text(json.dumps(row) + "\n" + "".join(lines[1:]))
        metrics = tmp_path / "m.jsonl"
        code = run_cli("eval", "--traces", str(traces), "--corpus", str(corpus_file),
                       "--out", str(metrics))
        assert code == EXIT_OK
        first = json.loads(metrics.read_text().splitlines()[0])
        assert any("statement reference must be positive" in d
                   for d in first["diagnostics"])

    def test_trace_without_record_id_exit_4(self, tmp_path, caplog):
        # A corpus without ids gets traces without ids (as the http backend
        # writes them); each such trace must not be scored against whichever
        # id-less record came last.
        corpus = tmp_path / "corpus.jsonl"
        assert run_cli("generate", "-n", "3", "--seed", "2", "--out", str(corpus)) == EXIT_OK
        traces = tmp_path / "traces.jsonl"
        assert run_cli("run", "--corpus", str(corpus), "--chains", "1",
                       "--out", str(traces)) == EXIT_OK
        records = [json.loads(line) for line in corpus.read_text().splitlines()]
        for record in records:
            del record["meta"]["record_id"]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
        rows = [json.loads(line) for line in traces.read_text().splitlines()]
        traces.write_text("".join(json.dumps({**row, "record_id": None}) + "\n"
                                  for row in rows))
        metrics = tmp_path / "m.jsonl"
        code = run_cli("eval", "--traces", str(traces), "--corpus", str(corpus),
                       "--out", str(metrics))
        assert code == EXIT_VALIDATION
        assert "trace of chain 1 has no record_id" in caplog.text
        assert not metrics.exists()
        assert not (tmp_path / "m.jsonl.aggregate.json").exists()

    def test_corpus_mismatch_exit_4(self, tmp_path, corpus_file):
        traces = tmp_path / "traces.jsonl"
        run_cli("run", "--corpus", str(corpus_file), "--chains", "1",
                "--backend", "oracle", "--out", str(traces))
        other = tmp_path / "other.jsonl"
        run_cli("generate", "-n", "5", "--seed", "77", "--out", str(other))
        code = run_cli("eval", "--traces", str(traces), "--corpus", str(other),
                       "--out", str(tmp_path / "m.jsonl"))
        assert code == EXIT_VALIDATION

    def test_trace_that_joins_no_record_is_refused_with_its_line(
        self, tmp_path, corpus_file, caplog
    ):
        traces = tmp_path / "traces.jsonl"
        run_cli("run", "--corpus", str(corpus_file), "--chains", "1",
                "--backend", "oracle", "--out", str(traces))
        lines = traces.read_text().splitlines(keepends=True)
        row = json.loads(lines[2])
        row["record_id"] = "no-such-record"
        # A blank line still counts as a line of the file.
        traces.write_text("".join(lines[:2]) + "\n" + json.dumps(row) + "\n")
        code = run_cli("eval", "--traces", str(traces), "--corpus", str(corpus_file),
                       "--out", str(tmp_path / "m.jsonl"))
        assert code == EXIT_VALIDATION
        assert (f"{traces}:4: trace for unknown record 'no-such-record'; corpus mismatch"
                in caplog.text)


@pytest.mark.parametrize("argv, minimum", [
    (("generate", "-n", "-5"), 0),
    (("export-training", "--corpus", "c.jsonl", "-n", "-3"), 0),
    (("run", "--corpus", "c.jsonl", "--jobs", "-4"), 1),
    (("run", "--corpus", "c.jsonl", "--jobs", "0"), 1),
])
def test_counts_below_their_minimum_exit_2(tmp_path, capsys, argv, minimum):
    out = tmp_path / "out.jsonl"
    assert run_cli(*argv, "--out", str(out)) == EXIT_CONFIG
    assert f"must be at least {minimum}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage", ["run", "eval", "export-training"])
def test_malformed_corpus_line_exit_4(tmp_path, corpus_file, caplog, stage):
    lines = corpus_file.read_text().splitlines(keepends=True)
    corpus_file.write_text("".join(lines[:3]) + lines[3][: len(lines[3]) // 2])
    traces = tmp_path / "traces.jsonl"
    traces.write_text("")
    extra = {"run": (), "eval": ("--traces", str(traces)), "export-training": ()}
    out = tmp_path / "out.jsonl"
    code = run_cli(stage, "--corpus", str(corpus_file), *extra[stage], "--out", str(out))
    assert code == EXIT_VALIDATION
    assert f"{corpus_file}:4: malformed corpus line" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("stage", ["run", "eval", "export-training"])
def test_duplicate_record_id_exit_4(tmp_path, corpus_file, caplog, stage):
    lines = corpus_file.read_text().splitlines(keepends=True)
    first = json.loads(lines[0])
    copy = json.loads(lines[2])
    copy["meta"]["record_id"] = first["meta"]["record_id"]
    lines[2] = json.dumps(copy) + "\n"
    corpus_file.write_text("".join(lines))
    traces = tmp_path / "traces.jsonl"
    traces.write_text("")
    extra = {"run": (), "eval": ("--traces", str(traces)), "export-training": ()}
    out = tmp_path / "out.jsonl"
    code = run_cli(stage, "--corpus", str(corpus_file), *extra[stage], "--out", str(out))
    assert code == EXIT_VALIDATION
    assert (f"{corpus_file}:3: duplicate record id '{first['meta']['record_id']}' "
            "(first at line 1)") in caplog.text
    assert not out.exists()


def rewrite_corpus(src, dst, change) -> None:
    """``dst``: the corpus ``src`` with ``change(index, data)`` applied to
    each line's dict."""
    rows = [json.loads(line) for line in src.read_text().splitlines()]
    for index, data in enumerate(rows):
        change(index, data)
    dst.write_text("".join(json.dumps(data) + "\n" for data in rows))


@pytest.mark.parametrize("stage", ["run", "eval", "export-training"])
@pytest.mark.parametrize("field, bad", [
    ("record_id", ["r"]),
    ("record_id", 7),
    ("n_inference_steps", 1.5),
    ("n_distractors", True),
    ("final_conclusion_explicit", ["yes"]),
    ("uses_complex_schemes", 0),
    ("domain_tag", None),
], ids=["id-list", "id-int", "count-float", "count-bool", "flag-list", "flag-int",
        "tag-null"])
def test_mistyped_meta_field_exit_4(tmp_path, corpus_file, caplog, stage, field, bad):
    def spoil(index, data):
        if index == 3:
            data["meta"][field] = bad

    rewrite_corpus(corpus_file, corpus_file, spoil)
    traces = tmp_path / "traces.jsonl"
    traces.write_text("")
    extra = {"run": (), "eval": ("--traces", str(traces)), "export-training": ()}
    out = tmp_path / "out.jsonl"
    code = run_cli(stage, "--corpus", str(corpus_file), *extra[stage], "--out", str(out))
    assert code == EXIT_VALIDATION
    assert f"{corpus_file}:4: malformed corpus line" in caplog.text
    assert field in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("backend", ["oracle", "noisy:0.2"])
def test_record_without_id_is_refused_by_an_oracle_run_with_its_line(
    tmp_path, corpus_file, caplog, backend
):
    """The oracle backends look records up by id: a line whose
    ``meta.record_id`` is null is a malformed corpus (exit 4, with its line),
    not a backend failure."""

    def spoil(index, data):
        if index == 3:
            data["meta"]["record_id"] = None

    rewrite_corpus(corpus_file, corpus_file, spoil)
    out = tmp_path / "traces.jsonl"
    code = run_cli("run", "--corpus", str(corpus_file), "--backend", backend,
                   "--out", str(out))
    assert code == EXIT_VALIDATION
    assert f"{corpus_file}:4: record has no id (meta.record_id)" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("keyword, bad, eval_code", [
    ("argdown", "no argument here", EXIT_VALIDATION),
    ("premises_form", "F x y (ref: (1))", EXIT_VALIDATION),
    ("premises_form", "(" * 300 + "F a" + ")" * 300 + " (ref: (1))", EXIT_VALIDATION),
    ("keys", "no key here", EXIT_OK),
])
def test_malformed_dimension_is_rejected_only_where_scored(
    tmp_path, corpus_file, caplog, keyword, bad, eval_code
):
    """A well-formed line whose dimension text does not parse: run and
    export-training parse no dimension and copy it verbatim; eval parses
    the dimensions it scores as it loads, and rejects a malformed one."""

    def spoil(index, data):
        if index == 3:
            data[keyword] = bad

    corpus = tmp_path / "spoiled.jsonl"
    rewrite_corpus(corpus_file, corpus, spoil)
    traces, pairs = tmp_path / "traces.jsonl", tmp_path / "pairs.jsonl"
    assert run_cli("run", "--corpus", str(corpus), "--chains", "1",
                   "--with-formalization", "--out", str(traces)) == EXIT_OK
    assert [final[keyword] for final, _ in read_traces(traces)][3] == bad
    assert run_cli("export-training", "--corpus", str(corpus), "-n", "50",
                   "--out", str(pairs)) == EXIT_OK
    assert json.dumps(bad)[1:-1] in pairs.read_text()
    metrics = tmp_path / "metrics.jsonl"
    code = run_cli("eval", "--traces", str(traces), "--corpus", str(corpus),
                   "--out", str(metrics))
    assert code == eval_code
    if eval_code == EXIT_VALIDATION:
        assert f"{corpus}:4: malformed corpus line" in caplog.text
        assert not metrics.exists()


def test_non_canonical_whitespace_is_kept(tmp_path, corpus_file):
    """A hand-written corpus with extra whitespace keeps its texts as
    written: run's oracle answers and export's pairs carry them verbatim,
    while eval, whose metric suite normalizes whitespace as it parses,
    scores them as it scores the canonical corpus."""

    def pad(index, data):
        for keyword in ("source", "reasons", "conjectures"):
            data[keyword] = " " + data[keyword].replace(" ", "  ") + "\t"

    padded = tmp_path / "padded.jsonl"
    rewrite_corpus(corpus_file, padded, pad)
    outputs = {}
    for name, corpus in (("canonical", corpus_file), ("padded", padded)):
        traces = tmp_path / f"traces_{name}.jsonl"
        metrics, pairs = tmp_path / f"metrics_{name}.jsonl", tmp_path / f"pairs_{name}.jsonl"
        assert run_cli("run", "--corpus", str(corpus), "--chains", "1,9",
                       "--with-formalization", "--out", str(traces)) == EXIT_OK
        assert run_cli("eval", "--traces", str(traces), "--corpus", str(corpus),
                       "--out", str(metrics)) == EXIT_OK
        assert run_cli("export-training", "--corpus", str(corpus),
                       "--out", str(pairs)) == EXIT_OK
        outputs[name] = (read_traces(traces), metrics.read_text(),
                         [json.loads(line) for line in pairs.read_text().splitlines()])
    (traces, metrics, pairs), (padded_traces, padded_metrics, padded_pairs) = (
        outputs["canonical"], outputs["padded"]
    )
    rows = [json.loads(line) for line in padded.read_text().splitlines()]
    assert [final["source"] for final, _ in padded_traces[::2]] == [
        row["source"] for row in rows
    ]
    assert padded_traces != traces and padded_pairs != pairs
    assert padded_metrics == metrics

    def normalized(value):
        if isinstance(value, str):
            return normalize_ws(value)
        if isinstance(value, dict):
            return {key: normalized(item) for key, item in value.items()}
        return [normalized(item) for item in value]

    assert normalized(padded_traces) == normalized(traces)
    assert normalized(padded_pairs) == normalized(pairs)


@pytest.mark.parametrize("backend", ["oracle", "noisy:0.2"])
def test_run_and_export_parse_nothing(tmp_path, corpus_file, backend):
    from deepa2.argdown import parse_argdown
    from deepa2.formula import parse_formula

    def parsed() -> list[int]:
        return [memo.cache_info().currsize
                for memo in (_parse_statements, parse_argdown, parse_formula)]

    clear_memos()
    assert run_cli("run", "--corpus", str(corpus_file), "--chains", "all",
                   "--with-formalization", "--backend", backend,
                   "--out", str(tmp_path / "traces.jsonl")) == EXIT_OK
    assert parsed() == [0, 0, 0]
    assert run_cli("export-training", "--corpus", str(corpus_file),
                   "--out", str(tmp_path / "pairs.jsonl")) == EXIT_OK
    assert parsed() == [0, 0, 0]


class TestExportTraining:
    def test_export_counts_and_determinism(self, tmp_path, corpus_file):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli("export-training", "--corpus", str(corpus_file),
                       "-n", "14", "--seed", "5", "--out", str(a)) == EXIT_OK
        run_cli("export-training", "--corpus", str(corpus_file),
                "-n", "14", "--seed", "5", "--out", str(b))
        lines = a.read_text().strip().splitlines()
        assert len(lines) == 20 * 14
        assert a.read_text() == b.read_text()
        row = json.loads(lines[0])
        assert set(row) == {"input", "target"}
