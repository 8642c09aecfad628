"""Import hygiene: the package needs no third-party module, and the CLI
loads a stage's modules only when that stage runs.  Each check runs in a
fresh interpreter, so modules loaded by other tests cannot hide a fault."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args: str) -> subprocess.CompletedProcess:
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=60,
    )


#: The package's public surface, by name, so that a removal shows in review.
PUBLIC_NAMES = [
    "ArgdownArgument", "ChainResult", "ChainSpec", "DeepA2Record", "DimensionId",
    "EntailmentTreeRecord", "GenerationRequest", "GeneratorConfig",
    "HttpBackend", "InferenceStep", "MetricReport", "ModeSpec", "ModelBackend",
    "NoisyOracleBackend", "OracleBackend", "QuotedStatement", "RecordMeta",
    "SchemeCatalog", "__version__", "aggregate_table",
    "builtin_catalog", "chain_by_id", "chain_catalog", "check_entailment",
    "check_satisfiable", "check_scheme_instantiation", "classify_subsets",
    "default_scorer", "evaluate_analysis", "evaluate_traces", "export_training",
    "final_conclusion_of",
    "formalization_subchain", "format_prompt", "generate_corpus",
    "import_entailmentbank", "load_corpus", "make_backend", "mode", "mode_registry",
    "oracle_reports", "parse_argdown", "parse_dimension", "parse_formula",
    "premises_of", "render_argdown", "render_formula", "run_chain",
    "serialize_dimension", "sophistication", "subset_census", "sys_sch_ratio",
    "verbalize_argument",
]


def test_no_third_party_dependency():
    code = """
import json, pkgutil, sys
sys.modules["requests"] = sys.modules["numpy"] = None  # importing either fails
import deepa2
for info in pkgutil.walk_packages(deepa2.__path__, "deepa2."):
    __import__(info.name)
for name in deepa2.__all__:
    getattr(deepa2, name)
from deepa2 import GeneratorConfig, import_entailmentbank, HttpBackend
print(json.dumps(sorted(deepa2.__all__)))
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PUBLIC_NAMES


def test_cli_import_loads_no_stage_module():
    code = """
import sys
import deepa2.cli
stage_modules = ("backends", "chains", "generator", "importers", "metrics", "records")
print(" ".join(m for m in stage_modules if "deepa2." + m in sys.modules))
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_entailmentbank_import_loads_no_chain_or_metric():
    code = """
import sys
import deepa2.importers
print(" ".join(m for m in ("chains", "metrics") if "deepa2." + m in sys.modules))
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_cli_help_exits_zero():
    proc = run_python("-m", "deepa2.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "generate" in proc.stdout and "export-training" in proc.stdout


def test_generate_loads_no_multiprocessing(tmp_path):
    code = f"""
import sys
from deepa2.cli import main
assert main(["generate", "-n", "60", "--out", {str(tmp_path / "c.jsonl")!r}]) == 0
print(" ".join(m for m in sys.modules if m.split(".")[0] == "multiprocessing"))
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].strip() == ""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A two-record corpus and its oracle traces, made in this process."""
    from deepa2.cli import main

    tmp = tmp_path_factory.mktemp("tiny")
    corpus, traces = tmp / "corpus.jsonl", tmp / "traces.jsonl"
    assert main(["generate", "-n", "2", "--seed", "1", "--out", str(corpus)]) == 0
    assert main(["run", "--corpus", str(corpus), "--chains", "all",
                 "--with-formalization", "--out", str(traces)]) == 0
    return tmp, corpus, traces


def loaded_modules(*argv: str) -> set[str]:
    """The modules a fresh interpreter has loaded after one successful stage."""
    code = f"""
import sys
from deepa2.cli import main
assert main({list(argv)!r}) == 0
print(" ".join(sys.modules))
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def stage_modules(*argv: str) -> set[str]:
    """The deepa2 modules a fresh interpreter has loaded after one stage."""
    return {m for m in loaded_modules(*argv) if m.startswith("deepa2.")}


#: What no stage runs: ``dataclasses`` (which loads ``inspect``, ``ast`` and
#: ``dis`` and compiles each class's methods at every start) and ``logging``.
UNUSED_AT_START_UP = {"dataclasses", "inspect", "ast", "dis", "logging"}


def test_stages_load_no_module_they_do_not_run(tiny_run):
    """Each stage is a fresh process that compiles its modules from source,
    so every module it loads is paid for on every run."""
    tmp, corpus, traces = tiny_run
    stages = {
        "generate": ("generate", "-n", "2", "--seed", "1", "--out", str(tmp / "c.jsonl")),
        "run": ("run", "--jobs", "1", "--backend", "oracle", "--corpus", str(corpus),
                "--chains", "all", "--with-formalization", "--out", str(tmp / "t.jsonl")),
        "eval": ("eval", "--traces", str(traces), "--corpus", str(corpus),
                 "--out", str(tmp / "metrics.jsonl")),
        "export-training": ("export-training", "--corpus", str(corpus),
                            "--out", str(tmp / "pairs.jsonl")),
        "--help": ("--help",),
    }
    loaded = {name: loaded_modules(*argv) for name, argv in stages.items()}
    for name, modules in loaded.items():
        assert not modules & UNUSED_AT_START_UP, name
    # A serial run starts no thread pool, and the plain oracle hashes nothing.
    assert not loaded["run"] & {"concurrent.futures", "hashlib"}
    # The generator checks quotes with ``textnorm.eval_exe_meq``.
    assert "deepa2.metrics" not in loaded["generate"]


#: Modules only scoring needs; the decider decides sys_val.
METRIC_MODULES = {
    "deepa2.metrics", "deepa2.schemes", "deepa2.nl_templates", "deepa2.formula.decide",
}


def test_no_stage_loads_the_importers(tiny_run):
    tmp, corpus, traces = tiny_run
    stages = [
        ("generate", "-n", "2", "--seed", "1", "--out", str(tmp / "c.jsonl")),
        ("run", "--corpus", str(corpus), "--chains", "all", "--with-formalization",
         "--out", str(tmp / "t.jsonl")),
        ("eval", "--traces", str(traces), "--corpus", str(corpus),
         "--out", str(tmp / "metrics.jsonl")),
        ("export-training", "--corpus", str(corpus), "--out", str(tmp / "pairs.jsonl")),
    ]
    for argv in stages:
        assert "deepa2.importers" not in stage_modules(*argv), argv[0]


def test_run_and_export_load_no_metric_module(tiny_run):
    tmp, corpus, _ = tiny_run
    run = stage_modules("run", "--corpus", str(corpus), "--chains", "all",
                        "--with-formalization", "--out", str(tmp / "t.jsonl"))
    assert "deepa2.chains" in run and not run & METRIC_MODULES
    export = stage_modules("export-training", "--corpus", str(corpus),
                           "--out", str(tmp / "pairs.jsonl"))
    assert "deepa2.chains" in export and not export & METRIC_MODULES


#: The argument and formula parsers; a stage that only copies texts needs none.
PARSER_MODULES = {"deepa2.argdown", "deepa2.formula", "deepa2.formula.syntax"}


def test_run_and_export_load_no_parser(tiny_run):
    tmp, corpus, _ = tiny_run
    run = stage_modules("run", "--corpus", str(corpus), "--chains", "all",
                        "--with-formalization", "--backend", "noisy:0.2",
                        "--out", str(tmp / "t.jsonl"))
    assert "deepa2.records" in run and not run & PARSER_MODULES
    export = stage_modules("export-training", "--corpus", str(corpus),
                           "--out", str(tmp / "pairs.jsonl"))
    assert "deepa2.records" in export and not export & PARSER_MODULES


def test_export_loads_no_backend_metric_or_scheme(tiny_run):
    tmp, corpus, _ = tiny_run
    export = stage_modules("export-training", "--corpus", str(corpus),
                           "--out", str(tmp / "pairs.jsonl"))
    assert "deepa2.chains" in export
    assert not export & {"deepa2.backends", "deepa2.metrics", "deepa2.schemes"}


def test_eval_loads_no_backend(tiny_run):
    tmp, corpus, traces = tiny_run
    loaded = stage_modules("eval", "--traces", str(traces), "--corpus", str(corpus),
                           "--out", str(tmp / "metrics.jsonl"))
    assert "deepa2.metrics" in loaded and "deepa2.backends" not in loaded


def test_eval_of_formalized_traces_loads_no_chain_or_template(tiny_run):
    """Scoring reads each trace's final alone, and every step of a formalized
    analysis matches its scheme on formulas."""
    tmp, corpus, traces = tiny_run
    loaded = stage_modules("eval", "--traces", str(traces), "--corpus", str(corpus),
                           "--out", str(tmp / "metrics.jsonl"))
    assert "deepa2.traces" in loaded
    assert not loaded & {"deepa2.chains", "deepa2.modes", "deepa2.nl_templates"}


def test_text_level_scheme_match_loads_the_template_bank(tiny_run):
    """Without formalizations a step's scheme is matched on its texts: the
    template bank loads then, and the scores are the in-process ones."""
    import json

    from deepa2.cli import main
    from deepa2.evaluation import evaluate_traces
    from deepa2.records import load_corpus
    from deepa2.traces import read_finals

    tmp, corpus, _ = tiny_run
    traces, metrics = tmp / "plain.jsonl", tmp / "plain_metrics.jsonl"
    assert main(["run", "--corpus", str(corpus), "--chains", "1",
                 "--out", str(traces)]) == 0
    loaded = stage_modules("eval", "--traces", str(traces), "--corpus", str(corpus),
                           "--out", str(metrics))
    assert "deepa2.nl_templates" in loaded and "deepa2.chains" not in loaded
    records = {r.meta.record_id: r for r in load_corpus(corpus)}
    rows = evaluate_traces(read_finals(traces), records)
    assert any(row.report.sys_sch for row in rows)
    assert metrics.read_text(encoding="utf-8").splitlines() == [
        json.dumps(row.to_dict(), ensure_ascii=False) for row in rows
    ]


def test_module_entry_exit_codes(tiny_run):
    """``python -m deepa2.cli`` exits with the stage's code."""
    tmp, corpus, traces = tiny_run
    ok = run_python("-m", "deepa2.cli", "eval", "--traces", str(traces),
                    "--corpus", str(corpus), "--out", str(tmp / "entry.jsonl"))
    assert ok.returncode == 0, ok.stderr
    bad = tmp / "bad.jsonl"
    bad.write_text('{"chain_id": true, "record_id": null, "final": {}}\n')
    refused = run_python("-m", "deepa2.cli", "eval", "--traces", str(bad),
                         "--corpus", str(corpus), "--out", str(tmp / "bad_m.jsonl"))
    assert refused.returncode == 4
    assert f"{bad}:1: malformed trace line" in refused.stderr
    assert not (tmp / "bad_m.jsonl").exists()
