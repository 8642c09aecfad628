"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one pass line per criterion.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
summary lines while running).
"""

import dataclasses
import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from deepa2.backends import (
    GenerationRequest,
    HttpBackend,
    NoisyOracleBackend,
    OracleBackend,
)
from deepa2.chains import (
    chain_by_id,
    chain_catalog,
    export_training,
    run_chain,
    sample_training_modes,
    sophistication,
    training_mode_pool,
)
from deepa2.dimensions import DimensionId
from deepa2.errors import BackendUnavailableError
from deepa2.evaluation import aggregate_table, evaluate_traces, oracle_reports
from deepa2.formula import check_entailment, parse_formula, render_formula
from deepa2.frozen import replace
from deepa2.generator import GeneratorConfig, generate_corpus
from deepa2.metrics import default_scorer, eval_exe_rss, eval_exe_jss
from deepa2.modes import mode, mode_registry
from deepa2.records import DeepA2Record, parse_dimension, serialize_dimension
from deepa2.textnorm import normalize_ws

from .bruteforce import brute_force_entails
from .helpers import random_closed_formula, random_formula_set
from .hoe import apply_label_classifier, extract_hoe_features, fit_label_classifier
from .stubserver import start_stub_server, stop_stub_server

CHAIN_FIXTURE = Path(__file__).parent / "data" / "chain_table.txt"


@pytest.fixture(scope="module")
def corpus1000():
    return generate_corpus(GeneratorConfig(), 1000, seed=20240)


def _announce(number: int, message: str) -> None:
    print(f"\n[acceptance] criterion {number:02d} PASS: {message}")


def test_criterion_01_prover_oracle_equivalence():
    rng = random.Random(90125)
    start = time.monotonic()
    disagreements = 0
    for _ in range(1000):
        premises, conclusion = random_formula_set(
            rng, max_premises=3, predicates=("F", "G", "H"), constants=("a", "b"),
            max_depth=4,
        )
        if check_entailment(premises, conclusion) != brute_force_entails(
            premises, conclusion
        ):
            disagreements += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 60.0
    _announce(1, f"1000 formula sets, 0 disagreements, {elapsed:.1f}s")


def test_criterion_02_oracle_row_reproduction(corpus1000):
    reports = oracle_reports(corpus1000)
    te_items = []
    for record, report in reports:
        assert report.sys_pp == report.sys_rp == report.sys_rc == report.sys_us == 1
        assert report.sys_val == 1
        assert report.sys_sch == 1.0
        assert report.exe_meq == 1
        assert report.exe_ppr == 1.0 and report.exe_ppj == 1.0
        te_items.append(
            (report.exe_te_prediction, record.meta.final_conclusion_explicit)
        )

        # Substitute property for the similarity-dependent metrics: every
        # resolvable counterpart scores >= 0.8 and every implicit statement
        # contributes exactly -1.
        statements = dict(record.argdown.statements)
        premise_numbers = {q.ref for q in record.premises}
        derived_numbers = record.argdown.derived_numbers
        scores = []
        for quote in record.reasons:
            assert quote.ref in premise_numbers
            score = default_scorer(
                normalize_ws(quote.text), normalize_ws(statements[quote.ref])
            )
            assert score >= 0.8
            scores.append(score)
        quoted = {q.ref for q in record.reasons}
        contributions = scores + [-1.0] * len(premise_numbers - quoted)
        expected_rss = sum(contributions) / len(contributions)
        assert math.isclose(
            eval_exe_rss(record.reasons, record.argdown), expected_rss
        )
        jss_scores = []
        for quote in record.conjectures:
            assert quote.ref in derived_numbers
            score = default_scorer(
                normalize_ws(quote.text), normalize_ws(statements[quote.ref])
            )
            assert score >= 0.8
            jss_scores.append(score)
        quoted_j = {q.ref for q in record.conjectures}
        j_contributions = jss_scores + [-1.0] * len(derived_numbers - quoted_j)
        if record.conjectures:
            expected_jss = sum(j_contributions) / len(j_contributions)
            assert math.isclose(
                eval_exe_jss(record.conjectures, record.argdown), expected_jss
            )
    from deepa2.metrics import eval_exe_te

    assert eval_exe_te(te_items) == 1.0
    _announce(2, "oracle row 1.0 entries reproduced on 1000 records; "
                 "counterpart scores >= 0.8, implicit statements at -1")


def test_criterion_03_sophistication_exactness():
    named = {1: 0, 9: 4, 13: 11}
    for chain_id, expected in named.items():
        assert sophistication(chain_by_id(chain_id)) == expected
    rendered = "".join(
        f"{c.id} {len(c)} {sophistication(c)}\n" for c in chain_catalog()
    )
    assert rendered.encode() == CHAIN_FIXTURE.read_bytes()
    _announce(3, "sophistication 0/4/11 for chains 1/9/13; full table "
                 "byte-equal to the checked-in fixture")


EXPECTED_WEIGHTS = {
    "S => A": (1.0, 1.0),
    "S R => A": (1.0, 1.0),
    "S J => A": (1.0, 1.0),
    "S R J => A": (1.0, 1.0),
    "R J => A": (1.0, 1.0),
    "P C => A": (1.0, 1.0),
    "A => P": (0.2, 0.2),
    "F K => P": (0.7, None),
    "S => R": (1.0, 1.0),
    "S J => R": (1.0, 1.0),
    "S A => R": (1.0, 1.0),
    "S => J": (1.0, 1.0),
    "S R => J": (1.0, 1.0),
    "S A => J": (1.0, 1.0),
    "A => C": (0.2, 0.2),
    "O K => C": (0.7, None),
    "P => F": (0.7, None),
    "C => O": (0.7, None),
    "P F => K": (0.7, None),
    "C O => K": (0.7, None),
    "P F C O => K": (0.7, None),
}


def test_criterion_04_registry_exactness(corpus1000):
    registry = mode_registry()
    assert len(registry) == 21
    assert sum(1 for m in registry if m.weight_eb is not None) == 14
    got = {m.label: (m.weight_aaac, m.weight_eb) for m in registry}
    assert got == EXPECTED_WEIGHTS

    base = corpus1000[:50]
    tiled = []
    for i in range(16000):
        source = base[i % len(base)]
        tiled.append(
            DeepA2Record(
                source.texts,
                replace(source.meta, record_id=f"tile-{i:05d}"),
            )
        )
    pairs = export_training(tiled, weights="aaac", n_per_record=14, seed=99)
    assert len(pairs) == 224_000

    draws = 100_000
    rng = random.Random(4242)
    sampled = sample_training_modes(base[0], "aaac", draws, rng)
    counts = Counter(m.label for m in sampled)
    _modes, weights = training_mode_pool("aaac")
    total = sum(weights)
    for m, weight in zip(*training_mode_pool("aaac")):
        p = weight / total
        expected = draws * p
        sigma = math.sqrt(draws * p * (1 - p))
        assert abs(counts[m.label] - expected) <= 3 * sigma, (
            m.label, counts[m.label], expected, sigma,
        )
    _announce(4, "21 modes (14 with entailment-tree weights), weights exact; "
                 "16000x14 export = 224000 pairs; 100k draws within 3 sigma")


def test_criterion_05_round_trip(corpus1000):
    for record in corpus1000:
        for dim in record.present_dimensions():
            text = serialize_dimension(record, dim)
            assert parse_dimension(text, dim) == record.get(dim), dim

    rng = random.Random(555)
    for _ in range(10_000):
        formula = random_closed_formula(rng, max_depth=6)
        assert parse_formula(render_formula(formula)) == formula
    _announce(5, "serialize/parse identity for all dimensions over 1000 "
                 "records and 10000 fuzzed formulas")


def test_criterion_06_chain_executability(corpus1000):
    subset = corpus1000[:500]
    backend = OracleBackend(subset)
    runs = 0
    for record in subset:
        for chain in chain_catalog():
            result = run_chain(
                chain,
                record.source,
                backend,
                with_formalization=True,
                record_id=record.meta.record_id,
            )
            assert result.error is None
            assert len(result.trace) == len(chain) + 5
            runs += 1
    assert runs == 500 * 16
    _announce(6, "all 16 chains plus formalization completed on 500 records "
                 "with every mode input present")


def test_criterion_07_degradation_monotonicity(corpus1000):
    subset = corpus1000[:150]
    corpus = {r.meta.record_id: r for r in subset}
    rates = (0.0, 0.25, 0.5)
    for seed in (1, 2, 3):
        means = {}
        for rate in rates:
            backend = NoisyOracleBackend(subset, rate, seed)
            rows = evaluate_traces(
                [
                    run_chain(chain_by_id(1), r.source, backend,
                              with_formalization=True, record_id=r.meta.record_id)
                    for r in subset
                ],
                corpus,
            )
            table = aggregate_table(rows, corpus)
            row = table["rows"][0]
            means[rate] = (row["sys_val"], row["exe_ppr"], row["exe_meq"])
        for metric_index in range(3):
            series = [means[rate][metric_index] for rate in rates]
            assert series[0] > series[1] > series[2], (seed, metric_index, series)
    _announce(7, "SYS-VAL, EXE-PPR, EXE-MEQ strictly decreasing over "
                 "corruption rates 0/0.25/0.5 for 3 seeds")


def test_criterion_08_pooling_dominance(corpus1000):
    subset = corpus1000[:80]
    corpus = {r.meta.record_id: r for r in subset}
    backend = NoisyOracleBackend(subset, 0.35, seed=8)
    rows = []
    for record in subset:
        for chain in chain_catalog():
            result = run_chain(chain, record.source, backend,
                               with_formalization=True,
                               record_id=record.meta.record_id)
            rows.append(evaluate_traces([result], {record.meta.record_id: record})[0])

    by_record: dict[str, list] = {}
    for row in rows:
        by_record.setdefault(row.record_id, []).append(row)
    table = aggregate_table(rows, corpus)
    by_chain = {r["chain"]: r for r in table["rows"]}
    pooled_row = by_chain["pooling"]

    # Item-wise: the pooled pick always matches the best chain's validity.
    from deepa2.evaluation import default_ranking_key, pool_index

    for record_id, group in by_record.items():
        best = pool_index([row.report for row in group], key=default_ranking_key)
        assert group[best].report.sys_val == max(r.report.sys_val for r in group)

    # Corpus-wise: pooled mean dominates every chain's mean.
    for chain in chain_catalog():
        assert pooled_row["sys_val"] >= by_chain[str(chain.id)]["sys_val"]
    spread = pooled_row["sys_val"] - max(
        by_chain[str(c.id)]["sys_val"] for c in chain_catalog()
    )
    _announce(8, f"pooled SYS-VAL dominates all 16 chains item-wise and "
                 f"corpus-wise (margin over best chain {spread:+.2f})")


def test_criterion_09_http_backend_against_echo_stub():
    server = start_stub_server()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        backend = HttpBackend(url, timeout=5, max_in_flight=3, backoff=0.01)
        request = GenerationRequest(
            mode("SR", "J"),
            {DimensionId.SOURCE: "text here", DimensionId.REASONS: "a quote (ref: (1))"},
            record_id="r1",
        )
        output = backend.generate(request)
        assert output.startswith("ECHO ")
        path, body = server.state["requests"][-1]
        assert path == "/generate"
        assert body == {
            "mode": "conjectures",
            "inputs": {"source": "text here", "reasons": "a quote (ref: (1))"},
            "beam_width": 2,
        }

        server.state["latency"] = 0.03
        import threading

        threads = [
            threading.Thread(target=backend.generate, args=(request,))
            for _ in range(9)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert server.state["max_in_flight"] <= 3

        server.state["latency"] = 0.0
        server.state["fail_next"] = 2
        before = len(server.state["requests"])
        assert backend.generate(request).startswith("ECHO ")
        assert len(server.state["requests"]) - before == 3

        server.state["fail_next"] = 3
        with pytest.raises(BackendUnavailableError):
            backend.generate(request)
    finally:
        stop_stub_server(server)
    _announce(9, "echo-stub round trip: request/response schema, in-flight "
                 "bound, and retry budget all conform")


LABEL_RATES = {"valid": 0.05, "contradiction": 0.45, "neutral": 0.85}


def _hoe_features(records, seed):
    rng = random.Random(seed)
    labels = {r.meta.record_id: rng.choice(sorted(LABEL_RATES)) for r in records}
    backends = {
        label: NoisyOracleBackend(records, rate, seed=seed + 17)
        for label, rate in LABEL_RATES.items()
    }
    features = []
    for record in records:
        label = labels[record.meta.record_id]
        backend = backends[label]
        results = []
        for chain_id in (1, 9):
            result = run_chain(chain_by_id(chain_id), record.source, backend,
                               with_formalization=True,
                               record_id=record.meta.record_id)
            [row] = evaluate_traces([result], {record.meta.record_id: record})
            results.append((result, row.report))
        features.append(extract_hoe_features(results, label=label))
    return features


def test_criterion_10_higher_order_evidence(corpus1000):
    records = corpus1000[:300]
    features = _hoe_features(records, seed=23)
    baseline = 1.0 / 3.0

    real_accs, shuffled_accs = [], []
    for seed in range(5):
        rng = random.Random(seed)
        shuffled = features[:]
        rng.shuffle(shuffled)
        half = len(shuffled) // 2
        train, test = shuffled[:half], shuffled[half:]

        classifier = fit_label_classifier(train, seed=seed)
        hits = sum(
            1 for f in test if apply_label_classifier(classifier, f) == f.label
        )
        real_accs.append(hits / len(test))

        # Control: permute labels over the whole dataset, then split; any
        # feature-label dependence is gone on both sides of the split.
        permuted = [f.label for f in shuffled]
        rng.shuffle(permuted)
        control_set = [
            dataclasses.replace(f, label=label)
            for f, label in zip(shuffled, permuted)
        ]
        control_train, control_test = control_set[:half], control_set[half:]
        control = fit_label_classifier(control_train, seed=seed)
        hits = sum(
            1
            for f in control_test
            if apply_label_classifier(control, f) == f.label
        )
        shuffled_accs.append(hits / len(control_test))

    mean_real = sum(real_accs) / len(real_accs)
    mean_shuffled = sum(shuffled_accs) / len(shuffled_accs)
    assert mean_real >= baseline + 0.10, real_accs
    assert abs(mean_shuffled - baseline) <= 0.05, shuffled_accs
    _announce(10, f"held-out accuracy {mean_real:.2f} beats the 1/3 baseline "
                  f"by {mean_real - baseline:+.2f}; label-shuffled control at "
                  f"{mean_shuffled:.2f}")
