"""EntailmentBank import tests, and tests of the higher-order-evidence
features and classifier that acceptance criterion 10 uses."""

import json
import math
import random

import pytest

from deepa2.chains import ChainResult
from deepa2.dimensions import DimensionId
from deepa2.errors import ImportFormatError
from deepa2.frozen import replace
from deepa2.importers import (
    EntailmentTreeRecord,
    TreeProofStep,
    import_entailmentbank,
    load_entailmentbank,
)
from deepa2.metrics import MetricReport
from deepa2.records import record_from_dict, record_to_dict

from .hoe import (
    HoeFeatures,
    apply_label_classifier,
    extract_hoe_features,
    fit_label_classifier,
)


def simple_tree(**overrides) -> EntailmentTreeRecord:
    base = dict(
        record_id="eb-1",
        sentences={
            "s1": "metals conduct electricity",
            "s2": "copper is a metal",
            "s3": "the moon orbits the earth",
        },
        distractor_ids=frozenset({"s3"}),
        hypothesis="copper conducts electricity",
        steps=(
            TreeProofStep(("s1", "s2"), "hypothesis", "copper conducts electricity"),
        ),
    )
    base.update(overrides)
    return EntailmentTreeRecord(**base)


#: A well-formed EntailmentBank row, as ``load_entailmentbank`` reads it.
EB_ROW = {
    "id": "x1",
    "sentences": {"s1": "p", "s2": "q"},
    "hypothesis": "h",
    "steps": [{"from": ["s1", "s2"], "id": "hypothesis"}],
}


class TestEntailmentBankImport:
    def test_one_step_tree_maps_to_three_statements(self):
        record = import_entailmentbank(simple_tree())
        assert [n for n, _ in record.argdown.statements] == [1, 2, 3]
        assert len(record.reasons) == 2
        assert len(record.conjectures) == 1
        assert record.argdown.inferences[0].scheme_name is None

    def test_template_glue_present(self):
        record = import_entailmentbank(simple_tree())
        assert "All this entails:" in record.source
        assert record.source.endswith("copper conducts electricity")

    def test_distractors_in_source_but_not_reasons(self):
        record = import_entailmentbank(simple_tree())
        assert "the moon orbits the earth" in record.source
        assert all("moon" not in q.text for q in record.reasons)
        assert record.meta.n_distractors == 1

    def test_no_formalizations_fabricated(self):
        record = import_entailmentbank(simple_tree())
        assert record.premises_form is None
        assert record.conclusion_form is None
        assert record.keys is None

    def test_multi_step_tree(self):
        tree = simple_tree(
            sentences={
                "s1": "a", "s2": "b", "s3": "c",
            },
            distractor_ids=frozenset(),
            steps=(
                TreeProofStep(("s1", "s2"), "int1", "a and b"),
                TreeProofStep(("int1", "s3"), "hypothesis", "copper conducts electricity"),
            ),
        )
        record = import_entailmentbank(tree)
        assert record.meta.n_inference_steps == 2
        assert record.argdown.inferences[1].from_numbers == (4, 3)

    def test_round_trip_through_serialization(self):
        record = import_entailmentbank(simple_tree())
        loaded = record_from_dict(record_to_dict(record))
        assert loaded == record
        assert [loaded.get(dim) for dim in DimensionId] == [
            record.get(dim) for dim in DimensionId
        ]

    def test_dangling_reference_rejected(self):
        with pytest.raises(ImportFormatError, match="unknown sentence"):
            simple_tree(steps=(TreeProofStep(("s1", "s9"), "hypothesis",
                                             "copper conducts electricity"),))

    def test_loader(self, tmp_path):
        row = {
            "id": "x1",
            "sentences": {"s1": "p", "s2": "q"},
            "distractors": [],
            "hypothesis": "h",
            "steps": [{"from": ["s1", "s2"], "id": "hypothesis"}],
        }
        path = tmp_path / "eb.jsonl"
        path.write_text(json.dumps(row) + "\n")
        records = load_entailmentbank(path)
        assert len(records) == 1
        assert records[0].meta.record_id == "x1"

    @pytest.mark.parametrize("line, message", [
        ("{not json", "Expecting property name"),
        (json.dumps({k: v for k, v in EB_ROW.items() if k != "steps"}), "'steps'"),
        (json.dumps({**EB_ROW, "steps": [{"from": ["s1", "s9"], "id": "hypothesis"}]}),
         "step uses unknown sentence 's9'"),
        (json.dumps({**EB_ROW, "steps": [{"from": ["s1", "s2"], "id": "int1", "text": "i"}]}),
         "the last step must derive the hypothesis"),
        (json.dumps({**EB_ROW, "distractors": ["s2"]}),
         "x1: proof uses a distractor sentence"),
        (json.dumps({**EB_ROW, "sentences": ["abc"]}), "dictionary update sequence"),
        (json.dumps({**EB_ROW, "hypothesis": 5}), "x1: every text must be a string"),
        # A text becomes one statement of the argdown and the lists, so one
        # that is blank or spans lines would not read back.
        (json.dumps({**EB_ROW, "sentences": {"s1": "", "s2": "q"}}),
         "x1: text '' is not one line"),
        (json.dumps({**EB_ROW, "sentences": {"s1": "p", "s2": "   "}}),
         "x1: text '   ' is not one line"),
        (json.dumps({**EB_ROW, "sentences": {"s1": "p\nq", "s2": "q"}}),
         "x1: text 'p\\nq' is not one line"),
        (json.dumps({**EB_ROW, "hypothesis": "h\r"}), "x1: text 'h\\r' is not one line"),
        (json.dumps({**EB_ROW, "steps": [
            {"from": ["s1", "s2"], "id": "int1", "text": "i\u2028j"},
            {"from": ["int1"], "id": "hypothesis"}]}),
         "x1: text 'i\\u2028j' is not one line"),
    ], ids=["not-json", "missing-steps", "unknown-sentence", "hypothesis-not-derived",
            "proof-uses-distractor", "sentences-not-a-mapping", "text-not-a-string",
            "empty-text", "blank-text", "text-with-newline", "text-with-carriage-return",
            "step-text-with-line-separator"])
    def test_loader_names_the_line_of_a_malformed_row(self, tmp_path, line, message):
        path = tmp_path / "eb.jsonl"
        path.write_text(f"{json.dumps(EB_ROW)}\n\n{line}\n")
        with pytest.raises(ImportFormatError) as raised:
            load_entailmentbank(path)
        assert str(raised.value).startswith(f"{path}:3: ")
        assert message in str(raised.value)


def report(**overrides) -> MetricReport:
    base = dict(
        sys_pp=1, sys_rp=1, sys_rc=1, sys_us=1, sys_sch=1.0, sys_val=1,
        exe_meq=1, exe_rss=0.5, exe_jss=0.5, exe_ppr=None, exe_ppj=None,
        exe_te_prediction=True,
    )
    base.update(overrides)
    return MetricReport(**base)


def chain_result(chain_id: int, conclusion_text: str) -> ChainResult:
    return ChainResult(
        chain_id=chain_id,
        record_id="r0",
        final={DimensionId.CONCLUSION: f"{conclusion_text} (ref: (3))"},
        trace=(),
    )


class TestHoeFeatures:
    def test_identical_conclusions_agree_fully(self):
        results = [
            (chain_result(1, "the same claim"), report()),
            (chain_result(9, "the same claim"), report()),
        ]
        features = extract_hoe_features(results)
        assert features.values[0] == 1.0

    def test_disjoint_conclusions_floor_agreement(self):
        results = [
            (chain_result(1, "alpha beta"), report()),
            (chain_result(9, "gamma delta"), report()),
        ]
        assert extract_hoe_features(results).values[0] == -1.0

    def test_dimensionality_for_thirteen_chains(self):
        results = [
            (chain_result(cid, f"claim {cid}"), report()) for cid in range(1, 14)
        ]
        features = extract_hoe_features(results)
        assert len(features.values) == 13 * 6 + 1 == 79

    def test_fewer_than_two_chains_rejected(self):
        with pytest.raises(ValueError):
            extract_hoe_features([(chain_result(1, "x"), report())])

    def test_mixed_records_rejected(self):
        other = replace(chain_result(2, "x"), record_id="r1")
        with pytest.raises(ValueError, match="several records"):
            extract_hoe_features([(chain_result(1, "x"), report()), (other, report())])


def toy_features(n_per_class=12, seed=0):
    rng = random.Random(seed)
    out = []
    for label, center in (("valid", 0.9), ("contradiction", 0.0), ("neutral", -0.9)):
        for i in range(n_per_class):
            values = tuple(center + rng.gauss(0, 0.05) for _ in range(5))
            out.append(HoeFeatures(f"r{label}{i}", (1, 9), values, label=label))
    return out


def _reference_weights(features, seed, epochs, learning_rate=0.5, l2=1e-4):
    """Full-batch gradient descent on the softmax loss, one scalar at a time."""
    classes = sorted({f.label for f in features})
    n, d = len(features), len(features[0].values)
    mean = [sum(f.values[j] for f in features) / n for j in range(d)]
    scale = []
    for j in range(d):
        std = math.sqrt(sum((f.values[j] - mean[j]) ** 2 for f in features) / n)
        scale.append(std if std >= 1e-9 else 1.0)
    xs = [[(f.values[j] - mean[j]) / scale[j] for j in range(d)] + [1.0] for f in features]
    rng = random.Random(seed)
    weights = [[rng.gauss(0, 0.01) for _ in range(d + 1)] for _ in classes]
    for _ in range(epochs):
        grad = [[0.0] * (d + 1) for _ in classes]
        for x, f in zip(xs, features):
            logits = [sum(w[j] * x[j] for j in range(d + 1)) for w in weights]
            exps = [math.exp(z - max(logits)) for z in logits]
            for k, c in enumerate(classes):
                residual = exps[k] / sum(exps) - (1.0 if f.label == c else 0.0)
                for j in range(d + 1):
                    grad[k][j] += residual * x[j] / n
        for k in range(len(classes)):
            for j in range(d + 1):
                weights[k][j] -= learning_rate * (grad[k][j] + l2 * weights[k][j])
    return weights


class TestClassifier:
    def test_separable_features_fit_perfectly(self):
        features = toy_features()
        clf = fit_label_classifier(features, seed=1)
        hits = sum(1 for f in features if apply_label_classifier(clf, f) == f.label)
        assert hits == len(features)

    def test_deterministic_under_seed(self):
        features = toy_features()
        a = fit_label_classifier(features, seed=3)
        b = fit_label_classifier(features, seed=3)
        assert a.weights == b.weights

    def test_matches_a_plain_loop_reference(self):
        features = toy_features(n_per_class=4, seed=2)
        clf = fit_label_classifier(features, seed=5, epochs=7)
        reference = _reference_weights(features, 5, 7)
        for row, expected in zip(clf.weights, reference, strict=True):
            assert row == pytest.approx(expected, abs=1e-12)

    def test_single_class_rejected(self):
        features = [f for f in toy_features() if f.label == "valid"]
        with pytest.raises(ValueError):
            fit_label_classifier(features)

    def test_thin_class_rejected(self):
        features = toy_features(n_per_class=12)
        thin = [f for f in features if f.label != "neutral"]
        thin += [f for f in features if f.label == "neutral"][:2]
        with pytest.raises(ValueError, match="at least 3"):
            fit_label_classifier(thin)
