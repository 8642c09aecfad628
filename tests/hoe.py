"""Higher-order evidence: features over several chains' reconstructions of
one record, and a small linear classifier fitted on them.

Acceptance criterion 10 (``tests/test_acceptance.py``) is the only user: it
shows that cross-chain agreement plus per-chain metrics predict a record's
label.  No pipeline stage reads these features, so they live beside the
tests, as ``bruteforce.py`` and ``stepwise.py`` do.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import mul, sub, truediv
from typing import Sequence

from deepa2.argdown import final_conclusion_of
from deepa2.chains import ChainResult
from deepa2.dimensions import DimensionId
from deepa2.errors import DeepA2Error
from deepa2.metrics import MetricReport, default_scorer
from deepa2.records import parse_statements

# ---------------------------------------------------------------------------
# Higher-order evidence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HoeFeatures:
    """Cross-chain agreement plus per-chain metric values for one record."""

    record_id: str | None
    chain_ids: tuple[int, ...]
    values: tuple[float, ...]
    label: str | None = None


def _final_conclusion_text(result: ChainResult) -> str:
    text = result.final.get(DimensionId.CONCLUSION)
    if text:
        try:
            items = parse_statements(text)
            if items:
                return items[0].text
        except DeepA2Error:
            return text
    argdown_text = result.final.get(DimensionId.ARGDOWN)
    if argdown_text:
        try:
            from deepa2.argdown import parse_argdown

            return final_conclusion_of(parse_argdown(argdown_text))[1]
        except DeepA2Error:
            pass
    return ""


def extract_hoe_features(
    results: Sequence[tuple[ChainResult, MetricReport]],
    label: str | None = None,
) -> HoeFeatures:
    """Feature vector over >= 2 chains' reconstructions of one record:
    mean pairwise similarity of final conclusions, then the per-chain
    metric block in chain-id order, so ``1 + 6 * len(results)`` values.

    Each chain's block is ``sys_val``, ``basic_flaws_all`` (1 when all four
    basic-flaw bits are set), ``sys_sch`` (0 when undefined), ``exe_meq``,
    ``exe_rss`` and ``exe_jss``."""
    if len(results) < 2:
        raise ValueError("higher-order evidence needs at least two chains")
    record_ids = {r.record_id for r, _ in results}
    if len(record_ids) != 1:
        raise ValueError(f"results span several records: {sorted(record_ids)}")
    ordered = sorted(results, key=lambda pair: pair[0].chain_id)

    conclusions = [_final_conclusion_text(r) for r, _ in ordered]
    pairs = [
        default_scorer(conclusions[i], conclusions[j])
        for i in range(len(conclusions))
        for j in range(i + 1, len(conclusions))
    ]
    agreement = sum(pairs) / len(pairs)

    values = [agreement]
    for _, report in ordered:
        flaws_all = 1.0 if report.basic_flaw_bits == (1, 1, 1, 1) else 0.0
        values.extend(
            [
                float(report.sys_val),
                flaws_all,
                report.sys_sch if report.sys_sch is not None else 0.0,
                float(report.exe_meq),
                report.exe_rss,
                report.exe_jss,
            ]
        )
    return HoeFeatures(
        record_id=next(iter(record_ids)),
        chain_ids=tuple(r.chain_id for r, _ in ordered),
        values=tuple(values),
        label=label,
    )


# ---------------------------------------------------------------------------
# Linear label classifier
# ---------------------------------------------------------------------------


@dataclass
class LinearLabelClassifier:
    classes: tuple[str, ...]
    weights: list[list[float]]  # one row per class: n_features weights, then the bias
    mean: list[float]
    scale: list[float]

    def scores(self, features: HoeFeatures) -> list[float]:
        x = [(v - m) / s for v, m, s in zip(features.values, self.mean, self.scale,
                                            strict=True)]
        x.append(1.0)
        return [sum(map(mul, row, x)) for row in self.weights]


def fit_label_classifier(
    features: Sequence[HoeFeatures],
    seed: int = 0,
    epochs: int = 400,
    learning_rate: float = 0.5,
    l2: float = 1e-4,
) -> LinearLabelClassifier:
    """Multinomial logistic regression by full-batch gradient descent;
    deterministic under the seed."""
    labeled = [f for f in features if f.label is not None]
    classes = tuple(sorted({f.label for f in labeled}))
    if len(classes) < 2:
        raise ValueError("training needs at least two classes")
    counts = {c: sum(1 for f in labeled if f.label == c) for c in classes}
    thin = [c for c, k in counts.items() if k < 3]
    if thin:
        raise ValueError(f"need at least 3 examples per class, too few for {thin}")

    # Standardize each feature column (population standard deviation; a
    # constant column keeps scale 1), then append a bias column of ones.
    n = len(labeled)
    columns = list(zip(*(f.values for f in labeled), strict=True))
    mean = [sum(column) / n for column in columns]
    scale = [
        math.sqrt(sum((v - m) ** 2 for v in column) / n)
        for column, m in zip(columns, mean)
    ]
    scale = [s if s >= 1e-9 else 1.0 for s in scale]
    columns = [[(v - m) / s for v in column] for column, m, s in zip(columns, mean, scale)]
    columns.append([1.0] * n)
    rows = list(zip(*columns))
    onehot = [[1.0 if f.label == c else 0.0 for f in labeled] for c in classes]

    rng = random.Random(seed)
    weights = [[rng.gauss(0, 0.01) for _ in columns] for _ in classes]
    for _ in range(epochs):
        # Per class, a list over examples: logits, then max-shifted softmax
        # probabilities minus the one-hot targets.
        logits = [[sum(map(mul, w, row)) for row in rows] for w in weights]
        tops = list(map(max, *logits))
        exps = [list(map(math.exp, map(sub, z, tops))) for z in logits]
        totals = list(map(sum, zip(*exps)))
        for w, e, y in zip(weights, exps, onehot):
            residual = list(map(sub, map(truediv, e, totals), y))
            grads = [sum(map(mul, residual, column)) / n for column in columns]
            w[:] = [wj - learning_rate * (g + l2 * wj) for wj, g in zip(w, grads)]
    return LinearLabelClassifier(classes, weights, mean, scale)


def apply_label_classifier(
    classifier: LinearLabelClassifier, features: HoeFeatures
) -> str:
    """The argmax class for one feature vector (the first on a tie)."""
    scores = classifier.scores(features)
    return classifier.classes[scores.index(max(scores))]
