"""Importing EntailmentBank entailment trees as analysis records.

Multi-hop entailment-tree records become analysis records via a fixed
source template ("{theory} All this entails: {hypothesis}"); reasons and
conjectures are recorded on the fly.  Imported records never carry
formalizations or scheme declarations.
"""

from __future__ import annotations

import json
import re

from deepa2.argdown import ArgdownArgument, InferenceStep, final_conclusion_of
from deepa2.errors import ImportFormatError
from deepa2.frozen import Frozen
from deepa2.records import DeepA2Record, QuotedStatement, RecordMeta

SOURCE_TEMPLATE_GLUE = "All this entails:"


class TreeProofStep(Frozen):
    _fields = ("from_ids", "conclusion_id", "conclusion_text")

    def __init__(self, from_ids: tuple[str, ...], conclusion_id: str, conclusion_text: str):
        self.__dict__.update(
            from_ids=from_ids, conclusion_id=conclusion_id, conclusion_text=conclusion_text
        )


class EntailmentTreeRecord(Frozen):
    _fields = ("record_id", "sentences", "distractor_ids", "hypothesis", "steps")

    def __init__(
        self,
        record_id: str,
        sentences: dict[str, str],  # leaf id -> text, distractors included
        distractor_ids: frozenset[str],
        hypothesis: str,
        steps: tuple[TreeProofStep, ...],
    ):
        texts = [*sentences.values(), hypothesis, *(step.conclusion_text for step in steps)]
        if not all(isinstance(text, str) for text in texts):
            raise ImportFormatError(f"{record_id}: every text must be a string")
        for text in texts:
            # A text becomes one statement, and a statement is one line.
            if not text.strip() or text.splitlines() != [text]:
                raise ImportFormatError(f"{record_id}: text {text!r} is not one line")
        known = set(sentences)
        for step in steps:
            for sid in step.from_ids:
                if sid not in known:
                    raise ImportFormatError(f"{record_id}: step uses unknown sentence {sid!r}")
            known.add(step.conclusion_id)
        if not steps:
            raise ImportFormatError(f"{record_id}: no proof steps")
        if steps[-1].conclusion_text != hypothesis:
            raise ImportFormatError(f"{record_id}: the last step must derive the hypothesis")
        self.__dict__.update(
            record_id=record_id, sentences=sentences, distractor_ids=distractor_ids,
            hypothesis=hypothesis, steps=steps,
        )


def _natural_order(sid: str) -> tuple:
    m = re.match(r"([a-zA-Z]*)(\d+)$", sid)
    if m:
        return (m.group(1), int(m.group(2)))
    return (sid, 0)


def import_entailmentbank(rec: EntailmentTreeRecord) -> DeepA2Record:
    """Translate one entailment tree; schemes and formalizations stay absent."""
    leaf_ids = sorted(rec.sentences, key=_natural_order)
    used_ids = {sid for step in rec.steps for sid in step.from_ids} - {
        step.conclusion_id for step in rec.steps
    }
    used_leaves = [sid for sid in leaf_ids if sid in used_ids]
    if any(sid in rec.distractor_ids for sid in used_leaves):
        raise ImportFormatError(f"{rec.record_id}: proof uses a distractor sentence")

    numbers: dict[str, int] = {}
    statements: list[tuple[int, str]] = []
    for sid in used_leaves:
        numbers[sid] = len(statements) + 1
        statements.append((numbers[sid], rec.sentences[sid]))
    inferences = []
    for step in rec.steps:
        try:
            from_numbers = tuple(numbers[sid] for sid in step.from_ids)
        except KeyError as err:
            raise ImportFormatError(
                f"{rec.record_id}: step premise {err} is not available"
            ) from None
        numbers[step.conclusion_id] = len(statements) + 1
        statements.append((numbers[step.conclusion_id], step.conclusion_text))
        inferences.append(
            InferenceStep(from_numbers, numbers[step.conclusion_id], None, None)
        )
    argdown = ArgdownArgument(tuple(statements), tuple(inferences))

    theory = " ".join(rec.sentences[sid] for sid in leaf_ids)
    source = f"{theory} {SOURCE_TEMPLATE_GLUE} {rec.hypothesis}"
    final_number = final_conclusion_of(argdown)[0]
    reasons = tuple(
        QuotedStatement(rec.sentences[sid], numbers[sid]) for sid in used_leaves
    )
    conjectures = (QuotedStatement(rec.hypothesis, final_number),)
    # Premise and conclusion quotes are derivable from the tree, so they are
    # filled in; formalizations would be fabrications and stay absent.
    premises = tuple(QuotedStatement(text, n) for n, text in statements
                     if n not in argdown.derived_numbers)
    meta = RecordMeta(
        record_id=rec.record_id,
        n_inference_steps=len(inferences),
        n_distractors=len(rec.distractor_ids),
        final_conclusion_explicit=True,
        domain_tag="entailment_bank",
    )
    return DeepA2Record.from_parts(
        source=source,
        reasons=reasons,
        conjectures=conjectures,
        argdown=argdown,
        premises=premises,
        conclusion=(QuotedStatement(rec.hypothesis, final_number),),
        meta=meta,
    )


def load_entailmentbank(path) -> list[DeepA2Record]:
    """Read entailment trees from a JSON-lines file and import each one.

    Expected row shape: ``{"id": ..., "sentences": {"s1": text, ...},
    "distractors": ["s3", ...], "hypothesis": text, "steps": [{"from":
    ["s1", "s2"], "id": "int1", "text": text}, ...]}``; the final step may
    use ``"id": "hypothesis"`` and omit the text.  A row that cannot be
    read, or whose tree cannot be imported, raises with its line number.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                steps = tuple(
                    TreeProofStep(
                        tuple(s["from"]),
                        s.get("id", "hypothesis"),
                        s.get("text", data["hypothesis"]),
                    )
                    for s in data["steps"]
                )
                tree = EntailmentTreeRecord(
                    record_id=str(data.get("id", f"eb-{line_number}")),
                    sentences=dict(data["sentences"]),
                    distractor_ids=frozenset(data.get("distractors", ())),
                    hypothesis=data["hypothesis"],
                    steps=steps,
                )
                records.append(import_entailmentbank(tree))
            except (KeyError, TypeError, ValueError, ImportFormatError) as err:
                raise ImportFormatError(f"{path}:{line_number}: {err}") from err
    return records
