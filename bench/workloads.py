"""Workload definitions and the benchmark-side inputs they need.

Every workload runs the four CLI stages in order (generate, run, eval,
export-training), each in a fresh process.  The workloads differ in which
stage and which module carry the weight; README.md says why each exists.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

#: Dimension letters as used in mode labels, mapped to their keywords.
KEYWORDS = {
    "S": "source",
    "R": "reasons",
    "J": "conjectures",
    "A": "argdown",
    "P": "premises",
    "C": "conclusion",
    "F": "premises_form",
    "O": "conclusion_form",
    "K": "keys",
}

#: The sixteen catalogued chains, written out here so the checker does not
#: take the mode sequence from the program under test.
CHAINS = {
    1: "S>A S>R S>J",
    2: "S>J S>R SJ>A",
    3: "S>J S>R SR>A",
    4: "S>J S>R RJ>A",
    5: "S>J SJ>R RJ>A",
    6: "S>J SJ>R SRJ>A",
    7: "S>R SR>J RJ>A",
    8: "S>R SR>J SRJ>A",
    9: "S>A SA>R SA>J RJ>A",
    10: "S>A SA>R SA>J SRJ>A",
    11: "S>A SA>R SA>J SRJ>A SA>R SA>J SRJ>A",
    12: "S>A A>P A>C P>F PF>K FK>P PC>A SA>R SA>J",
    13: "S>A A>P A>C C>O CO>K OK>C PC>A SA>R SA>J",
    14: "S>A A>P A>C C>O CO>K OK>C PC>A A>P A>C P>F PF>K FK>P PC>A SA>R SA>J",
    15: "S>A A>P A>C P>F CPF>O PFCO>K FK>P OK>C PC>A SA>R SA>J",
    16: "S>A A>P A>C P>F CPF>O PCO>F PFCO>K FK>P OK>C PC>A SA>R SA>J",
}
FORMALIZATION = "A>P A>C P>F CPF>O PFCO>K"

#: Recorded input seeds: the benchmark's --seed n selects input seed n % INPUT_SEEDS,
#: so every run's outputs can be checked against recorded digests.
INPUT_SEEDS = 10

#: Service delay of the HTTP stub, in seconds.  Long enough that the time of
#: `run` follows the number of requests more than the client's CPU time,
#: which the machine's load makes noisy.
STUB_DELAY_S = 0.020

#: Records in the nested-eval corpus, one per predicate count 3..7.
NESTED_COUNTS = (3, 4, 5, 6, 7)


@dataclass(frozen=True)
class Mode:
    inputs: tuple[str, ...]  # keywords
    output: str  # keyword
    label: str  # as the program writes it in traces, e.g. "S A => R"


def chain_modes(chain_id: int) -> list[Mode]:
    """The chain's modes followed by the formalization sub-chain."""
    modes = []
    for part in f"{CHAINS[chain_id]} {FORMALIZATION}".split():
        left, right = part.split(">")
        label = " ".join(left) + " => " + right
        modes.append(Mode(tuple(KEYWORDS[c] for c in left), KEYWORDS[right], label))
    return modes


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why it exists."""

    name: str
    preset: str
    n: int
    chains: tuple[int, ...]
    backend: str  # "oracle", "noisy:<rate>" or "stub"
    jobs: int = 1
    nested: bool = False

    @property
    def chain_arg(self) -> str:
        return ",".join(str(c) for c in self.chains)


ALL_CHAINS = tuple(range(1, 17))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-all-100", "aaac01", 100, ALL_CHAINS, "oracle"),
        Workload("noisy-straight-400", "aaac02", 400, (1,), "noisy:0.2"),
        Workload("http-all-2", "aaac01", 2, ALL_CHAINS, "stub", jobs=2),
        Workload("nested-eval", "aaac01", len(NESTED_COUNTS), (1,), "oracle", nested=True),
    )
}


# ---------------------------------------------------------------------------
# Nested-quantifier corpus
# ---------------------------------------------------------------------------

_REF_RE = re.compile(r"\(ref: \((\d+)\)\)\s*$")
#: Predicate letters for the nested families ("E" is avoided because "(Ex)"
#: reads as a quantifier prefix).
_LETTERS = "FGHIJKLMNPQRSTUVW"


def nested_family(letters: str, constant: str, valid: bool) -> tuple[list[str], str]:
    """Premises and conclusion over len(letters) predicates whose entailment
    verdict is known by construction.

    Premises: ``(x): (Ey): P1 x -> P2 y & ... & Pk y`` and ``P1 c``.  They
    entail ``(Ex): P2 x & ... & Pk x``: the witness for c has P2..Pk.  They do
    not entail the same conclusion with ``& P1 x`` added: take c with P1 only
    and one more element with P2..Pk only.
    """
    first, rest = letters[0], letters[1:]
    premises = [
        f"(x): (Ey): {first} x -> " + " & ".join(f"{p} y" for p in rest),
        f"{first} {constant}",
    ]
    conclusion = "(Ex): " + " & ".join(f"{p} x" for p in rest)
    if not valid:
        conclusion += f" & {first} x"
    return premises, conclusion


def _refs(text: str) -> list[int | None]:
    refs = []
    for item in text.split(" | "):
        m = _REF_RE.search(item)
        refs.append(int(m.group(1)) if m else None)
    return refs


def _with_ref(text: str, ref: int | None) -> str:
    return text if ref is None else f"{text} (ref: ({ref}))"


def write_nested_corpus(generated: Path, out: Path, input_seed: int) -> dict[str, int]:
    """Rewrite a generated corpus so each record's formalization is a nested
    family; returns the known sys_val verdict per record id."""
    rng = random.Random(f"nested:{input_seed}")
    verdicts = {}
    lines = []
    records = [json.loads(line) for line in generated.read_text("utf-8").splitlines() if line]
    if len(records) != len(NESTED_COUNTS):
        raise ValueError(f"expected {len(NESTED_COUNTS)} records, got {len(records)}")
    for record, count in zip(records, NESTED_COUNTS):
        # Sorted letters keep the decider's variable order, and so its work,
        # the same for every seed.
        letters = "".join(sorted(rng.sample(_LETTERS, count)))
        valid = (count + input_seed) % 2 == 0
        premises, conclusion = nested_family(letters, rng.choice("abcd"), valid)
        premise_refs = _refs(record["premises_form"])
        premise_refs += [None] * (len(premises) - len(premise_refs))
        (conclusion_ref,) = _refs(record["conclusion_form"])
        record["premises_form"] = " | ".join(
            _with_ref(text, ref) for text, ref in zip(premises, premise_refs)
        )
        record["conclusion_form"] = _with_ref(conclusion, conclusion_ref)
        record["keys"] = " | ".join(f"{p}: property {i + 1}" for i, p in enumerate(letters))
        verdicts[record["meta"]["record_id"]] = int(valid)
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    out.write_text("".join(lines), encoding="utf-8")
    return verdicts
