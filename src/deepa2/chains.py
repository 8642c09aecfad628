"""Generative chains: catalogued mode sequences, execution, export.

A chain executes its modes in order over a dynamic dictionary keyed by the
nine dimensions.  The dictionary starts with the source text; each mode
reads its input dimensions and overwrites its output dimension, so later
modes can revise earlier results.  For evaluation a fixed formalization
sub-chain can be appended to derive the formal dimensions.

``run_chains`` runs a chain set over one record step by step.  A memo
over (mode, input texts), local to the record, sends each distinct
request to the backend once, so chains that share a prefix of steps
(``S>A SA>R SA>J`` in chains 9-11) share its requests and its step
objects; under the catalogue with ``formalized`` chains a record's 175
steps take 23 backend calls.  ``deepa2.traces`` writes the results as JSON
lines and reads them back for ``eval``.

``export_training`` samples training modes per record and reads prompts
and targets from each record's stored ``texts`` (see ``deepa2.records``),
so it parses none of them;
it formats prompts with ``deepa2.modes.format_prompt``, so export loads no
backend.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from deepa2.dimensions import DimensionId
from deepa2.errors import BackendError, ChainDefinitionError, GenerationError
from deepa2.frozen import Frozen
from deepa2.modes import ModeSpec, TRAINING_MODES, format_prompt, mode
from deepa2.records import DeepA2Record

# For type checking only, so that ``eval`` and ``export-training`` load no
# backend; ``run_chains`` imports what it calls from the backends when called.
if TYPE_CHECKING:
    from deepa2.backends import ModelBackend


class ChainSpec(Frozen):
    """An ordered mode sequence; every input dimension must be the source
    or produced by an earlier mode."""

    _fields = ("id", "modes", "name")

    def __init__(self, id: int, modes: tuple[ModeSpec, ...], name: str | None = None):
        available = {DimensionId.SOURCE}
        for m in modes:
            for d in m.inputs:
                if d not in available:
                    raise ChainDefinitionError(
                        f"chain {id}: mode {m.label} needs {d.keyword} "
                        "before any mode produces it"
                    )
            available.add(m.output)
        self.__dict__.update(id=id, modes=modes, name=name)

    def __len__(self) -> int:
        return len(self.modes)


def sophistication(chain: ChainSpec) -> int:
    """Sum of non-source input dimensions over the chain's modes."""
    return sum(
        sum(1 for d in m.inputs if d is not DimensionId.SOURCE) for m in chain.modes
    )


def formalization_subchain() -> tuple[ModeSpec, ...]:
    """The five modes appended to a chain to formalize its reconstruction."""
    return (
        mode("A", "P"),
        mode("A", "C"),
        mode("P", "F"),
        mode("CPF", "O"),
        mode("PFCO", "K"),
    )


def _chain(chain_id: int, specs: str, name: str | None = None) -> ChainSpec:
    modes = tuple(mode(*part.split(">")) for part in specs.split())
    return ChainSpec(chain_id, modes, name)


_CHAIN_CATALOG: tuple[ChainSpec, ...] = (
    _chain(1, "S>A S>R S>J", "straight"),
    _chain(2, "S>J S>R SJ>A"),
    _chain(3, "S>J S>R SR>A"),
    _chain(4, "S>J S>R RJ>A"),
    _chain(5, "S>J SJ>R RJ>A"),
    _chain(6, "S>J SJ>R SRJ>A"),
    _chain(7, "S>R SR>J RJ>A"),
    _chain(8, "S>R SR>J SRJ>A"),
    _chain(9, "S>A SA>R SA>J RJ>A", "hermeneutic cycle"),
    _chain(10, "S>A SA>R SA>J SRJ>A"),
    _chain(11, "S>A SA>R SA>J SRJ>A SA>R SA>J SRJ>A"),
    _chain(12, "S>A A>P A>C P>F PF>K FK>P PC>A SA>R SA>J"),
    _chain(13, "S>A A>P A>C C>O CO>K OK>C PC>A SA>R SA>J", "logical streamlining"),
    _chain(
        14,
        "S>A A>P A>C C>O CO>K OK>C PC>A A>P A>C P>F PF>K FK>P PC>A SA>R SA>J",
    ),
    _chain(15, "S>A A>P A>C P>F CPF>O PFCO>K FK>P OK>C PC>A SA>R SA>J"),
    _chain(16, "S>A A>P A>C P>F CPF>O PCO>F PFCO>K FK>P OK>C PC>A SA>R SA>J"),
)


def chain_catalog() -> list[ChainSpec]:
    """All sixteen catalogued chains, ordered by id."""
    return list(_CHAIN_CATALOG)


def chain_by_id(chain_id: int) -> ChainSpec:
    if not 1 <= chain_id <= len(_CHAIN_CATALOG):
        raise ChainDefinitionError(
            f"chain id must lie in 1..{len(_CHAIN_CATALOG)}, got {chain_id}"
        )
    return _CHAIN_CATALOG[chain_id - 1]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class TraceStep(Frozen):
    """One executed mode.  Its inputs are not stored: they are the source
    and the outputs of earlier steps, so a replay of the trace recovers
    them."""

    _fields = ("mode_label", "output")

    def __init__(self, mode_label: str, output: str):
        fields = self.__dict__
        fields["mode_label"] = mode_label
        fields["output"] = output


class ChainResult(Frozen):
    """One chain run over one record.  ``to_dict`` is the trace line that
    ``deepa2.traces.trace_lines`` writes; ``eval`` reads such lines through
    ``deepa2.traces.read_finals``, not through ``from_dict``."""

    _fields = ("chain_id", "record_id", "final", "trace", "error")

    def __init__(
        self,
        chain_id: int,
        record_id: str | None,
        final: dict[DimensionId, str],
        trace: tuple[TraceStep, ...],
        error: str | None = None,
    ):
        self.__dict__.update(
            chain_id=chain_id, record_id=record_id, final=final, trace=trace, error=error
        )

    def to_dict(self) -> dict:
        return {
            "chain_id": self.chain_id,
            "record_id": self.record_id,
            "final": {d.keyword: text for d, text in self.final.items()},
            "steps": [{"mode": s.mode_label, "output": s.output} for s in self.trace],
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChainResult":
        """Inverse of ``to_dict``; the ``inputs`` of steps in older trace
        files are ignored."""
        return cls(
            chain_id=data["chain_id"],
            record_id=data.get("record_id"),
            final={
                DimensionId.from_keyword(k): v for k, v in data.get("final", {}).items()
            },
            trace=tuple(
                TraceStep(s["mode"], s["output"]) for s in data.get("steps", [])
            ),
            error=data.get("error"),
        )


def formalized(chain: ChainSpec) -> ChainSpec:
    """The chain with the formalization sub-chain appended.  A chain that
    never produces the argdown dimension raises ``ChainDefinitionError``,
    as any chain whose mode needs a dimension no earlier mode produces."""
    return ChainSpec(chain.id, chain.modes + formalization_subchain(), chain.name)


def run_chains(
    chains: Sequence[ChainSpec],
    source: str,
    backend: ModelBackend,
    record_id: str | None = None,
) -> list[ChainResult]:
    """Execute the chains over one source text, in order, one step at a time.

    A request asked before for this source (same mode, same input texts),
    by an earlier step of any of the chains, is answered with the step it
    made instead of reaching the backend again; this is exact as long as
    the backend is a function of the request.  A backend failure ends only
    the chain that hit it, with its partial trace preserved and the error
    recorded; failures are not remembered, so a later chain asks again."""
    from deepa2.backends import GenerationRequest

    memo: dict[tuple[str, tuple[str, ...]], TraceStep] = {}
    results = []
    for chain in chains:
        work = {DimensionId.SOURCE: source}
        trace = []
        error = None
        for m in chain.modes:
            texts = tuple([work[d] for d in m.inputs])
            key = (m.label, texts)
            step = memo.get(key)
            if step is None:
                request = GenerationRequest(
                    mode=m, inputs=dict(zip(m.inputs, texts)), record_id=record_id
                )
                try:
                    step = TraceStep(m.label, backend.generate(request))
                except BackendError as err:
                    error = str(err)
                    break
                memo[key] = step
            work[m.output] = step.output
            trace.append(step)
        results.append(ChainResult(chain.id, record_id, work, tuple(trace), error))
    return results


def run_chain(
    chain: ChainSpec,
    source: str,
    backend: ModelBackend,
    with_formalization: bool = False,
    record_id: str | None = None,
) -> ChainResult:
    """Execute one chain over the source text (see ``run_chains``)."""
    chain = formalized(chain) if with_formalization else chain
    return run_chains([chain], source, backend, record_id)[0]


# ---------------------------------------------------------------------------
# Training export
# ---------------------------------------------------------------------------

WEIGHT_COLUMNS = ("aaac", "entailment_bank")


def training_mode_pool(weights: str) -> tuple[list[ModeSpec], list[float]]:
    """Registry modes carrying the chosen weight column, with their weights."""
    if weights not in WEIGHT_COLUMNS:
        raise ValueError(f"weights must be one of {WEIGHT_COLUMNS}, got {weights!r}")
    pool_modes = [
        m
        for m in TRAINING_MODES
        if (m.weight_aaac if weights == "aaac" else m.weight_eb) is not None
    ]
    mode_weights = [
        m.weight_aaac if weights == "aaac" else m.weight_eb for m in pool_modes
    ]
    return pool_modes, mode_weights


def _usable_modes(pool_modes: Sequence[ModeSpec], record: DeepA2Record) -> set[int]:
    """Indices of the pool modes whose every dimension the record holds;
    raises GenerationError when there is none."""
    texts = record.texts
    usable = {
        i
        for i, m in enumerate(pool_modes)
        if m.output in texts and all(d in texts for d in m.inputs)
    }
    if not usable:
        raise GenerationError(
            f"record {record.meta.record_id!r} supports no training mode"
        )
    return usable


def _draw_modes(
    rng: random.Random, cum_weights: list[float], usable: set[int], n: int
) -> Iterator[int]:
    """n pool indices drawn by cumulative weight; an index outside ``usable``
    is drawn again."""
    indices = range(len(cum_weights))
    for _ in range(n):
        for _attempt in range(1000):
            (idx,) = rng.choices(indices, cum_weights=cum_weights)
            if idx in usable:
                break
        else:
            raise GenerationError("mode resampling did not terminate")
        yield idx


def sample_training_modes(
    record: DeepA2Record,
    weights: str,
    n: int,
    rng: random.Random,
) -> list[ModeSpec]:
    """Draw n modes with probability proportional to the weight column;
    modes needing a dimension the record lacks are resampled."""
    pool_modes, mode_weights = training_mode_pool(weights)
    usable = _usable_modes(pool_modes, record)
    draws = _draw_modes(rng, list(accumulate(mode_weights)), usable, n)
    return [pool_modes[idx] for idx in draws]


def export_training(
    records: Iterable[DeepA2Record],
    weights: str = "aaac",
    n_per_record: int = 14,
    seed: int = 0,
) -> list[tuple[str, str]]:
    """Sequence-to-sequence pairs: per record, sample modes with probability
    proportional to the chosen weight column and emit (prompt, target
    dimension text).

    The draws are those of ``sample_training_modes`` with one generator
    over all records.  The mode pool and its cumulative weights are built
    once per call, and each record's usable modes once per record; prompts
    and targets come from the record's ``texts``."""
    pool_modes, mode_weights = training_mode_pool(weights)
    cum_weights = list(accumulate(mode_weights))
    rng = random.Random(seed)
    pairs: list[tuple[str, str]] = []
    for record in records:
        usable = _usable_modes(pool_modes, record)
        texts = record.texts
        for idx in _draw_modes(rng, cum_weights, usable, n_per_record):
            m = pool_modes[idx]
            pairs.append((format_prompt(m, texts), texts[m.output]))
    return pairs
