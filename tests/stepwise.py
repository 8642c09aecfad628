"""Step-by-step chain execution used as an independent reference in tests.

Runs each chain's modes one at a time over its own dictionary of dimensions,
with one (mode, input texts) -> output memo per source text, and appends the
formalization sub-chain itself instead of taking ``formalized`` chains.
Shares no execution code with ``deepa2.chains.run_chains``.
"""

from __future__ import annotations

from deepa2.backends import GenerationRequest
from deepa2.chains import ChainResult, ChainSpec, TraceStep, formalization_subchain
from deepa2.dimensions import DimensionId
from deepa2.errors import BackendError


def stepwise_run_chains(
    chains: list[ChainSpec],
    source: str,
    backend,
    with_formalization: bool = False,
    record_id: str | None = None,
) -> list[ChainResult]:
    """What ``run_chains`` must return for the chains (each ``formalized``
    when ``with_formalization``), and the requests it must send."""
    memo: dict[tuple[str, tuple[str, ...]], str] = {}
    suffix = formalization_subchain() if with_formalization else ()
    results = []
    for chain in chains:
        work = {DimensionId.SOURCE: source}
        trace = []
        error = None
        for m in chain.modes + suffix:
            key = (m.label, tuple(work[d] for d in m.inputs))
            output = memo.get(key)
            if output is None:
                request = GenerationRequest(
                    mode=m, inputs={d: work[d] for d in m.inputs}, record_id=record_id
                )
                try:
                    output = backend.generate(request)
                except BackendError as err:
                    error = str(err)
                    break
                memo[key] = output
            work[m.output] = output
            trace.append(TraceStep(m.label, output))
        results.append(ChainResult(chain.id, record_id, work, tuple(trace), error=error))
    return results
