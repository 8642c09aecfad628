"""Chain-set execution against an independent step-by-step reference, and
the trace line writer against ``json.dumps``."""

import json
import random

import pytest

from deepa2.backends import NoisyOracleBackend, OracleBackend
from deepa2.chains import (
    ChainResult,
    ChainSpec,
    TraceStep,
    chain_by_id,
    chain_catalog,
    formalized,
    run_chains,
)
from deepa2.dimensions import DimensionId
from deepa2.errors import BackendUnavailableError, ChainDefinitionError
from deepa2.generator import GeneratorConfig, generate_corpus
from deepa2.modes import mode
from deepa2.traces import trace_lines

from .helpers import dilemma_record
from .stepwise import stepwise_run_chains


@pytest.fixture(scope="module")
def records():
    return [dilemma_record(), *generate_corpus(GeneratorConfig(), 3, seed=12)]


class Recording:
    """Records each request as (record, mode, input texts) and raises a
    backend error on the chosen call numbers (0-based)."""

    def __init__(self, backend, fail_at=()):
        self._backend = backend
        self._fail_at = set(fail_at)
        self.requests = []

    def generate(self, request):
        inputs = tuple(request.inputs[d] for d in request.mode.inputs)
        self.requests.append((request.record_id, request.mode.label, inputs))
        if len(self.requests) - 1 in self._fail_at:
            raise BackendUnavailableError(f"call {len(self.requests) - 1} refused")
        return self._backend.generate(request)


def make_backend(kind, records):
    if kind == "noisy:0.2":
        return NoisyOracleBackend(records, 0.2, seed=3)
    return OracleBackend(records)


#: Call numbers refused by the failing backend: early, clustered and late.
FAIL_AT = (1, 4, 5, 9, 17, 18, 19, 30, 44, 70, 71, 100)


def chain_lists():
    catalog = chain_catalog()
    shuffled = list(catalog)
    random.Random(5).shuffle(shuffled)
    duplicated = catalog + [chain_by_id(i) for i in (9, 1, 16, 9, 12)]
    return {"catalog": catalog, "shuffled": shuffled, "duplicated": duplicated}


def as_compared(results):
    """Results with the order of each final's dimensions made visible."""
    return [(result, list(result.final)) for result in results]


@pytest.mark.parametrize("chains", ["catalog", "shuffled", "duplicated"])
@pytest.mark.parametrize("with_formalization", [False, True])
@pytest.mark.parametrize("kind", ["oracle", "noisy:0.2", "failing"])
def test_plan_matches_stepwise_execution(records, chains, with_formalization, kind):
    chain_list = chain_lists()[chains]
    fail_at = FAIL_AT if kind == "failing" else ()
    failures = asked_again = 0
    to_run = [formalized(c) for c in chain_list] if with_formalization else chain_list
    for record in records:
        record_id = record.meta.record_id
        expected_backend = Recording(make_backend(kind, records), fail_at)
        expected = stepwise_run_chains(
            chain_list, record.source, expected_backend, with_formalization, record_id
        )
        backend = Recording(make_backend(kind, records), fail_at)
        results = run_chains(to_run, record.source, backend, record_id)
        assert as_compared(results) == as_compared(expected)
        assert backend.requests == expected_backend.requests
        failures += sum(1 for result in results if result.error)
        requests = backend.requests
        asked_again += sum(
            1 for i in fail_at if i < len(requests) and requests[i] in requests[i + 1:]
        )
    assert (failures > 0) == (kind == "failing")
    # Some refused request is asked again by a later chain.
    assert (asked_again > 0) == (kind == "failing")


def test_chain_without_argdown_cannot_take_the_formalization_suffix():
    """The suffix starts from the argdown dimension, so a chain that never
    produces it is refused as a chain definition."""
    with pytest.raises(ChainDefinitionError, match="chain 99.*argdown"):
        formalized(ChainSpec(99, (mode("S", "R"),)))


def test_catalog_with_formalization_shares_requests(records):
    """Under the oracle a record's 175 steps take 23 backend calls, and a
    repeated request shares the step object of its first answer."""
    chains = [formalized(chain) for chain in chain_catalog()]
    for record in records:
        backend = Recording(OracleBackend(records))
        results = run_chains(chains, record.source, backend, record.meta.record_id)
        assert [result.chain_id for result in results] == list(range(1, 17))
        steps = [step for result in results for step in result.trace]
        assert len(steps) == 175
        assert len(backend.requests) == len(set(backend.requests)) == 23
        assert len({id(step) for step in steps}) == 23


def reference_lines(results):
    return [json.dumps(r.to_dict(), ensure_ascii=False) + "\n" for r in results]


AWKWARD = 'Zoë said "no" \\ then\nleft\u2028\u2029 — ½ \t \x01 end'


@pytest.mark.parametrize(
    "results",
    [
        [
            ChainResult(
                3, "r-ü\"1",
                {DimensionId.SOURCE: AWKWARD, DimensionId.ARGDOWN: AWKWARD + "!"},
                (TraceStep("S => A", AWKWARD + "!"), TraceStep("S => A", AWKWARD + "!")),
            ),
            ChainResult(
                4, "r-ü\"1", {DimensionId.SOURCE: AWKWARD}, (),
                error='http://x/generate unavailable ("HTTP 500")\n',
            ),
        ],
        [ChainResult(1, None, {DimensionId.SOURCE: ""}, ())],
        [ChainResult(2, None, {}, (), error="")],
        [],
    ],
    ids=["awkward-texts-and-failure", "no-record-id", "empty-final", "no-results"],
)
def test_trace_lines_equal_json_dumps(results):
    assert trace_lines(results) == reference_lines(results)


@pytest.mark.parametrize("kind", ["oracle", "noisy:0.2", "failing"])
def test_trace_lines_of_executed_chains(records, kind):
    fail_at = FAIL_AT if kind == "failing" else ()
    chains = [formalized(chain) for chain in chain_catalog()]
    for record in records:
        backend = Recording(make_backend(kind, records), fail_at)
        results = run_chains(chains, record.source, backend, record.meta.record_id)
        assert trace_lines(results) == reference_lines(results)
