"""Mode registry, chain catalog, execution, pooling, and export tests."""

from collections import Counter
from pathlib import Path

import pytest

from deepa2.backends import OracleBackend
from deepa2.chains import (
    ChainSpec,
    chain_by_id,
    chain_catalog,
    export_training,
    formalization_subchain,
    run_chain,
    run_chains,
    sophistication,
)
from deepa2.dimensions import DimensionId
from deepa2.errors import ChainDefinitionError
from deepa2.evaluation import default_ranking_key, pool_index
from deepa2.metrics import MetricReport
from deepa2.modes import EVAL_ONLY_MODES, TRAINING_MODES, mode, mode_registry
from deepa2.records import serialize_dimension

from .helpers import dilemma_record

FIXTURE = Path(__file__).parent / "data" / "chain_table.txt"


class TestModeRegistry:
    def test_twenty_one_training_modes(self):
        assert len(mode_registry()) == 21

    def test_fourteen_carry_entailment_tree_weights(self):
        assert sum(1 for m in mode_registry() if m.weight_eb is not None) == 14

    def test_reason_conjecture_reconstruction_lookup(self):
        m = mode("RJ", "A")
        assert m.inputs == (DimensionId.REASONS, DimensionId.CONJECTURES)
        assert m.output is DimensionId.ARGDOWN
        assert m.weight_aaac == 1.0

    def test_formalization_mode_weights(self):
        assert mode("P", "F").weight_aaac == 0.7
        assert mode("P", "F").weight_eb is None
        assert mode("A", "P").weight_aaac == 0.2
        assert mode("A", "P").weight_eb == 0.2

    def test_full_catalog_adds_eval_only_reformalization_modes(self):
        assert len(TRAINING_MODES + EVAL_ONLY_MODES) == 23
        assert mode("PCO", "F") in EVAL_ONLY_MODES
        assert mode("CPF", "O") in EVAL_ONLY_MODES

    def test_labels_unique(self):
        labels = [m.label for m in TRAINING_MODES + EVAL_ONLY_MODES]
        assert len(set(labels)) == len(labels)


class TestChainCatalog:
    def test_sixteen_chains(self):
        assert [c.id for c in chain_catalog()] == list(range(1, 17))

    def test_lengths_and_sophistication_match_fixture(self):
        got = "".join(
            f"{c.id} {len(c)} {sophistication(c)}\n" for c in chain_catalog()
        )
        assert got == FIXTURE.read_text()

    def test_named_chains(self):
        named = {c.name: c.id for c in chain_catalog() if c.name}
        assert named == {"straight": 1, "hermeneutic cycle": 9, "logical streamlining": 13}

    def test_sophistication_examples(self):
        assert sophistication(chain_by_id(1)) == 0
        assert sophistication(chain_by_id(9)) == 4
        assert sophistication(chain_by_id(13)) == 11
        assert sophistication(chain_by_id(16)) == 21
        assert sophistication(ChainSpec(1, (mode("S", "A"),))) == 0

    def test_bad_chain_id(self):
        with pytest.raises(ChainDefinitionError):
            chain_by_id(17)

    def test_ill_founded_chain_rejected(self):
        with pytest.raises(ChainDefinitionError):
            ChainSpec(99, (mode("RJ", "A"),))

    def test_formalization_subchain_length(self):
        assert len(formalization_subchain()) == 5


class TestRunChain:
    def test_oracle_reproduces_target_dimensions(self):
        record = dilemma_record()
        backend = OracleBackend([record])
        result = run_chain(
            chain_by_id(1), record.source, backend, record_id=record.meta.record_id
        )
        assert result.error is None
        for dim in (DimensionId.ARGDOWN, DimensionId.REASONS, DimensionId.CONJECTURES):
            assert result.final[dim] == serialize_dimension(record, dim)

    def test_trace_lengths(self):
        record = dilemma_record()
        backend = OracleBackend([record])
        result = run_chain(
            chain_by_id(9), record.source, backend, record_id=record.meta.record_id
        )
        assert len(result.trace) == 4
        result = run_chain(
            chain_by_id(9),
            record.source,
            backend,
            with_formalization=True,
            record_id=record.meta.record_id,
        )
        assert len(result.trace) == 9

    def test_backend_failure_preserves_partial_trace(self):
        record = dilemma_record()

        class FlakyBackend(OracleBackend):
            def __init__(self, records):
                super().__init__(records)
                self.calls = 0

            def generate(self, request):
                self.calls += 1
                if self.calls >= 3:
                    from deepa2.errors import BackendUnavailableError

                    raise BackendUnavailableError("gone")
                return super().generate(request)

        result = run_chain(
            chain_by_id(9),
            record.source,
            OracleBackend([record]),
            record_id=record.meta.record_id,
        )
        assert result.error is None
        flaky = run_chain(
            chain_by_id(9),
            record.source,
            FlakyBackend([record]),
            record_id=record.meta.record_id,
        )
        assert flaky.error is not None
        assert len(flaky.trace) == 2

    def test_failure_is_not_remembered(self):
        record = dilemma_record()
        from deepa2.errors import BackendUnavailableError

        s_a, sa_r, sa_j, srj_a = chain_by_id(10).modes

        class FailOnceBackend(OracleBackend):
            def __init__(self, records):
                super().__init__(records)
                self.modes = []

            def generate(self, request):
                self.modes.append(request.mode)
                if self.modes.count(sa_r) == 1 and request.mode == sa_r:
                    raise BackendUnavailableError("gone")
                return super().generate(request)

        backend = FailOnceBackend([record])
        first, second = run_chains(
            [chain_by_id(9), chain_by_id(10)], record.source, backend,
            record_id=record.meta.record_id,
        )
        assert first.error is not None and len(first.trace) == 1
        assert second == run_chain(
            chain_by_id(10), record.source, OracleBackend([record]),
            record_id=record.meta.record_id,
        )
        # S>A is answered from memory; the failed SA>R is asked again.
        assert backend.modes == [s_a, sa_r, sa_r, sa_j, srj_a]

    def test_deterministic(self):
        record = dilemma_record()
        backend = OracleBackend([record])
        a = run_chain(chain_by_id(13), record.source, backend,
                      with_formalization=True, record_id=record.meta.record_id)
        b = run_chain(chain_by_id(13), record.source, backend,
                      with_formalization=True, record_id=record.meta.record_id)
        assert a == b


class TestPooling:
    def _report(self, **overrides) -> MetricReport:
        base = dict(
            sys_pp=1, sys_rp=1, sys_rc=1, sys_us=1, sys_sch=1.0, sys_val=1,
            exe_meq=1, exe_rss=0.5, exe_jss=0.5, exe_ppr=None, exe_ppj=None,
            exe_te_prediction=True,
        )
        base.update(overrides)
        return MetricReport(**base)

    def test_single_result_is_returned(self):
        assert pool_index([self._report()]) == 0

    def test_validity_dominates(self):
        picked = pool_index([self._report(sys_val=0, exe_rss=1.0), self._report()])
        assert picked == 1

    def test_key_is_injectable(self):
        reports = [self._report(exe_rss=0.9), self._report(exe_rss=0.1)]
        assert pool_index(reports, key=lambda rep: -rep.exe_rss) == 1


class TestExportTraining:
    def test_pair_count(self):
        records = [dilemma_record(f"r{i}") for i in range(25)]
        pairs = export_training(records, weights="aaac", n_per_record=14, seed=3)
        assert len(pairs) == 25 * 14

    def test_zero_per_record_is_empty(self):
        assert export_training([dilemma_record()], n_per_record=0) == []

    def test_entailment_bank_weights_exclude_formalization_modes(self):
        records = [dilemma_record()]
        pairs = export_training(records, weights="entailment_bank", n_per_record=200, seed=5)
        for prompt, _target in pairs:
            prefix = prompt.split(":", 1)[0]
            assert prefix not in ("premises_form", "conclusion_form", "keys", "formalize")

    def test_deterministic_under_seed(self):
        records = [dilemma_record()]
        a = export_training(records, n_per_record=20, seed=11)
        b = export_training(records, n_per_record=20, seed=11)
        assert a == b

    def test_sampling_frequencies_track_weights(self):
        rng_draws = 20000
        records = [dilemma_record()]
        pairs = export_training(records, weights="aaac", n_per_record=rng_draws, seed=2)
        counts = Counter(p.split(":", 1)[0] for p in (pr for pr, _ in pairs))
        # The argdown-producing modes carry 6 of the 17.3 total weight.
        expected = 6.0 / 17.3
        got = counts["argdown"] / rng_draws
        assert abs(got - expected) < 0.01


def test_chain_result_dict_round_trip():
    record = dilemma_record()
    backend = OracleBackend([record])
    result = run_chain(chain_by_id(9), record.source, backend,
                       with_formalization=True, record_id=record.meta.record_id)
    from deepa2.chains import ChainResult

    data = result.to_dict()
    assert ChainResult.from_dict(data) == result
    # Trace files written before steps dropped their inputs still load.
    for step in data["steps"]:
        step["inputs"] = {"source": record.source}
    assert ChainResult.from_dict(data) == result


def test_ranking_key_orders_reports():
    perfect = MetricReport(1, 1, 1, 1, 1.0, 1, 1, 1.0, 1.0, None, None, True)
    flawed = MetricReport(1, 0, 1, 1, 1.0, 1, 1, 1.0, 1.0, None, None, True)
    invalid = MetricReport(1, 1, 1, 1, 1.0, 0, 1, 1.0, 1.0, None, None, True)
    assert default_ranking_key(perfect) > default_ranking_key(flawed)
    assert default_ranking_key(flawed) > default_ranking_key(invalid)
