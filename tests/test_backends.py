"""Prompt formatting and backend behavior tests (oracle, noisy, HTTP)."""

import threading
import time

import pytest

from deepa2.backends import (
    GenerationRequest,
    HttpBackend,
    NoisyOracleBackend,
    OracleBackend,
    make_backend,
)
from deepa2.dimensions import DimensionId as D
from deepa2.errors import (
    BackendError,
    BackendUnavailableError,
    ConfigError,
    MissingDimensionError,
)
from deepa2.modes import EVAL_ONLY_MODES, TRAINING_MODES, format_prompt, mode
from deepa2.records import record_to_dict, serialize_dimension

from .helpers import dilemma_record
from .stubserver import start_stub_server, stop_stub_server


class TestFormatPrompt:
    def test_source_to_conjectures(self):
        got = format_prompt(
            mode("S", "J"),
            {D.SOURCE: "Socrates is mortal because every human is."},
        )
        assert got == "conjectures: source: Socrates is mortal because every human is."

    def test_formalize_alias_for_premises_to_form(self):
        got = format_prompt(
            mode("P", "F"),
            {D.PREMISES: "Socrates is human | If someone is human, then they are mortal"},
        )
        assert got.startswith("formalize: premises: Socrates is human")

    def test_other_formal_modes_keep_keyword_prefix(self):
        got = format_prompt(mode("C", "O"), {D.CONCLUSION: "Socrates is mortal"})
        assert got.startswith("conclusion_form: conclusion: ")

    def test_empty_field_serialized_as_empty_string(self):
        got = format_prompt(
            mode("RJ", "A"),
            {D.REASONS: "", D.CONJECTURES: "Socrates is mortal"},
        )
        assert got == "argdown: reasons:  conjectures: Socrates is mortal"

    def test_missing_input_names_the_dimension(self):
        with pytest.raises(MissingDimensionError, match="conjectures"):
            format_prompt(mode("RJ", "A"), {D.REASONS: "r"})

    def test_injective_over_distinct_inputs(self):
        seen = {}
        for source in ("text one", "text two", "text  one"):
            for reasons in ("a", "b", ""):
                prompt = format_prompt(
                    mode("SR", "A"), {D.SOURCE: source, D.REASONS: reasons}
                )
                assert prompt not in seen or seen[prompt] == (source, reasons)
                seen[prompt] = (source, reasons)


class TestOracle:
    def test_returns_target_dimension(self):
        record = dilemma_record()
        backend = OracleBackend([record])
        request = GenerationRequest(
            mode("S", "A"), {D.SOURCE: record.source}, record_id=record.meta.record_id
        )
        assert backend.generate(request) == serialize_dimension(record, D.ARGDOWN)

    def test_serializes_each_dimension_once(self, monkeypatch):
        """Both oracles, training export, record_to_dict and metric work dicts
        read each record's stored texts: one rendering per (record,
        dimension) per process, and a pickled record carries its texts."""
        import pickle
        from collections import Counter

        import deepa2.records
        from deepa2.chains import export_training
        from deepa2.metrics import work_dict_of_record

        rendered = Counter()
        render = deepa2.records._render

        def counting(dim, value):
            rendered[dim] += 1
            return render(dim, value)

        monkeypatch.setattr(deepa2.records, "_render", counting)
        records = [dilemma_record("a"), dilemma_record("b")]
        backend = OracleBackend(records)
        noisy = NoisyOracleBackend(records, 0.5, seed=1)
        for record in records:
            for m in TRAINING_MODES + EVAL_ONLY_MODES:
                request = GenerationRequest(
                    m, {d: "x" for d in m.inputs}, record_id=record.meta.record_id
                )
                assert backend.generate(request) == record_to_dict(record)[m.output.keyword]
                noisy.generate(request)
            assert work_dict_of_record(record) == record.texts
        export_training(records, n_per_record=50)
        export_training(records, weights="entailment_bank", n_per_record=50)
        for record in pickle.loads(pickle.dumps(records)):
            record_to_dict(record)
        assert rendered == Counter({dim: len(records) for dim in D})

    def test_unknown_record_id(self):
        backend = OracleBackend([dilemma_record()])
        request = GenerationRequest(mode("S", "A"), {D.SOURCE: "x"}, record_id="nope")
        with pytest.raises(BackendError):
            backend.generate(request)

    def test_missing_record_id(self):
        backend = OracleBackend([dilemma_record()])
        with pytest.raises(BackendError):
            backend.generate(GenerationRequest(mode("S", "A"), {D.SOURCE: "x"}))

    def test_request_inputs_must_cover_mode_inputs(self):
        with pytest.raises(MissingDimensionError):
            GenerationRequest(mode("SR", "A"), {D.SOURCE: "x"})
        with pytest.raises(MissingDimensionError):
            GenerationRequest(mode("S", "A"), {D.SOURCE: "x", D.REASONS: "y"})


class TestNoisyOracle:
    def _request(self, record):
        return GenerationRequest(
            mode("S", "R"), {D.SOURCE: record.source}, record_id=record.meta.record_id
        )

    def test_rate_zero_equals_oracle(self):
        record = dilemma_record()
        noisy = NoisyOracleBackend([record], 0.0, seed=1)
        oracle = OracleBackend([record])
        assert noisy.generate(self._request(record)) == oracle.generate(
            self._request(record)
        )

    def test_rate_one_always_corrupts(self):
        record = dilemma_record()
        oracle = OracleBackend([record])
        for seed in range(10):
            noisy = NoisyOracleBackend([record], 1.0, seed=seed)
            assert noisy.generate(self._request(record)) != oracle.generate(
                self._request(record)
            )

    def test_deterministic_per_seed(self):
        record = dilemma_record()
        a = NoisyOracleBackend([record], 0.7, seed=42)
        b = NoisyOracleBackend([record], 0.7, seed=42)
        c = NoisyOracleBackend([record], 0.7, seed=43)
        outs_a = [a.generate(self._request(record)) for _ in range(5)]
        outs_b = [b.generate(self._request(record)) for _ in range(5)]
        assert outs_a == outs_b
        assert len(set(outs_a)) == 1
        _ = [c.generate(self._request(record)) for _ in range(5)]

    def test_formula_corruption_is_unparseable(self):
        from deepa2.records import parse_dimension
        from deepa2.errors import DimensionParseError

        record = dilemma_record()
        noisy = NoisyOracleBackend([record], 1.0, seed=9)
        request = GenerationRequest(
            mode("P", "F"),
            {D.PREMISES: serialize_dimension(record, D.PREMISES)},
            record_id=record.meta.record_id,
        )
        corrupted = noisy.generate(request)
        with pytest.raises(DimensionParseError):
            parse_dimension(corrupted, D.PREMISES_FORM)


@pytest.fixture()
def stub_server():
    server = start_stub_server()
    yield server
    stop_stub_server(server)


@pytest.fixture()
def stub_backend(stub_server):
    """Builds HTTP backends against the stub and closes them afterwards."""
    made = []

    def make(path="", **kwargs):
        url = f"http://127.0.0.1:{stub_server.server_address[1]}{path}"
        made.append(HttpBackend(url, **kwargs))
        return made[-1]

    yield make
    for backend in made:
        backend.close()


class TestHttpBackend:
    def _request(self):
        return GenerationRequest(
            mode("S", "A"), {D.SOURCE: "some text"}, record_id="r1"
        )

    def test_round_trip_schema(self, stub_server, stub_backend):
        backend = stub_backend(timeout=5)
        output = backend.generate(self._request())
        assert output == 'ECHO {"source": "some text"}'
        path, body = stub_server.state["requests"][0]
        assert path == "/generate"
        assert body == {
            "mode": "argdown",
            "inputs": {"source": "some text"},
            "beam_width": 2,
        }

    def test_retries_then_succeeds(self, stub_server, stub_backend):
        stub_server.state["fail_next"] = 2
        backend = stub_backend(timeout=5, backoff=0.01)
        assert backend.generate(self._request()).startswith("ECHO")
        assert len(stub_server.state["requests"]) == 3

    def test_unavailable_after_retry_budget(self, stub_server, stub_backend):
        stub_server.state["fail_next"] = 3
        backend = stub_backend(timeout=5, backoff=0.01)
        with pytest.raises(BackendUnavailableError):
            backend.generate(self._request())

    def test_in_flight_bound_respected(self, stub_server, stub_backend):
        stub_server.state["latency"] = 0.05
        backend = stub_backend(timeout=5, max_in_flight=2)
        threads = [
            threading.Thread(target=backend.generate, args=(self._request(),))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stub_server.state["max_in_flight"] <= 2

    def test_dead_endpoint(self):
        backend = HttpBackend("http://127.0.0.1:1", timeout=0.2, backoff=0.01)
        with pytest.raises(BackendUnavailableError):
            backend.generate(self._request())

    def test_transport_failures_leave_one_attempt_until_a_success(self, stub_server,
                                                                   stub_backend):
        state = stub_server.state
        backend = stub_backend(timeout=5, backoff=0.01)
        state["drop_next"] = 3
        with pytest.raises(BackendUnavailableError, match="after 3 attempts"):
            backend.generate(self._request())
        assert len(state["requests"]) == 3
        # Every attempt failed in transport: the next request tries once.
        state["drop_next"] = 1
        with pytest.raises(BackendUnavailableError, match="after 1 attempt "):
            backend.generate(self._request())
        assert len(state["requests"]) == 4
        # A success ends the one-attempt mode; the full budget is back.
        assert backend.generate(self._request()).startswith("ECHO")
        assert len(state["requests"]) == 5
        state["drop_next"] = 10
        with pytest.raises(BackendUnavailableError, match="after 3 attempts"):
            backend.generate(self._request())

    def test_http_errors_do_not_trigger_fail_fast(self, stub_server, stub_backend):
        state = stub_server.state
        backend = stub_backend(timeout=5, backoff=0.01)
        state["fail_next"] = 3
        with pytest.raises(BackendUnavailableError, match="after 3 attempts .HTTP 500"):
            backend.generate(self._request())
        state["fail_next"] = 2
        assert backend.generate(self._request()).startswith("ECHO")
        assert len(state["requests"]) == 6

    def test_one_connection_per_thread(self, stub_server, stub_backend):
        backend = stub_backend(timeout=5)
        outputs = []

        def work():
            for _ in range(3):
                outputs.append(backend.generate(self._request()))

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert len(outputs) == 6
        assert stub_server.state["connections"] == 2

    def test_idle_connection_closed_by_server_is_replaced(self, stub_server, stub_backend):
        stub_server.state["close_after_reply"] = True
        backend = stub_backend(timeout=5, backoff=1.0)
        backend.generate(self._request())
        start = time.perf_counter()
        assert backend.generate(self._request()).startswith("ECHO")
        assert time.perf_counter() - start < backend.backoff
        assert stub_server.state["connections"] == 2
        assert len(stub_server.state["requests"]) == 2

    def test_endpoint_path_prefix_kept(self, stub_server, stub_backend):
        backend = stub_backend(timeout=5, path="/v1/")
        backend.generate(self._request())
        assert stub_server.state["requests"][0][0] == "/v1/generate"

    def test_non_json_success_body_is_malformed(self, stub_server, stub_backend):
        stub_server.state["raw_body"] = b"<html>not json</html>"
        backend = stub_backend(timeout=5)
        with pytest.raises(BackendError, match="malformed response"):
            backend.generate(self._request())

    @pytest.mark.parametrize("body", [b'{"output": null}', b'{"output": 5}',
                                      b'{"output": ["a"]}', b'["output"]'],
                             ids=["null", "number", "list", "not-an-object"])
    def test_non_string_output_is_malformed(self, stub_server, stub_backend, body):
        stub_server.state["raw_body"] = body
        backend = stub_backend(timeout=5)
        with pytest.raises(BackendError, match="malformed response"):
            backend.generate(self._request())
        assert len(stub_server.state["requests"]) == 1  # not retried

    def test_endpoint_must_be_an_http_url(self):
        with pytest.raises(ConfigError, match="not an http"):
            HttpBackend("ftp://127.0.0.1:21")


class TestMakeBackend:
    def test_specs(self):
        record = dilemma_record()
        assert isinstance(make_backend("oracle", [record]), OracleBackend)
        noisy = make_backend("noisy:0.25", [record], seed=7)
        assert isinstance(noisy, NoisyOracleBackend)
        assert noisy.corruption_rate == 0.25
        assert isinstance(make_backend("http://x.test"), HttpBackend)

    def test_unknown_spec(self):
        with pytest.raises(ConfigError):
            make_backend("carrier-pigeon")
        with pytest.raises(ConfigError, match="unknown backend spec"):
            make_backend("http:localhost:8000")
