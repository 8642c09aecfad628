"""Text-to-text model backends.

A backend turns a generation request (mode plus serialized input
dimensions) into raw output text.  The oracle backend answers from the
target records' stored wire texts (``DeepA2Record.texts``), the noisy
oracle corrupts a seeded fraction of its answers, and the HTTP backend
talks to an external inference service over a small JSON protocol.
"""

from __future__ import annotations

import json
import random
import re
import threading
import time
from functools import partial
from typing import Iterable, Mapping, Protocol
from urllib.parse import urlsplit

from deepa2.dimensions import DimensionId, FORMULA_DIMENSIONS, LIST_DIMENSIONS
from deepa2.errors import (
    BackendError,
    BackendUnavailableError,
    ConfigError,
    MissingDimensionError,
)
from deepa2.frozen import Frozen
from deepa2.modes import ModeSpec
from deepa2.records import DeepA2Record, serialize_dimension

#: The beam width every HTTP request asks for.
_BEAM_WIDTH = 2

_JSON_HEADERS = {"Content-Type": "application/json"}

#: The attempts one HTTP request makes before it fails.
MAX_ATTEMPTS = 3


class GenerationRequest(Frozen):
    """One mode's inputs for one record; ``record_id`` names the target
    record for the oracle backends."""

    _fields = ("mode", "inputs", "record_id")

    def __init__(
        self,
        mode: ModeSpec,
        inputs: Mapping[DimensionId, str],
        record_id: str | None = None,
    ):
        if set(inputs) != set(mode.inputs):
            raise MissingDimensionError(
                f"request inputs {sorted(d.keyword for d in inputs)} do not "
                f"cover exactly the {mode.label} inputs"
            )
        fields = self.__dict__
        fields["mode"] = mode
        fields["inputs"] = inputs
        fields["record_id"] = record_id


class ModelBackend(Protocol):
    def generate(self, request: GenerationRequest) -> str:  # pragma: no cover
        ...


# ---------------------------------------------------------------------------
# Oracle backends
# ---------------------------------------------------------------------------


class OracleBackend:
    """Answers every request with the target record's output dimension, read
    from the record's ``texts``, so it parses and renders nothing; a record
    without that dimension is a backend failure of the request."""

    def __init__(self, records: Iterable[DeepA2Record]):
        self._records: dict[str, DeepA2Record] = {}
        for record in records:
            record_id = record.meta.record_id
            if record_id is None:
                raise BackendError("oracle backend needs records with ids")
            self._records[record_id] = record

    def target(self, record_id: str) -> DeepA2Record:
        try:
            return self._records[record_id]
        except KeyError:
            raise BackendError(f"unknown record id {record_id!r}") from None

    def generate(self, request: GenerationRequest) -> str:
        if request.record_id is None:
            raise BackendError("oracle backend needs a record id on each request")
        try:
            return serialize_dimension(self.target(request.record_id), request.mode.output)
        except MissingDimensionError as err:
            raise BackendError(f"record {request.record_id!r}: {err}") from None


_JUNK_WORDS = ("quasar", "marzipan", "flotsam", "kumquat", "zephyr", "borogove")


class NoisyOracleBackend:
    """Oracle that corrupts each answer independently with a fixed
    probability; deterministic given the seed."""

    def __init__(self, records: Iterable[DeepA2Record], corruption_rate: float, seed: int):
        # Imported here, so that a run against the plain oracle loads no hashlib.
        from hashlib import sha256

        if not 0 <= corruption_rate <= 1:
            raise ValueError("corruption_rate must lie in [0, 1]")
        self._sha256 = sha256
        self._oracle = OracleBackend(records)
        self.corruption_rate = corruption_rate
        self.seed = seed

    def generate(self, request: GenerationRequest) -> str:
        text = self._oracle.generate(request)
        rng = self._request_rng(request, text)
        if rng.random() >= self.corruption_rate:
            return text
        return _corrupt(text, request.mode.output, rng)

    def _request_rng(self, request: GenerationRequest, text: str) -> random.Random:
        # Keyed on the inputs as well, so the same mode reached through
        # different chains draws independently; still fully deterministic.
        inputs = "\x1f".join(
            f"{d.keyword}={request.inputs[d]}" for d in request.mode.inputs
        )
        key = f"{self.seed}:{request.record_id}:{request.mode.label}:{inputs}:{text}"
        digest = self._sha256(key.encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))


def _corrupt(text: str, dim: DimensionId, rng: random.Random) -> str:
    if dim in FORMULA_DIMENSIONS:
        # An unparseable formalization is the canonical failure.
        return (text + " @@").strip()
    if dim in LIST_DIMENSIONS:
        items = text.split(" | ") if text else []
        if len(items) >= 2 and rng.random() < 0.5:
            items.pop(rng.randrange(len(items)))
            return " | ".join(items)
        if items:
            k = rng.randrange(len(items))
            items[k] = _mangle_statement(items[k], rng)
            return " | ".join(items)
        return rng.choice(_JUNK_WORDS)
    if dim is DimensionId.ARGDOWN:
        lines = text.splitlines()
        statement_lines = [i for i, ln in enumerate(lines) if re.match(r"^\(\d+\)", ln)]
        if len(statement_lines) > 1:
            del lines[rng.choice(statement_lines)]
            return "\n".join(lines)
        return text + "\n!!"
    # Keys and anything else: swap words for junk.
    return _mangle_statement(text, rng)


def _mangle_statement(item: str, rng: random.Random) -> str:
    ref_match = re.search(r"\s*\(ref: \(\d+\)\)\s*$", item)
    body = item[: ref_match.start()] if ref_match else item
    suffix = item[ref_match.start():] if ref_match else ""
    if rng.random() < 0.5 and ref_match:
        # Dangle the reference instead of touching the text.
        number = int(re.search(r"\((\d+)\)\)", suffix).group(1))
        return body + f" (ref: ({number + 7}))"
    words = body.split()
    if not words:
        return rng.choice(_JUNK_WORDS) + suffix
    n_swaps = max(1, len(words) // 2)
    for _ in range(n_swaps):
        words[rng.randrange(len(words))] = rng.choice(_JUNK_WORDS)
    return " ".join(words) + suffix


# ---------------------------------------------------------------------------
# HTTP backend
# ---------------------------------------------------------------------------


class HttpBackend:
    """Client for an external inference service.

    POSTs ``{endpoint}/generate`` with ``{"mode": keyword, "inputs":
    {keyword: text}, "beam_width": 2}`` and expects ``{"output": text}``; a
    2xx answer of any other shape is a malformed response (BackendError).
    Transient failures are retried with exponential backoff; at most
    ``max_in_flight`` requests run concurrently, each thread on its own
    keep-alive connection.  Once a request has spent all ``MAX_ATTEMPTS`` on
    transport errors, the endpoint is taken for dead: later requests make
    one attempt each, without backoff, until one succeeds.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        max_in_flight: int = 4,
        backoff: float = 0.25,
    ):
        # http.client loads ssl and email with it, so it is imported only
        # when an HTTP backend is built.
        import http.client

        try:
            parts = urlsplit(endpoint)
            port = parts.port
        except ValueError as err:
            raise ConfigError(f"endpoint {endpoint!r}: {err}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigError(f"endpoint {endpoint!r} is not an http(s) URL")
        self.endpoint = endpoint
        self.timeout = timeout
        self.max_in_flight = max_in_flight
        self.backoff = backoff
        if parts.scheme == "https":
            self._connect = partial(http.client.HTTPSConnection, parts.hostname, port)
        else:
            self._connect = partial(http.client.HTTPConnection, parts.hostname, port)
        self._transport_errors = (OSError, http.client.HTTPException)
        self._path = parts.path.rstrip("/") + "/generate"
        self._url = f"{parts.scheme}://{parts.netloc}{self._path}"
        self._semaphore = threading.Semaphore(self.max_in_flight)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections = []  # every thread's, for close()
        self._endpoint_dead = False

    def close(self) -> None:
        """Close the connection of every thread; a later request reopens."""
        with self._lock:
            for connection in self._connections:
                connection.close()

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One POST on this thread's connection, read to the end.  A reused
        connection that fails (the server may have closed it while idle) is
        closed, and the request resent once on a fresh one."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connect(timeout=self.timeout)
            with self._lock:
                self._connections.append(connection)
        while True:
            reused = connection.sock is not None
            try:
                connection.request("POST", self._path, body=body, headers=_JSON_HEADERS)
                response = connection.getresponse()
                return response.status, response.read()
            except self._transport_errors as err:
                connection.close()
                if not reused or isinstance(err, TimeoutError):
                    raise

    def generate(self, request: GenerationRequest) -> str:
        body = json.dumps({
            "mode": request.mode.output.keyword,
            "inputs": {d.keyword: text for d, text in request.inputs.items()},
            "beam_width": _BEAM_WIDTH,
        }).encode()
        with self._lock:
            attempts = 1 if self._endpoint_dead else MAX_ATTEMPTS
        last_error: str = "no attempt made"
        transport_errors = 0
        with self._semaphore:
            for attempt in range(attempts):
                if attempt:
                    time.sleep(self.backoff * (2 ** (attempt - 1)))
                try:
                    status, raw = self._post(body)
                except self._transport_errors as err:
                    last_error = f"transport error: {err}"
                    transport_errors += 1
                    continue
                if status // 100 == 2:
                    try:
                        output = json.loads(raw)["output"]
                    except (ValueError, KeyError, TypeError) as err:
                        raise BackendError(
                            f"malformed response from {self._url}: {err}"
                        ) from err
                    if type(output) is not str:
                        raise BackendError(
                            f"malformed response from {self._url}: output is "
                            f"{type(output).__name__}, not a string"
                        )
                    with self._lock:
                        self._endpoint_dead = False
                    return output
                last_error = f"HTTP {status}"
        if transport_errors == MAX_ATTEMPTS:
            with self._lock:
                self._endpoint_dead = True
        raise BackendUnavailableError(
            f"{self._url} unavailable after {attempts} attempt{'s' if attempts > 1 else ''} "
            f"({last_error})"
        )


def make_backend(spec: str, records: Iterable[DeepA2Record] | None = None,
                 seed: int = 0, timeout: float = 30.0,
                 max_in_flight: int = 4) -> ModelBackend:
    """Build a backend from a CLI-style spec: ``oracle``, ``noisy:<rate>``
    or an ``http://`` / ``https://`` URL."""
    if spec == "oracle":
        if records is None:
            raise BackendError("oracle backend needs a target corpus")
        return OracleBackend(records)
    if spec.startswith("noisy:"):
        if records is None:
            raise BackendError("noisy oracle backend needs a target corpus")
        try:
            rate = float(spec.split(":", 1)[1])
        except ValueError:
            rate = None
        if rate is None or not 0 <= rate <= 1:
            raise ConfigError(
                f"bad backend spec {spec!r}: the corruption rate must be a number in [0, 1]"
            )
        return NoisyOracleBackend(records, rate, seed)
    if spec.startswith(("http://", "https://")):
        return HttpBackend(spec, timeout=timeout, max_in_flight=max_in_flight)
    raise ConfigError(f"unknown backend spec {spec!r}")
