"""An inference-service stub that answers as the oracle would.

The request body carries no record id, so the stub picks the record from the
intersection of its inputs: the records whose dimension texts equal every
input.  A few requests match several records (identical reconstructions in
different records); the stub then answers from the smallest record id, which
can differ from the oracle's choice.  The checker therefore replays
``Answerer.answer`` rather than comparing with an oracle run.

Each response goes out in one write on a socket with Nagle's algorithm off:
a handler that writes headers and body separately on a keep-alive connection
stalls on the client's delayed ACK, and the benchmark would then measure TCP
timers instead of the program.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class Answerer:
    """Deterministic answer function over a corpus given as JSON objects."""

    def __init__(self, records: list[dict]):
        self._records = {r["meta"]["record_id"]: r for r in records}
        self._index: dict[tuple[str, str], set[str]] = {}
        for record_id, record in self._records.items():
            for keyword, text in record.items():
                if keyword != "meta":
                    self._index.setdefault((keyword, text), set()).add(record_id)

    def answer(self, output: str, inputs: dict[str, str]) -> str:
        matches = [self._index.get(item, set()) for item in inputs.items()]
        candidates = set.intersection(*matches) if matches else set()
        if not candidates:
            candidates = next((m for m in matches if m), set())
        if not candidates:
            return ""
        return self._records[min(candidates)].get(output, "")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 10  # an idle keep-alive connection cannot hold up shutdown forever

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        start = time.perf_counter()
        time.sleep(self.server.delay)
        output = self.server.answerer.answer(body["mode"], body["inputs"])
        payload = json.dumps({"output": output}, ensure_ascii=False).encode("utf-8")
        head = (
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + payload)
        self.server.record(time.perf_counter() - start)

    def log_message(self, *args):
        pass


class StubServer(ThreadingHTTPServer):
    """Serves on 127.0.0.1 from a background thread; counts POSTs and their
    service times until ``take`` is called."""

    daemon_threads = False  # server_close joins the connection threads

    def __init__(self, answerer: Answerer, delay: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.answerer = answerer
        self.delay = delay
        self._lock = threading.Lock()
        self._service_s: list[float] = []
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def record(self, seconds: float) -> None:
        with self._lock:
            self._service_s.append(seconds)

    def take(self) -> list[float]:
        """Service times of the POSTs since the last call."""
        with self._lock:
            taken, self._service_s = self._service_s, []
        return taken

    def start(self) -> "StubServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join()
