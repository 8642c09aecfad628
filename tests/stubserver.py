"""A tiny inference-service stub used to validate the HTTP backend.

It speaks HTTP/1.1 with keep-alive and counts the connections it accepts.
``state`` switches its behaviour: ``fail_next`` answers the next requests
with HTTP 500, ``drop_next`` closes the connection without an answer (a
transport error at the client), ``close_after_reply`` closes each connection
after its answer without telling the client, and ``raw_body`` replaces the
JSON answer.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubHandler(BaseHTTPRequestHandler):
    server_version = "stub/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; with Nagle's algorithm on,
    # the body of each keep-alive answer would wait for a delayed ACK.
    disable_nagle_algorithm = True
    timeout = 5  # an idle keep-alive connection cannot hold a thread forever

    def setup(self):
        super().setup()
        with self.server.state["lock"]:
            self.server.state["connections"] += 1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        state = self.server.state
        with state["lock"]:
            state["requests"].append((self.path, body))
            state["in_flight"] += 1
            state["max_in_flight"] = max(state["max_in_flight"], state["in_flight"])
        # A request is done once its answer is decided, before a byte of it
        # goes out: the client may send its next request as soon as it has
        # read the answer, and must not find this one still counted.
        try:
            status, payload = self._answer(state, body)
        finally:
            with state["lock"]:
                state["in_flight"] -= 1
        if status is None:
            self.close_connection = True
            return
        self.send_response(status)
        if status == 200:
            self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        if state["close_after_reply"] and status == 200:
            self.close_connection = True

    @staticmethod
    def _answer(state: dict, body: dict) -> tuple[int | None, bytes]:
        """The status and body of the answer (None: drop the connection)."""
        if state["drop_next"] > 0:
            state["drop_next"] -= 1
            return None, b""
        if state["fail_next"] > 0:
            state["fail_next"] -= 1
            return 500, b""
        time.sleep(state["latency"])
        if state["digest"]:
            output = digest_echo(body["mode"], body["inputs"])
        else:
            output = "ECHO " + json.dumps(body["inputs"], sort_keys=True)
        payload = json.dumps({"output": output}).encode()
        if state["raw_body"] is not None:
            payload = state["raw_body"]
        return 200, payload

    def log_message(self, *args):
        pass


def digest_echo(mode_keyword: str, inputs: dict[str, str]) -> str:
    """A short answer that differs for each (mode, inputs) request.  Chained
    plain echoes nest each input inside the next request and grow
    exponentially along a chain."""
    text = json.dumps([mode_keyword, inputs], sort_keys=True)
    return "ECHO " + hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def start_stub_server() -> ThreadingHTTPServer:
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.state = {
        "lock": threading.Lock(),
        "requests": [],
        "fail_next": 0,
        "drop_next": 0,
        "close_after_reply": False,
        "raw_body": None,
        "connections": 0,
        "digest": False,
        "latency": 0.0,
        "in_flight": 0,
        "max_in_flight": 0,
    }
    # A short poll interval lets shutdown() return quickly.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    server.stub_thread = thread
    return server


def stop_stub_server(server: ThreadingHTTPServer) -> None:
    server.shutdown()
    server.server_close()
    server.stub_thread.join(timeout=2)
