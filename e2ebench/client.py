"""A minimal closed-loop HTTP/1.1 keep-alive client.

Each connection runs on its own thread and sends its next request only
after the previous answer is fully read.  Request bytes are built before
the timed window and responses are kept as raw bytes until it ends, so
the load process spends its time in ``send``/``recv`` and little else:
on two vCPUs its CPU competes with the gateway's.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlparse


@dataclass
class Exchange:
    """One request's outcome, stamped on the ``time.monotonic`` clock."""

    rid: str
    sent: float = 0.0
    received: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""
    _parsed: dict | None = None

    def json(self) -> dict:
        if self._parsed is None:
            self._parsed = json.loads(self.body)
        return self._parsed


class Connection:
    """One keep-alive socket to the gateway."""

    def __init__(self, url: str, timeout_s: float = 30.0):
        parsed = urlparse(url)
        self.host = parsed.hostname
        self.sock = socket.create_connection((parsed.hostname, parsed.port),
                                             timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        self.sock.close()

    def request_bytes(self, method: str, path: str, body: bytes = b"",
                      rid: str = "") -> bytes:
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n")
        if rid:
            head += f"X-Request-Id: {rid}\r\n"
        return head.encode() + b"\r\n" + body

    def _read_until(self, marker: bytes) -> bytes:
        while marker not in self._buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("gateway closed the connection")
            self._buffer += chunk
        head, _, self._buffer = self._buffer.partition(marker)
        return head

    def _read_exact(self, count: int) -> bytes:
        while len(self._buffer) < count:
            chunk = self.sock.recv(max(65536, count - len(self._buffer)))
            if not chunk:
                raise ConnectionError("gateway closed the connection")
            self._buffer += chunk
        body, self._buffer = self._buffer[:count], self._buffer[count:]
        return body

    def exchange(self, raw: bytes, rid: str = "") -> Exchange:
        record = Exchange(rid=rid)
        record.sent = time.monotonic()
        self.sock.sendall(raw)
        head = self._read_until(b"\r\n\r\n").decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        record.body = self._read_exact(length)
        record.received = time.monotonic()
        record.status = int(head[0].split()[1])
        return record

    def get_json(self, path: str) -> dict:
        record = self.exchange(self.request_bytes("GET", path))
        if record.status != 200:
            raise RuntimeError(f"GET {path} answered {record.status}")
        return record.json()


def run_closed_loop(url: str, lanes: list[list[tuple[str, bytes]]]
                    ) -> list[list[Exchange]]:
    """Play each lane of ``(rid, body)`` pairs on its own connection.

    Lanes start together and run to their end; a transport error ends
    that lane and is recorded on the request it hit.
    """
    connections = [Connection(url) for _ in lanes]
    prepared = [[(rid, conn.request_bytes("POST", "/rank", body, rid))
                 for rid, body in lane] for conn, lane in zip(connections, lanes)]
    results: list[list[Exchange]] = [[] for _ in lanes]
    start = threading.Barrier(len(lanes))

    def play(index: int) -> None:
        conn, out = connections[index], results[index]
        start.wait()
        for rid, raw in prepared[index]:
            try:
                out.append(conn.exchange(raw, rid))
            except (OSError, ValueError, IndexError) as error:
                out.append(Exchange(rid=rid, error=f"{type(error).__name__}: {error}"))
                return

    threads = [threading.Thread(target=play, args=(index,), name=f"lane-{index}")
               for index in range(len(lanes))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for conn in connections:
        conn.close()
    return results
