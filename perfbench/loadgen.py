"""The load generator: keep-alive HTTP clients, open and closed loop.

A minimal HTTP/1.1 client over a raw socket (requests are pre-rendered
bytes; every response carries ``Content-Length``), so the generator
spends as little of the host's two cores as it can.  At most two
threads and two connections.

* :func:`open_loop` offers requests on a fixed schedule and times each
  one from when it was *due*, so a stall is charged to every request
  it delays; it also records how late each request was sent.
* :func:`closed_loop` keeps each connection busy: a connection sends
  its next request only when its reply has arrived.
"""

from __future__ import annotations

import json
import socket
import threading
import time

#: Percentiles a tail may be reported at, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported percentile.
BEYOND = 10
TIMEOUT_S = 10.0


def tail_percentile(samples: int) -> float | None:
    """The highest percentile of :data:`LADDER` with at least
    :data:`BEYOND` samples beyond it, or None for too few samples."""
    for level in LADDER:
        # In tenths of a percent, so 99.9 is exact.
        if samples * round((100.0 - level) * 10) >= BEYOND * 1000:
            return level
    return None


def percentile(values, level: float) -> float:
    """Nearest-rank percentile of ``values`` (any order)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * level // 100))
    return ordered[int(rank) - 1]


def render(payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (b"POST /query HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)


def render_get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode()


class Connection:
    """One keep-alive connection; :meth:`send` returns (status, body)."""

    def __init__(self, port: int):
        self.port = port
        self.sock: socket.socket | None = None
        self.buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port),
                                        timeout=TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock, self.buffer = sock, b""
        return sock

    def send(self, raw: bytes) -> tuple[int, bytes]:
        """Status 0 stands for a transport failure or timeout."""
        try:
            sock = self.sock or self._connect()
            sock.sendall(raw)
            buffer = self.buffer
            while (end := buffer.find(b"\r\n\r\n")) < 0:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("closed by server")
                buffer += chunk
            head = buffer[:end]
            status = int(head[9:12])
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            body_end = end + 4 + length
            while len(buffer) < body_end:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("closed by server")
                buffer += chunk
            self.buffer = buffer[body_end:]
            return status, buffer[end + 4:body_end]
        except (OSError, ValueError):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


class Outcome:
    """What one phase saw, aligned with the requests it sent."""

    def __init__(self):
        self.index: list[int] = []
        self.status: list[int] = []
        self.body: list[bytes] = []
        self.latency: list[float] = []
        self.late: list[float] = []
        self.elapsed = 0.0

    def record(self, index, status, body, latency, late=0.0) -> None:
        self.index.append(index)
        self.status.append(status)
        self.body.append(body)
        self.latency.append(latency)
        self.late.append(late)

    def extend(self, other: "Outcome") -> None:
        for key in ("index", "status", "body", "latency", "late"):
            getattr(self, key).extend(getattr(other, key))


def _run_threads(connections, target) -> None:
    threads = [threading.Thread(target=target, args=(conn,))
               for conn in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(connections, raws: list[bytes], rate: float,
              clock=time.perf_counter, sleep=time.sleep) -> Outcome:
    """Offer ``raws[i]`` at ``start + i / rate``; whichever connection
    is free takes the next due request.  Latency runs from the due time
    to the reply, lateness from the due time to the send."""
    lock = threading.Lock()
    cursor = [0]
    parts = []
    start = clock() + 0.01

    def drive(conn: Connection) -> None:
        outcome = Outcome()
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(raws):
                break
            due = start + index / rate
            pause = due - clock()
            if pause > 0:
                sleep(pause)
            sent = clock()
            status, body = conn.send(raws[index])
            outcome.record(index, status, body, clock() - due, sent - due)
        with lock:
            parts.append(outcome)

    _run_threads(connections, drive)
    merged = Outcome()
    for part in parts:
        merged.extend(part)
    merged.elapsed = clock() - start
    return merged


def closed_loop(connections, raws: list[bytes], seconds: float,
                first: int = 0) -> Outcome:
    """Each connection sends its next request as soon as its reply is
    in, for ``seconds`` or until ``raws`` runs out."""
    lock = threading.Lock()
    cursor = [first]
    parts = []
    start = time.perf_counter()
    stop_at = start + seconds

    def drive(conn: Connection) -> None:
        outcome = Outcome()
        while time.perf_counter() < stop_at:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(raws):
                break
            sent = time.perf_counter()
            status, body = conn.send(raws[index])
            outcome.record(index, status, body, time.perf_counter() - sent)
        with lock:
            parts.append(outcome)

    _run_threads(connections, drive)
    merged = Outcome()
    for part in parts:
        merged.extend(part)
    merged.elapsed = time.perf_counter() - start
    return merged
