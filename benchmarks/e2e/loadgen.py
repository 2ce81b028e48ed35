"""Closed-loop HTTP clients.

Each client thread owns one operation stream and sends the next operation
only after the previous reply arrived.  A thread
records one :class:`Sample` per operation and never looks at the clock of
another thread, so there is no shared state to lock; the samples are merged
after the threads have joined.

Warm-up and measurement are one uninterrupted loop: the window is cut out of
the recorded samples afterwards (by completion time), so no operation is in
flight across a stop/start boundary.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple
from urllib.parse import urlsplit

import e2e_config as config
from traffic import Op


class Sample(NamedTuple):
    """One completed (or failed) operation as the client saw it."""

    client: int  #: index of the client thread that sent it
    op: Op
    started: float  #: ``time.perf_counter()`` when the request was sent
    ended: float  #: ... and when the whole response body had been read
    ok: bool
    status: int
    digest: bytes  #: SHA-1 of the response body (queries)
    epoch: str  #: ``X-Epoch`` of the reply
    server_ms: float  #: ``X-Elapsed-Ms`` of the reply
    body_bytes: int

    @property
    def latency_ms(self) -> float:
        return (self.ended - self.started) * 1000.0


class Client:
    """The shipped ``SparqlClient``'s wire behaviour: one connection per request.

    A keep-alive connection is *not* used, on purpose: the server writes the
    response head and body as two segments, so on a reused connection Nagle's
    algorithm holds the body until the client's delayed ACK fires, ~40 ms
    later.  ``server.keepalive_ms_p50`` in the traced pass measures that stall
    (README, "Findings"); what is timed here is what ``SparqlClient`` users get.
    """

    def __init__(self, base_url: str) -> None:
        parts = urlsplit(base_url)
        self._address = (parts.hostname, parts.port)

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        """``(status, headers, body)`` over a fresh connection."""
        connection = http.client.HTTPConnection(
            *self._address, timeout=config.REQUEST_TIMEOUT_SECONDS
        )
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.headers, response.read()
        finally:
            connection.close()

    def get_json(self, path: str) -> dict:
        status, _headers, body = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    @staticmethod
    def encode(op: Op) -> Tuple[str, bytes]:
        """``(path, body)`` of the POST that carries ``op``."""
        if op.kind == "query":
            return f"/sparql?reasoning={1 if op.reasoning else 0}", op.text.encode("utf-8")
        return f"/bench/{op.kind}", json.dumps(op.triple).encode("utf-8")

    def send(self, op: Op, client: int = 0) -> Sample:
        """Send one operation and time its round trip."""
        path, body = self.encode(op)
        started = time.perf_counter()
        try:
            status, headers, payload = self.request("POST", path, body)
        except (OSError, http.client.HTTPException):
            ended = time.perf_counter()
            return Sample(client, op, started, ended, False, 0, b"", "", 0.0, 0)
        ended = time.perf_counter()
        ok = status == 200
        if ok and op.kind != "query":
            # A write the store did not apply is a lost write, not a success.
            ok = json.loads(payload).get("changed") is True
        return Sample(
            client=client,
            op=op,
            started=started,
            ended=ended,
            ok=ok,
            status=status,
            digest=hashlib.sha1(payload).digest() if op.kind == "query" else b"",
            epoch=headers.get("X-Epoch", ""),
            server_ms=float(headers.get("X-Elapsed-Ms", "0") or 0.0),
            body_bytes=len(payload),
        )


class Window(NamedTuple):
    """What one closed-loop run produced."""

    samples: List[Sample]  #: every operation, warm-up included, by completion time
    started: float  #: ``perf_counter`` at the start of the measured window
    ended: float
    client_busy_share: float  #: generator CPU seconds / window seconds
    wall_offset: float  #: ``time.time() - time.perf_counter()`` (the server's log clock)

    def measured(self) -> List[Sample]:
        return [s for s in self.samples if self.started <= s.ended < self.ended]


def run_window(
    base_url: str, streams: List[Iterator[Op]], warmup_s: float, seconds: float
) -> Window:
    """Drive one stream per client thread for ``warmup_s + seconds`` seconds."""
    begin = time.perf_counter()
    window_start = begin + warmup_s
    window_end = window_start + seconds
    per_thread: List[List[Sample]] = [[] for _ in streams]

    def client_loop(index: int, stream: Iterator[Op], out: List[Sample]) -> None:
        client = Client(base_url)
        while time.perf_counter() < window_end:
            out.append(client.send(next(stream), index))

    threads = [
        threading.Thread(target=client_loop, args=(index, stream, out), name=f"client-{index}")
        for index, (stream, out) in enumerate(zip(streams, per_thread))
    ]
    for thread in threads:
        thread.start()
    # The generator's CPU time over the window: this thread sleeps, so what
    # the process burns is the clients' work.
    time.sleep(max(0.0, window_start - time.perf_counter()))
    cpu_before = time.process_time()
    time.sleep(max(0.0, window_end - time.perf_counter()))
    cpu_after = time.process_time()
    for thread in threads:
        thread.join(timeout=config.REQUEST_TIMEOUT_SECONDS + 5)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish after the window closed")
    samples = sorted((s for out in per_thread for s in out), key=lambda s: s.ended)
    return Window(
        samples, window_start, window_end, (cpu_after - cpu_before) / seconds,
        wall_offset=time.time() - time.perf_counter(),
    )


# --------------------------------------------------------------------------- #
# checks on what the clients saw
# --------------------------------------------------------------------------- #


def inconsistent_reads(samples: List[Sample]) -> int:
    """Reads whose body differs from an earlier one for the same text and epoch."""
    first: Dict[Tuple[str, bool, str], bytes] = {}
    wrong = 0
    for sample in samples:
        if sample.op.kind != "query" or not sample.ok:
            continue
        key = (sample.op.text, sample.op.reasoning, sample.epoch)
        if first.setdefault(key, sample.digest) != sample.digest:
            wrong += 1
    return wrong


def live_triples(samples: List[Sample]) -> Tuple[set, set]:
    """``(must be readable, must be absent)`` after every acknowledged write."""
    readable, absent = set(), set()
    for sample in samples:
        if sample.op.kind == "query" or not sample.ok:
            continue
        triple = tuple(sample.op.triple)
        if sample.op.kind == "insert":
            readable.add(triple)
            absent.discard(triple)
        else:
            readable.discard(triple)
            absent.add(triple)
    return readable, absent
