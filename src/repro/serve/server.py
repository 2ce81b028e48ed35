"""SPARQL over HTTP: a concurrent query server plus a tiny client.

:class:`QueryServer` wraps Python's :class:`~http.server.ThreadingHTTPServer`
(one handler thread per connection, daemonized) and routes every request
through one shared :class:`~repro.serve.service.QueryService` — which is
where the *bounded* worker pool lives: the service's ``worker_slots``
semaphore caps concurrent query execution and its ``max_pending`` bound
turns overload into fast ``503`` rejections instead of unbounded queueing.

Endpoints
---------
``GET/POST /sparql``
    ``query`` parameter (URL-encoded on GET, form- or raw-body on POST),
    optional ``reasoning=0|1`` and ``timeout`` (seconds).  Responds with a
    SPARQL-JSON-style document; serving metadata travels in the
    ``X-Cache`` / ``X-Epoch`` / ``X-Elapsed-Ms`` headers.  With
    ``explain=1`` the query is *planned but not executed*: the response is
    ``{"plan": ..., "planner": ..., "epoch": ...}`` — the exact plan IR the
    engine would interpret, served from the epoch-keyed plan cache.
``GET /healthz``
    Liveness: store triple count and snapshot epoch.
``GET /metrics``
    The :class:`~repro.serve.metrics.ServingMetrics` snapshot.
``GET /stats``
    Full service stats (metrics + cache + store + admission settings).

An optional :class:`~repro.edge.device.SimulatedNetwork` models response
transmission over a constrained edge uplink (see ``docs/performance.md`` for
why that is the quantity a worker pool overlaps on a single-core device).

Status codes: ``400`` parse error · ``503`` admission rejection ·
``504`` query deadline exceeded · ``500`` internal error.
"""

from __future__ import annotations

import json
import threading
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json.encoder import encode_basestring_ascii as _encode_string
from operator import attrgetter
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.edge.device import SimulatedNetwork
from repro.serve.service import QueryOutcome, QueryRejected, QueryService, QueryTimeout
from repro.sparql.bindings import AskResult
from repro.sparql.parser import SparqlParseError


#: Per instance dictionary, id -> the JSON string of its term; a memo lives
#: and grows no longer than its dictionary.
_FRAGMENTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def encode_result(outcome: QueryOutcome) -> bytes:
    """The SPARQL-JSON-style response body of one outcome (values stringified).

    The bytes equal ``json.dumps`` of ``{"head": {"vars": [...]}, "results":
    {"rows": [[str(value) or null, ...], ...]}}``.  The result's batches are
    written column by column: an all-id column maps through its
    dictionary's memo (:data:`_FRAGMENTS`), each id decoded and escaped once
    per process, not once per row; an all-literal or all-URI column escapes
    its strings in one pass, and any other column value by value.  The
    columns are then zipped back into rows and each batch joined at once.
    """
    result = outcome.result
    if isinstance(result, AskResult):
        return json.dumps({"head": {}, "boolean": result.boolean}).encode("utf-8")
    names = tuple(result.variables)
    plans = {}  # layout -> (the column of each variable or None, id memo)
    parts = []  # one string per batch: its rows, comma-separated
    for batch in result.batches:
        layout = batch.layout
        plan = plans.get(layout)
        if plan is None:
            dictionary = layout.dictionary
            memo = {} if dictionary is None else _FRAGMENTS.setdefault(dictionary, {})
            plan = plans[layout] = ([layout.columns.get(name) for name in names], memo)
        columns, memo = plan
        if not columns:
            parts.append(", ".join(["[]"] * len(batch)))
            continue
        values = list(zip(*batch.rows))
        texts = [
            ["null"] * len(batch) if column is None else _column_text(values[column], layout, memo)
            for column in columns
        ]
        parts.append("[" + "], [".join(map(", ".join, zip(*texts))) + "]")
    head = json.dumps({"vars": list(names)})
    return ('{"head": ' + head + ', "results": {"rows": [' + ", ".join(parts) + "]}}").encode("utf-8")


#: ``str()`` of a literal and of a URI, read as one attribute.
_STRINGS = (attrgetter("lexical"), attrgetter("value"))


def _column_text(values: tuple, layout, memo: dict) -> list:
    """The JSON text of each value of one column; ids are written from ``memo``."""
    if values[0].__class__ is int:
        try:
            return list(map(memo.__getitem__, values))
        except KeyError:
            pass
    else:
        for string in _STRINGS:  # all literals, or all URIs
            try:
                return list(map(_encode_string, map(string, values)))
            except AttributeError:
                pass
    for value in values:
        if value.__class__ is int and value not in memo:
            memo[value] = _encode_string(str(layout.dictionary.extract(value)))
    return [
        memo[value] if value.__class__ is int else "null" if value is None else _encode_string(str(value))
        for value in values
    ]


class _SparqlRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the shared QueryService."""

    server_version = "SuccinctEdgeServe/1.0"
    protocol_version = "HTTP/1.1"
    # Head and body leave as two writes; with Nagle on, the second waits for
    # the client's delayed ACK (~40 ms) on every reused connection.
    disable_nagle_algorithm = True

    # The ThreadingHTTPServer subclass attaches the service + network.
    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (metrics cover accounting)."""

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        url = urlsplit(self.path)
        if self._serve_custom(url, None):
            return
        if url.path == "/sparql":
            params = parse_qs(url.query)
            self._serve_query(params)
        elif url.path == "/healthz":
            store = self.service.store
            self._send_json(
                200,
                {
                    "status": "ok",
                    "triples": store.triple_count,
                    "epoch": list(store.snapshot_epoch),
                },
            )
        elif url.path == "/metrics":
            self._send_json(200, self.service.metrics.snapshot())
        elif url.path == "/stats":
            self._send_json(200, self.service.stats())
        else:
            self._send_json(404, {"error": f"unknown path {url.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        url = urlsplit(self.path)
        length = int(self.headers.get("Content-Length", "0") or "0")
        raw = self.rfile.read(length) if length else b""
        if self._serve_custom(url, raw):
            return
        if url.path != "/sparql":
            self._send_json(404, {"error": f"unknown path {url.path!r}"})
            return
        body = raw.decode("utf-8") if raw else ""
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
        params = parse_qs(url.query)
        if content_type == "application/x-www-form-urlencoded":
            params.update(parse_qs(body))
        elif body:
            params["query"] = [body]
        self._serve_query(params)

    def _serve_custom(self, url, body: Optional[bytes]) -> bool:
        """Dispatch to a server-attached extension route, if one matches.

        Extension routes (``QueryServer(routes=...)``) let co-located
        subsystems — the cluster replication endpoints of
        :mod:`repro.serve.cluster` — ride the same HTTP front door.  A
        handler receives ``(params, body)`` and returns
        ``(status, document[, headers])`` where the document is a JSON-able
        dict or raw ``bytes`` (served as ``application/octet-stream`` —
        the image-shipping path).  Returns ``False`` when no route matches,
        letting the built-in endpoints answer.
        """
        routes = getattr(self.server, "routes", None)
        handler = routes.get(url.path) if routes else None
        if handler is None:
            return False
        try:
            reply = handler(parse_qs(url.query), body)
        except Exception as exc:
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            return True
        status, document = reply[0], reply[1]
        headers = reply[2] if len(reply) > 2 else None
        if isinstance(document, (bytes, bytearray)):
            self._send_payload(
                status, bytes(document), headers, content_type="application/octet-stream"
            )
        else:
            self._send_json(status, document, headers)
        return True

    # ------------------------------------------------------------------ #
    # query serving
    # ------------------------------------------------------------------ #

    def _serve_query(self, params: dict) -> None:
        queries = params.get("query")
        if not queries or not queries[0].strip():
            self._send_json(400, {"error": "missing 'query' parameter"})
            return
        reasoning: Optional[bool] = None
        if "reasoning" in params:
            reasoning = params["reasoning"][0] not in ("0", "false", "no")
        timeout_s: Optional[float] = None
        if "timeout" in params:
            try:
                timeout_s = float(params["timeout"][0])
            except ValueError:
                self._send_json(400, {"error": "invalid 'timeout' parameter"})
                return
        if "explain" in params and params["explain"][0] not in ("0", "false", "no"):
            try:
                document = self.service.explain(
                    queries[0], reasoning=reasoning, timeout_s=timeout_s
                )
            except QueryRejected as exc:
                self._send_json(503, {"error": str(exc)}, headers={"Retry-After": "1"})
                return
            except QueryTimeout as exc:
                self._send_json(504, {"error": str(exc)})
                return
            except SparqlParseError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(200, document)
            return
        prepared = {}

        def deliver(outcome: QueryOutcome) -> None:
            # Runs while the worker slot is held: serialization plus
            # (simulated) transmission are the worker's work, as in a
            # pre-threaded server writing the response socket itself.
            payload = encode_result(outcome)
            prepared["payload"] = payload
            network: Optional[SimulatedNetwork] = getattr(self.server, "network", None)
            if network is not None:
                network.transmit(len(payload))

        try:
            outcome = self.service.execute(
                queries[0], reasoning=reasoning, timeout_s=timeout_s, deliver=deliver
            )
        except QueryRejected as exc:
            self._send_json(503, {"error": str(exc)}, headers={"Retry-After": "1"})
            return
        except QueryTimeout as exc:
            self._send_json(504, {"error": str(exc)})
            return
        except SparqlParseError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._send_payload(
            200,
            prepared["payload"],
            headers={
                "X-Cache": "HIT" if outcome.cached else "MISS",
                "X-Epoch": f"{outcome.epoch[0]}.{outcome.epoch[1]}",
                "X-Elapsed-Ms": f"{outcome.elapsed_ms:.3f}",
            },
        )

    # ------------------------------------------------------------------ #
    # response plumbing
    # ------------------------------------------------------------------ #

    def _send_json(self, status: int, document: dict, headers: Optional[dict] = None) -> None:
        # Error and ops endpoints (health/metrics/stats) skip the simulated
        # uplink: only query responses travel to remote clients.
        self._send_payload(status, json.dumps(document).encode("utf-8"), headers)

    def _send_payload(
        self,
        status: int,
        payload: bytes,
        headers: Optional[dict] = None,
        content_type: str = "application/json",
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)


class _ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared service (+ optional network)."""

    daemon_threads = True

    def __init__(
        self,
        address,
        service: QueryService,
        network: Optional[SimulatedNetwork],
        routes: Optional[dict] = None,
    ):
        super().__init__(address, _SparqlRequestHandler)
        self.service = service
        self.network = network
        self.routes = dict(routes) if routes else {}


class QueryServer:
    """The SPARQL-over-HTTP front door (start/stop lifecycle, context manager).

    >>> # doctest-style usage (see docs/operations.md for the full guide):
    >>> # server = QueryServer(QueryService(store)); server.start()
    >>> # ... SparqlClient(server.url).select("SELECT ...") ...
    >>> # server.stop()
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        network: Optional[SimulatedNetwork] = None,
        routes: Optional[dict] = None,
    ) -> None:
        self.service = service
        self._httpd = _ServiceHTTPServer((host, port), service, network, routes=routes)
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` (the port is concrete even for 0)."""
        return self._httpd.server_address

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        host, port = self.address[0], self.address[1]
        return f"http://{host}:{port}"

    def start(self) -> "QueryServer":
        """Start serving on a daemon thread; returns self for chaining.

        A stopped server cannot be restarted — ``stop()`` closes the
        listening socket for good; create a new :class:`QueryServer` (the
        raise here beats a silently dead socket).
        """
        if self._closed:
            raise RuntimeError(
                "this QueryServer was stopped and its socket closed; "
                "create a new QueryServer to serve again"
            )
        if self._thread is not None:
            return self
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="succinctedge-http",
            daemon=True,
        )
        self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close the socket, join the serving thread.

        Also closes the listening socket of a constructed-but-never-started
        server (``__init__`` binds the port), so no fd or port leaks when a
        caller bails out before ``start()``.
        """
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class SparqlClient:
    """Dependency-free client for the server (tests, examples, benchmark)."""

    def __init__(self, base_url: str, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def _request(self, path: str, data: Optional[bytes] = None) -> dict:
        import urllib.error
        import urllib.request

        request = urllib.request.Request(self.base_url + path, data=data)
        if data is not None:
            request.add_header("Content-Type", "application/sparql-query")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                document = json.loads(response.read().decode("utf-8"))
                document["_status"] = response.status
                document["_cache"] = response.headers.get("X-Cache")
                document["_epoch"] = response.headers.get("X-Epoch")
                return document
        except urllib.error.HTTPError as error:
            document = json.loads(error.read().decode("utf-8") or "{}")
            document["_status"] = error.code
            return document

    def query(self, sparql: str, reasoning: Optional[bool] = None) -> dict:
        """POST one query; returns the parsed JSON document (+ meta keys)."""
        suffix = ""
        if reasoning is not None:
            suffix = f"?reasoning={1 if reasoning else 0}"
        return self._request("/sparql" + suffix, data=sparql.encode("utf-8"))

    def select_rows(self, sparql: str, reasoning: Optional[bool] = None) -> list:
        """Rows of a SELECT as lists of strings (raises on server errors)."""
        document = self.query(sparql, reasoning=reasoning)
        if document["_status"] != 200:
            raise RuntimeError(f"server error {document['_status']}: {document.get('error')}")
        return document["results"]["rows"]

    def explain(self, sparql: str, reasoning: Optional[bool] = None) -> dict:
        """Plan (but do not run) a query: the ``explain=1`` document."""
        suffix = "?explain=1"
        if reasoning is not None:
            suffix += f"&reasoning={1 if reasoning else 0}"
        document = self._request("/sparql" + suffix, data=sparql.encode("utf-8"))
        if document["_status"] != 200:
            raise RuntimeError(f"server error {document['_status']}: {document.get('error')}")
        return document

    def ask(self, sparql: str, reasoning: Optional[bool] = None) -> bool:
        """The boolean of an ASK query."""
        document = self.query(sparql, reasoning=reasoning)
        if document["_status"] != 200:
            raise RuntimeError(f"server error {document['_status']}: {document.get('error')}")
        return bool(document["boolean"])

    def health(self) -> dict:
        """The ``/healthz`` document."""
        return self._request("/healthz")

    def metrics(self) -> dict:
        """The ``/metrics`` document."""
        return self._request("/metrics")

    def stats(self) -> dict:
        """The ``/stats`` document."""
        return self._request("/stats")
