"""Distributed serving: write-log replication and the replica transport.

This module turns the single-node serving stack into a small cluster.  It
adds no query logic of its own: the coordinator runs the one scatter path
of :class:`~repro.query.parallel.ParallelExecutor`, and replicas answer the
work units of :mod:`repro.query.units` with the same ``execute_unit`` the
thread and process transports use.  What is particular to the network:

* **Replication** (:class:`ReplicationSource` / :class:`ClusterReplica`) —
  the HTTP face of :mod:`repro.store.shipping`.  :class:`ReplicationSource`
  is the primary's :class:`~repro.store.shipping.Publisher` plus three
  routes; a :class:`ClusterReplica` is a follower that bootstraps by
  downloading the published store image (one ``.sedg`` file, or a
  :meth:`~repro.store.sharding.ShardedStore.save_image_directory` tree)
  and stays fresh by pulling the **write-log suffix** it has not applied
  yet (``/replicate?generation=G&applied=N``).  Replaying the log through
  the replica's own ``insert``/``delete`` path reproduces dictionary and
  overflow identifier assignment *exactly*, so the identifiers in unit
  replies mean the same terms on the primary, on every replica, and on the
  coordinator.
* **Epoch-consistent reads** — a position in the replicated history is the
  pair ``(generation, epoch)``: the image generation (compaction epoch /
  image-directory generation; a bump means *re-bootstrap*) and the data
  epoch (applied write operations).  The coordinator pins one position per
  query attempt and stamps it on every work unit; a replica serves a unit
  only at *exactly* that position — it syncs forward on demand (the pull is
  capped at the pinned epoch, so concurrently shipped writes never leak
  into an older query's rows) and answers **409 epoch conflict** when it
  has moved past it.  A conflict aborts the whole attempt before any row is
  surfaced; the engine re-pins at a fresh position and retries, so a query
  returns rows from one position or none at all — never a mix.
* **The transport** (:class:`ClusterExecutor`, :class:`ReplicaSet`) — each
  unit is one ``/cluster/op`` call, wire-encoded by the shared codec
  (requests carry terms by value, since the coordinator's dictionary may
  have grown past the pinned epoch; replies carry identifiers, and the log
  operations themselves travel as by-value triples in the same term
  codes).  Per-replica health flags (a transport failure marks the replica
  down; ``refresh_health`` probes ``/cluster/health`` to readmit it),
  shard-affine routing with failover to peers, **hedged retries** (a unit
  unanswered after ``hedge_after_s`` is also sent to the next candidate;
  first success wins) and a coordinator-side deadline
  (:class:`ClusterTimeout`, never retried).  Every hop — request and
  response — can be charged to a :class:`~repro.edge.device.SimulatedNetwork`,
  whose partition and drop knobs are what the fault-injection suite drives.

Known limits, stated honestly: coordinator-local probes (bound-subject
lookups the scatter planner prunes to one shard) read the primary live,
exactly like the monolithic engine mid-write; and two concurrent queries
pinned at different epochs sharing one replica can force clean 409/retry
cycles — never wrong rows.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.edge.device import NetworkPartitioned, SimulatedNetwork
from repro.query.parallel import ParallelExecutor, ParallelQueryEngine
from repro.query.tp_eval import TriplePatternEvaluator
from repro.query.units import (
    decode_reply,
    decode_request,
    decode_term,
    encode_reply,
    encode_request,
    encode_term,
    execute_unit,
)
from repro.rdf.terms import Triple
from repro.store.shipping import Publisher, open_follower, prune, replay
from repro.store.succinct_edge import SuccinctEdge


class ClusterError(RuntimeError):
    """Base class for cluster failures the engine may retry cleanly."""


class ClusterTimeout(ClusterError):
    """The coordinator's deadline passed; never retried (time is spent)."""


class EpochConflict(ClusterError):
    """A replica has moved past the pinned position; re-pin and retry."""


class ReplicaUnavailable(ClusterError):
    """A replica (or the primary, during a sync) could not be reached."""


# --------------------------------------------------------------------------- #
# transports
# --------------------------------------------------------------------------- #


class _JsonHttp:
    """One HTTP peer: JSON in/out, with an optional simulated link.

    Both directions of every call are charged to the link —
    :meth:`~repro.edge.device.SimulatedNetwork.transmit_request` for the
    request path, ``transmit`` for the response — so latency, partition
    and drop injection apply at every hop of the cluster.  Transport
    failures (refused connection, timeout, simulated partition or drop)
    surface as :class:`ReplicaUnavailable`; HTTP error *statuses* are
    returned to the caller, which maps them (409 → epoch conflict).
    """

    def __init__(
        self,
        base_url: str,
        network: Optional[SimulatedNetwork] = None,
        timeout_s: float = 30.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.network = network
        self.timeout_s = timeout_s

    def request(
        self, path: str, payload=None, timeout_s: Optional[float] = None
    ) -> Tuple[int, bytes]:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        timeout = self.timeout_s if timeout_s is None else min(self.timeout_s, timeout_s)
        target = self.base_url + path
        try:
            if self.network is not None:
                self.network.transmit_request(len(data) if data else 0)
            request = urllib.request.Request(target, data=data)
            if data is not None:
                request.add_header("Content-Type", "application/json")
            with urllib.request.urlopen(request, timeout=timeout) as response:
                status, raw = response.status, response.read()
        except urllib.error.HTTPError as error:
            status, raw = error.code, error.read()
        except (OSError, NetworkPartitioned) as error:
            raise ReplicaUnavailable(f"{target}: {error}") from error
        try:
            if self.network is not None:
                self.network.transmit(len(raw))
        except NetworkPartitioned as error:
            raise ReplicaUnavailable(f"{target}: {error}") from error
        return status, raw

    def json(self, path: str, payload=None, timeout_s: Optional[float] = None):
        status, raw = self.request(path, payload, timeout_s)
        document = json.loads(raw.decode("utf-8")) if raw else {}
        return status, document


class HttpReplicationClient:
    """A replica's view of its primary, over HTTP.

    Speaks to the three routes :meth:`ReplicationSource.routes` attaches to
    the primary's :class:`~repro.serve.server.QueryServer`.  Any transport
    or server failure raises :class:`ReplicaUnavailable` — the replica's
    sync reports it upward, and the coordinator fails over to a peer.
    """

    def __init__(
        self,
        base_url: str,
        network: Optional[SimulatedNetwork] = None,
        timeout_s: float = 60.0,
    ) -> None:
        self._http = _JsonHttp(base_url, network=network, timeout_s=timeout_s)

    def _document(self, path: str) -> dict:
        status, document = self._http.json(path)
        if status != 200:
            raise ReplicaUnavailable(f"{path} answered {status}: {document.get('error')}")
        return document

    def manifest(self) -> dict:
        """The primary's current image manifest (kind, generation, files)."""
        return self._document("/cluster/manifest")

    def fetch_file(self, name: str) -> bytes:
        """One image file of the current manifest, as raw bytes."""
        status, raw = self._http.request("/cluster/file?name=" + urllib.parse.quote(name))
        if status != 200:
            raise ReplicaUnavailable(f"file {name!r} request answered {status}")
        return raw

    def slice(self, generation: int, applied: int, upto_epoch: Optional[int] = None) -> dict:
        """The write-log suffix past ``applied`` (wire-encoded operations)."""
        path = f"/replicate?generation={generation}&applied={applied}"
        if upto_epoch is not None:
            path += f"&upto={upto_epoch}"
        return self._document(path)


class LocalReplicationClient:
    """In-process replication transport (tests, fuzzing, single-box drills).

    Same wire documents as :class:`HttpReplicationClient` — the replica
    replays JSON-shaped operations either way, so a property-based test
    driving this transport exercises the exact replay path the HTTP
    cluster uses, minus the sockets.
    """

    def __init__(self, source: "ReplicationSource") -> None:
        self.source = source

    def manifest(self) -> dict:
        """The source's current image manifest."""
        return json.loads(json.dumps(self.source.manifest()))

    def fetch_file(self, name: str) -> bytes:
        """One image file of the current manifest."""
        return self.source.file_bytes(name)

    def slice(self, generation: int, applied: int, upto_epoch: Optional[int] = None) -> dict:
        """The wire-encoded write-log suffix past ``applied``."""
        return json.loads(json.dumps(self.source.slice(generation, applied, upto_epoch)))


# --------------------------------------------------------------------------- #
# the primary side: the publisher's HTTP face
# --------------------------------------------------------------------------- #


class ReplicationSource(Publisher):
    """The primary's :class:`~repro.store.shipping.Publisher`, served over HTTP.

    :meth:`routes` attaches the replication protocol's three reads to the
    primary's :class:`~repro.serve.server.QueryServer`: the current
    manifest, one of its files (name-validated against the manifest, so the
    route cannot read outside the image tree) and a log slice, whose
    operations travel in the unit codec's term codes.
    """

    def slice(self, generation: int, applied: int, upto_epoch: Optional[int] = None) -> dict:
        """:meth:`Publisher.slice <repro.store.shipping.Publisher.slice>`, wire-encoded."""
        reply = super().slice(generation, applied, upto_epoch)
        if not reply["resync"]:
            reply["operations"] = [
                [operation, [encode_term(term) for term in triple]]
                for operation, triple in reply["operations"]
            ]
        return reply

    def routes(self) -> dict:
        """Extension routes for the primary's :class:`~repro.serve.server.QueryServer`."""
        return {
            "/cluster/manifest": lambda params, body: (200, self.manifest()),
            "/cluster/file": self._file_route,
            "/replicate": self._replicate_route,
        }

    def _file_route(self, params: dict, body):
        name = (params.get("name") or [""])[0]
        try:
            return (200, self.file_bytes(name))
        except KeyError:
            return (404, {"error": f"unknown replication file {name!r}"})

    def _replicate_route(self, params: dict, body):
        generation = int((params.get("generation") or ["0"])[0])
        applied = int((params.get("applied") or ["0"])[0])
        upto = params.get("upto")
        return (200, self.slice(generation, applied, int(upto[0]) if upto else None))


# --------------------------------------------------------------------------- #
# the replica side
# --------------------------------------------------------------------------- #


class _ReadWriteLock:
    """Many readers or one writer: work units read, syncs write.

    A work unit holds the read side for its whole (materialized)
    evaluation, so a concurrent sync can never advance the store mid-unit
    — the position check and the rows it guards are atomic.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writing = False

    @contextmanager
    def read(self):
        with self._condition:
            while self._writing:
                self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._readers -= 1
                if not self._readers:
                    self._condition.notify_all()

    @contextmanager
    def write(self):
        with self._condition:
            while self._writing or self._readers:
                self._condition.wait()
            self._writing = True
        try:
            yield
        finally:
            with self._condition:
                self._writing = False
                self._condition.notify_all()


class ClusterReplica:
    """One read replica: a bootstrapped image plus a tailed write log.

    ``bootstrap()`` downloads the primary's manifest and image files into
    ``workdir/g<generation>/`` and opens them as a writable follower
    (:func:`~repro.store.shipping.open_follower`), keeping the previous
    generation's directory and deleting older ones; ``sync(upto_epoch=E)``
    pulls and replays the missing suffix — capped at ``E``, so a replica
    serving an old-epoch query is never dragged past the pin — and
    re-bootstraps when the primary's generation moved (compaction / image
    rotation).

    :meth:`handle_op` is the work-unit entry point: it syncs forward if the
    unit's position is ahead, answers :class:`EpochConflict` if the replica
    is past it, and otherwise evaluates under the read lock so rows and
    position cannot be torn apart by a concurrent sync.
    """

    def __init__(self, client, workdir) -> None:
        self.client = client
        self.workdir = str(workdir)
        self.store: Optional[SuccinctEdge] = None
        self.generation = -1
        self.base_epoch = 0
        self.applied = 0
        self.syncs = 0
        self.bootstraps = 0
        self._roots: Dict[int, str] = {}
        self._lock = _ReadWriteLock()

    @property
    def epoch(self) -> int:
        """The replica's current data epoch (base image + replayed ops)."""
        return self.base_epoch + self.applied

    # -- bootstrap + sync ------------------------------------------------ #

    def bootstrap(self) -> "ClusterReplica":
        """Download the current image and load it; returns self for chaining."""
        with self._lock.write():
            self._bootstrap_locked()
        return self

    def _bootstrap_locked(self) -> None:
        manifest = self.client.manifest()
        generation = manifest["generation"]
        root = os.path.join(self.workdir, f"g{generation:06d}")
        os.makedirs(root, exist_ok=True)
        for name in manifest["files"]:
            target = os.path.join(root, name)
            if not os.path.exists(target):
                staged = target + ".tmp"
                with open(staged, "wb") as handle:
                    handle.write(self.client.fetch_file(name))
                os.replace(staged, target)
        self.store = open_follower(manifest["kind"], root, manifest["files"])
        self._roots[generation] = root
        prune(self._roots)
        self.generation = generation
        self.base_epoch = manifest["base_epoch"]
        self.applied = 0
        self.bootstraps += 1

    def sync(self, upto_epoch: Optional[int] = None, max_rounds: int = 4) -> int:
        """Pull and replay the missing log suffix; returns the epoch reached.

        Loops re-bootstrap → replay for up to ``max_rounds`` rounds (a
        racing compaction can invalidate a freshly pulled manifest);
        transport failures raise :class:`ReplicaUnavailable` unchanged.
        """
        with self._lock.write():
            for _ in range(max_rounds):
                if self.store is None:
                    self._bootstrap_locked()
                reply = self.client.slice(self.generation, self.applied, upto_epoch)
                if reply.get("resync"):
                    self.store = None  # stale generation: full re-bootstrap
                    continue
                replay(
                    self.store,
                    [
                        (operation, Triple(*(decode_term(term) for term in code)))
                        for operation, code in reply["operations"]
                    ],
                )
                self.applied = reply["applied"]
                self.syncs += 1
                if upto_epoch is None or self.epoch >= upto_epoch:
                    return self.epoch
            raise ReplicaUnavailable(
                f"replica could not converge to epoch {upto_epoch} "
                f"in {max_rounds} rounds (primary kept rotating)"
            )

    # -- work units ------------------------------------------------------ #

    def _position(self):
        with self._lock.read():
            if self.store is None:
                return None
            return (self.generation, self.epoch)

    def handle_op(self, op: str, args, reasoning: bool, generation: int, epoch: int):
        """Serve one work unit at exactly ``(generation, epoch)``.

        Raises :class:`EpochConflict` when the replica cannot stand at that
        position (it moved past it, or a racing sync overshot) and
        :class:`ReplicaUnavailable` when syncing forward needs a primary it
        cannot reach — both abort the unit *before* any row is produced.
        """
        current = self._position()
        if current != (generation, epoch):
            behind = (
                current is None
                or current[0] < generation
                or (current[0] == generation and current[1] < epoch)
            )
            if behind:
                self.sync(upto_epoch=epoch)
        with self._lock.read():
            if self.store is None or (self.generation, self.epoch) != (generation, epoch):
                raise EpochConflict(
                    f"replica stands at (g{self.generation}, e{self.epoch}); "
                    f"cannot serve a unit pinned at (g{generation}, e{epoch})"
                )
            if op == "ping":
                return {"generation": self.generation, "epoch": self.epoch}
            reply = execute_unit(self.store, op, decode_request(op, args, self.store.instances), reasoning)
            return encode_reply(op, reply)

    # -- HTTP face -------------------------------------------------------- #

    def routes(self) -> dict:
        """Extension routes for this replica's :class:`~repro.serve.server.QueryServer`."""
        return {"/cluster/op": self._op_route, "/cluster/health": self._health_route}

    def _op_route(self, params: dict, body):
        request = json.loads(body.decode("utf-8"))
        try:
            rows = self.handle_op(
                request["op"],
                request.get("args", ()),
                bool(request.get("reasoning", True)),
                request["generation"],
                request["epoch"],
            )
        except EpochConflict as error:
            return (
                409,
                {"error": str(error), "generation": self.generation, "epoch": self.epoch},
            )
        except ReplicaUnavailable as error:
            return (503, {"error": str(error)})
        return (200, {"rows": rows, "generation": self.generation, "epoch": self.epoch})

    def _health_route(self, params: dict, body):
        if self.store is None:
            return (503, {"status": "bootstrapping"})
        return (
            200,
            {
                "status": "ok",
                "generation": self.generation,
                "epoch": self.epoch,
                "applied": self.applied,
                "triples": self.store.triple_count,
            },
        )

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        network: Optional[SimulatedNetwork] = None,
    ):
        """Start a :class:`~repro.serve.server.QueryServer` for this replica.

        The server answers plain ``/sparql`` against the replica's local
        store *and* the ``/cluster/op`` + ``/cluster/health`` work-unit
        routes; the caller owns the returned (started) server's lifecycle.
        """
        from repro.serve.server import QueryServer
        from repro.serve.service import QueryService

        if self.store is None:
            self.bootstrap()
        service = QueryService(self.store)
        return QueryServer(
            service, host=host, port=port, network=network, routes=self.routes()
        ).start()


# --------------------------------------------------------------------------- #
# the coordinator side
# --------------------------------------------------------------------------- #


class ReplicaSet:
    """The coordinator's replica directory: health, routing, hedging.

    * **Routing** is shard-affine (shard ``i`` prefers replica ``i mod R``
      — per-shard working sets stay warm in each replica's page cache) with
      the remaining healthy replicas as failover candidates in rotation.
    * **Health**: a transport failure marks the replica down and the unit
      fails over; :meth:`refresh_health` probes ``/cluster/health`` and
      readmits recovered replicas (the engine calls it between attempts).
    * **Hedging**: when a unit has no answer after ``hedge_after_s``, the
      same unit is also sent to the next candidate and the first success
      wins — a lagging or slow replica adds one hedge interval, not its
      full stall, to the query.
    * **Deadline**: ``deadline_at`` (a ``perf_counter`` instant) bounds the
      whole dispatch; past it :class:`ClusterTimeout` is raised and never
      retried.

    An :class:`EpochConflict` from one replica does *not* mark it down
    (the replica is healthy, just elsewhere in history); the dispatch
    tries the other candidates and re-raises the conflict only when no
    candidate can serve the pinned position.
    """

    def __init__(
        self,
        urls: Sequence[str],
        networks: Optional[Sequence[Optional[SimulatedNetwork]]] = None,
        request_timeout_s: float = 30.0,
        hedge_after_s: float = 0.05,
    ) -> None:
        if not urls:
            raise ValueError("a replica set needs at least one replica URL")
        self.urls = [url.rstrip("/") for url in urls]
        if networks is None:
            networks = [None] * len(self.urls)
        if len(networks) != len(self.urls):
            raise ValueError("networks must align with urls")
        self._clients = [
            _JsonHttp(url, network=network, timeout_s=request_timeout_s)
            for url, network in zip(self.urls, networks)
        ]
        self.healthy = [True] * len(self.urls)
        self.dispatches = [0] * len(self.urls)
        self.hedges = 0
        self.failovers = 0
        self.hedge_after_s = hedge_after_s
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self.urls)),
            thread_name_prefix="succinctedge-cluster",
        )
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.urls)

    # -- health ---------------------------------------------------------- #

    def mark_down(self, index: int) -> None:
        """Exclude one replica from routing until a health probe readmits it."""
        with self._lock:
            self.healthy[index] = False

    def refresh_health(self) -> List[bool]:
        """Probe every replica's ``/cluster/health``; returns the new flags."""
        for index, client in enumerate(self._clients):
            try:
                status, _ = client.json("/cluster/health")
                alive = status == 200
            except ClusterError:
                alive = False
            with self._lock:
                self.healthy[index] = alive
        return list(self.healthy)

    def _candidates(self, shard_hint: int) -> List[int]:
        count = len(self.urls)
        start = shard_hint % count
        with self._lock:
            flags = list(self.healthy)
        return [
            (start + offset) % count
            for offset in range(count)
            if flags[(start + offset) % count]
        ]

    # -- dispatch --------------------------------------------------------- #

    def _call(self, index: int, payload: dict, deadline_at: Optional[float]):
        with self._lock:
            self.dispatches[index] += 1
        remaining = None if deadline_at is None else deadline_at - time.perf_counter()
        if remaining is not None and remaining <= 0:
            raise ClusterTimeout("cluster deadline passed before the unit was sent")
        status, document = self._clients[index].json(
            "/cluster/op", payload, timeout_s=remaining
        )
        if status == 200:
            return document["rows"]
        if status == 409:
            raise EpochConflict(
                document.get("error") or f"replica {self.urls[index]} epoch conflict"
            )
        raise ReplicaUnavailable(
            f"replica {self.urls[index]} answered {status}: {document.get('error')}"
        )

    def dispatch(
        self,
        op: str,
        args,
        reasoning: bool,
        generation: int,
        epoch: int,
        shard_hint: int = 0,
        deadline_at: Optional[float] = None,
    ):
        """Run one work unit somewhere in the set; first success wins."""
        payload = {
            "op": op,
            "args": args,
            "reasoning": reasoning,
            "generation": generation,
            "epoch": epoch,
        }
        candidates = self._candidates(shard_hint)
        if not candidates:
            raise ReplicaUnavailable("no healthy replicas in the set")
        pending = list(candidates)
        in_flight = {}
        conflict: Optional[EpochConflict] = None
        last_error: Optional[ClusterError] = None

        def launch() -> None:
            index = pending.pop(0)
            in_flight[self._pool.submit(self._call, index, payload, deadline_at)] = index

        launch()
        while in_flight:
            remaining = None if deadline_at is None else deadline_at - time.perf_counter()
            if remaining is not None and remaining <= 0:
                raise ClusterTimeout(
                    f"work unit {op!r} missed the cluster deadline "
                    f"({len(in_flight)} attempt(s) still in flight)"
                )
            timeout = self.hedge_after_s if pending else remaining
            if remaining is not None:
                timeout = remaining if timeout is None else min(timeout, remaining)
            done, _ = wait(set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                if pending:  # hedge: race the next candidate against the slow one
                    with self._lock:
                        self.hedges += 1
                    launch()
                continue
            for future in done:
                index = in_flight.pop(future)
                try:
                    rows = future.result()
                except ClusterTimeout:
                    raise
                except EpochConflict as error:
                    conflict = error
                except ClusterError as error:
                    self.mark_down(index)
                    last_error = error
                except Exception as error:  # defensive: treat as unavailable
                    self.mark_down(index)
                    last_error = ReplicaUnavailable(f"{self.urls[index]}: {error}")
                else:
                    return rows
            if not in_flight and pending:
                with self._lock:
                    self.failovers += 1
                launch()
        if conflict is not None:
            raise conflict
        raise last_error if last_error is not None else ReplicaUnavailable(
            "every candidate replica failed"
        )

    def close(self) -> None:
        """Shut the dispatch pool down (abandoning stragglers)."""
        self._pool.shutdown(wait=False)

    def info(self) -> dict:
        """Routing and health accounting (tests and ``/stats`` consumers)."""
        with self._lock:
            return {
                "urls": list(self.urls),
                "healthy": list(self.healthy),
                "dispatches": list(self.dispatches),
                "hedges": self.hedges,
                "failovers": self.failovers,
            }

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ClusterExecutor(ParallelExecutor):
    """The cluster transport for :class:`ParallelExecutor`'s work units.

    Inherits every scatter decision; :meth:`_submit` races one
    :meth:`ReplicaSet.dispatch` per unit on the inherited thread pool (so
    per-shard round trips overlap), stamped with the position pinned for
    the query — shard-scoped units prefer their shard's replica, bind-join
    batches rotate across the set — and :meth:`_await` decodes the reply.
    A group's seed under a bound subject, which one shard answers, stays
    local on the coordinator's primary store, as on every transport.
    """

    def __init__(
        self,
        store: SuccinctEdge,
        replicas: ReplicaSet,
        source: ReplicationSource,
        reasoning: bool = True,
        inner: Optional[TriplePatternEvaluator] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        if max_workers is None:
            max_workers = max(2, 2 * len(replicas))
        super().__init__(store, reasoning=reasoning, inner=inner, max_workers=max_workers)
        self.replicas = replicas
        self.source = source
        self._local = threading.local()
        self._rotation = itertools.count()

    # -- position pinning ------------------------------------------------- #

    @contextmanager
    def pinned(self, generation: int, epoch: int, deadline_at: Optional[float] = None):
        """Stamp every work unit dispatched from this thread with one position."""
        previous = getattr(self._local, "pin", None)
        self._local.pin = (generation, epoch, deadline_at)
        try:
            yield
        finally:
            self._local.pin = previous

    # -- the transport: units cross the network --------------------------- #

    def _session(self) -> Tuple[int, int, Optional[float]]:
        pin = getattr(self._local, "pin", None)
        if pin is not None:
            return pin
        generation, epoch = self.source.position()
        return generation, epoch, None

    def _submit(self, pin, op: str, args):
        generation, epoch, deadline_at = pin
        hint = next(self._rotation) if op == "eval_many" else (args[-1] or 0)
        future = self._ensure_pool().submit(
            self.replicas.dispatch,
            op,
            encode_request(op, args),
            self.reasoning,
            generation,
            epoch,
            shard_hint=hint,
            deadline_at=deadline_at,
        )
        return op, args, future

    def _await(self, ticket):
        op, args, future = ticket
        return decode_reply(op, args, future.result(), self.store.instances)


class ClusterQueryEngine(ParallelQueryEngine):
    """A :class:`~repro.query.parallel.ParallelQueryEngine` over a replica set.

    Builds a :class:`ClusterExecutor`.  Every attempt — ``execute``,
    ``ask``, or one whole ``stream`` iteration — pins one ``(generation,
    epoch)`` position and stamps it on every work unit; an
    :class:`EpochConflict` or :class:`ReplicaUnavailable` aborts the attempt
    before any row escapes, replica health is refreshed, and the query
    retries at a *fresh* pin.  :class:`ClusterTimeout` is never retried —
    the deadline is already spent.
    """

    retryable_exceptions = (EpochConflict, ReplicaUnavailable)

    def __init__(
        self,
        store: SuccinctEdge,
        replicas: ReplicaSet,
        source: ReplicationSource,
        reasoning: bool = True,
        max_workers: Optional[int] = None,
        deadline_s: Optional[float] = None,
        retries: int = 1,
    ) -> None:
        self.deadline_s = deadline_s
        self.retries = max(0, retries)
        self._transport = (replicas, source)
        super().__init__(store, reasoning=reasoning, max_workers=max_workers)

    def _executor(self, **shared) -> ClusterExecutor:
        return ClusterExecutor(self.store, *self._transport, **shared)

    @property
    def replicas(self) -> ReplicaSet:
        """The replica set work units are routed through."""
        return self.evaluator.replicas

    def heal(self) -> None:
        """Refresh replica health (the between-attempts retry hook)."""
        self.replicas.refresh_health()

    @contextmanager
    def _attempt(self):
        generation, epoch = self.evaluator.source.position()
        deadline_at = (
            None if self.deadline_s is None else time.perf_counter() + self.deadline_s
        )
        with self.evaluator.pinned(generation, epoch, deadline_at):
            yield
