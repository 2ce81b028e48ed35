"""QueryService: the transport-independent core of the query server.

One :class:`QueryService` wraps one store (monolithic, updatable or sharded)
and gives every transport — the HTTP server of :mod:`repro.serve.server`,
the edge :class:`~repro.edge.server.AdministrationServer`, tests, the
benchmark — the same execution path:

admission control → cache lookup → streaming execution under a deadline →
cache fill → metrics.

* **Admission**: ``worker_slots`` bounds how many queries execute
  concurrently; ``max_pending`` bounds how many more may wait for a slot.
  Requests beyond both are rejected immediately (:class:`QueryRejected`),
  which is what keeps tail latency bounded under overload.
* **Timeouts** are cooperative and cover the whole stay in the service:
  the deadline clock starts before the wait for a worker slot (a request
  cannot sit behind a deep queue and still run afterwards), and during
  execution the streaming pipeline is consumed batch by batch with the
  deadline checked after each batch (at most 256 rows), so a timed-out
  query stops probing the SDS layouts instead of running to completion.
  A single blocking operator step (e.g. one large aggregation input) is
  not interrupted mid-step.
* **Caching**: results are materialized once and cached under
  ``(query, reasoning, snapshot_epoch)``.  Any write bumps the store's
  ``data_epoch`` (on sharded stores: any shard's), so later lookups miss;
  see :mod:`repro.serve.cache`.  Two further LRUs serve the planning path:
  a **parse cache** keyed on the query text alone (ASTs are immutable and
  epoch-independent, so repeated queries skip the parser even across
  writes) and the **plan cache**, keyed on ``(query text, reasoning,
  data_epoch)``, holding the compiled
  :class:`~repro.query.plan.PipelinePlan` served by
  :meth:`QueryService.explain` — writes move the epoch (and with it the
  statistics the planner read), re-keying the entry and forcing a re-plan.
  Execution itself plans through the engines' own statistics-version-keyed
  plan caches.  ``explain`` runs under the same admission control as
  ``execute`` (planning probes the SDS directories, so it is real work the
  worker pool must bound).  The HTTP transport exposes it as ``explain=1``
  on ``/sparql``.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.query.engine import QueryEngine
from repro.serve.cache import ResultCache
from repro.serve.metrics import ServingMetrics
from repro.sparql.ast import AskQuery, SelectQuery
from repro.sparql.bindings import AskResult, ResultSet
from repro.sparql.parser import parse_query
from repro.store.succinct_edge import SuccinctEdge


class QueryRejected(RuntimeError):
    """Raised when admission control turns a request away (overload)."""


class QueryTimeout(RuntimeError):
    """Raised when an admitted query exceeds its deadline."""


@dataclass(frozen=True)
class QueryOutcome:
    """One served query: the result plus serving metadata."""

    result: Union[ResultSet, AskResult]
    cached: bool
    elapsed_ms: float
    epoch: Tuple[int, int]

    @property
    def rows(self) -> int:
        """Row count (1/0 for ASK), used by transports for accounting."""
        if isinstance(self.result, AskResult):
            return 1 if self.result.boolean else 0
        return len(self.result)


class QueryService:
    """Concurrent query execution over one store, with cache and admission.

    Parameters
    ----------
    store:
        The store to serve.  Writes may happen concurrently (updatable or
        sharded-updatable stores); the cache keys on the snapshot epoch.
    reasoning:
        Default reasoning mode for queries that do not override it.
    backend:
        Execution backend: ``"sequential"`` (the default), ``"threads"`` (a
        :class:`~repro.query.parallel.ParallelQueryEngine`, per-shard
        scatter-gather), ``"process"`` (a
        :class:`~repro.query.multiproc.ProcessPoolQueryEngine` over one
        shared worker-process pool) or ``"auto"`` (resolved by
        :func:`~repro.query.parallel.select_backend`).
    process_workers:
        Worker-process count for the ``process`` backend (``None``: the
        pool's own default).
    mp_context:
        Multiprocessing start method for the ``process`` backend
        (``"fork"``/``"spawn"``; ``None``: fork where available).
    task_timeout_s:
        Per-task timeout for the ``process`` backend — a worker task
        exceeding it fails the query cleanly and restarts the pool, so a
        deadlocked worker can never hang the service.
    worker_slots:
        Maximum queries executing concurrently (the bounded worker pool).
    max_pending:
        Maximum queries waiting for a slot before rejections start.
    cache_capacity:
        LRU entries kept in the *result* cache; ``0`` disables it.
    plan_cache_capacity:
        LRU entries kept in the *parse* cache (ASTs, keyed on query text)
        and the *plan* cache (compiled plans for ``explain``, keyed on
        query text, reasoning and data epoch); ``0`` disables both.
    default_timeout_s:
        Deadline applied when a call does not pass its own.
    """

    def __init__(
        self,
        store: SuccinctEdge,
        reasoning: bool = True,
        backend: str = "sequential",
        process_workers: Optional[int] = None,
        mp_context: Optional[str] = None,
        task_timeout_s: Optional[float] = None,
        worker_slots: int = 4,
        max_pending: int = 64,
        cache_capacity: int = 256,
        plan_cache_capacity: int = 128,
        default_timeout_s: Optional[float] = None,
    ) -> None:
        if worker_slots < 1:
            raise ValueError("worker_slots must be positive")
        self.store = store
        self.reasoning = reasoning
        from repro.query.parallel import select_backend

        self.backend = select_backend(backend)
        self.process_workers = process_workers
        self.mp_context = mp_context
        self.task_timeout_s = task_timeout_s
        self._process_pool = None
        self._process_workspace: Optional[str] = None
        self.worker_slots = worker_slots
        self.max_pending = max_pending
        self.default_timeout_s = default_timeout_s
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_capacity) if cache_capacity else None
        )
        self.plan_cache: Optional[ResultCache] = (
            ResultCache(plan_cache_capacity) if plan_cache_capacity else None
        )
        self._parse_cache: Optional[ResultCache] = (
            ResultCache(plan_cache_capacity) if plan_cache_capacity else None
        )
        self.metrics = ServingMetrics()
        self._slots = threading.Semaphore(worker_slots)
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._engines = {}
        self._engine_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # engines (one per reasoning mode, plans cached across requests)
    # ------------------------------------------------------------------ #

    def _engine(self, reasoning: bool) -> QueryEngine:
        engine = self._engines.get(reasoning)
        if engine is None:
            with self._engine_lock:
                engine = self._engines.get(reasoning)
                if engine is None:
                    if self.backend == "process":
                        engine = self._process_engine(reasoning)
                    elif self.backend == "threads":
                        from repro.query.parallel import ParallelQueryEngine

                        engine = ParallelQueryEngine(self.store, reasoning=reasoning)
                    else:
                        engine = QueryEngine(self.store, reasoning=reasoning)
                    self._engines[reasoning] = engine
        return engine

    def _process_engine(self, reasoning: bool) -> QueryEngine:
        """A process-backed engine over the service-wide shared worker pool.

        Both reasoning modes share one :class:`~repro.query.multiproc.
        WorkerPool` (tasks carry their own attach spec, so one pool serves
        any number of engines) and one workspace directory for published
        images and worker log files.  Called under ``_engine_lock``.
        """
        from repro.query.multiproc import ProcessPoolQueryEngine, WorkerPool

        if self._process_pool is None:
            self._process_pool = WorkerPool(
                max_workers=self.process_workers,
                mp_context=self.mp_context,
                task_timeout=self.task_timeout_s,
            )
        if self._process_workspace is None:
            self._process_workspace = tempfile.mkdtemp(prefix="succinctedge-serve-")
        return ProcessPoolQueryEngine(
            self.store,
            reasoning=reasoning,
            pool=self._process_pool,
            workspace=self._process_workspace,
        )

    def close(self) -> None:
        """Release engine resources (thread pools, worker processes)."""
        with self._engine_lock:
            engines, self._engines = dict(self._engines), {}
            pool, self._process_pool = self._process_pool, None
            workspace, self._process_workspace = self._process_workspace, None
        for engine in engines.values():
            close = getattr(engine, "close", None)
            if close is not None:
                close()
        if pool is not None:
            pool.close()
        if workspace is not None:
            shutil.rmtree(workspace, ignore_errors=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def execute(
        self,
        query: str,
        reasoning: Optional[bool] = None,
        timeout_s: Optional[float] = None,
        deliver=None,
    ) -> QueryOutcome:
        """Serve one SPARQL query through admission, cache and deadline.

        ``deliver``, when given, is called with the outcome *while the worker
        slot is still held*: response serialization and transmission are part
        of the worker's unit of work, exactly as in a pre-threaded server
        whose worker writes the response socket itself.  (This is what makes
        ``worker_slots`` the true concurrency bound — and what a worker pool
        overlaps when clients sit behind a slow link.)

        Raises :class:`QueryRejected` under overload, :class:`QueryTimeout`
        past the deadline, and propagates
        :class:`~repro.sparql.parser.SparqlParseError` for invalid queries.
        """
        use_reasoning = self.reasoning if reasoning is None else reasoning
        timeout = self.default_timeout_s if timeout_s is None else timeout_s
        # The deadline clock covers the whole stay in the service — queue
        # wait included — so a timed-out request cannot sit behind a deep
        # queue and still run its full query afterwards.
        started = time.perf_counter()
        with self._admission(timeout):
            outcome = self._execute_admitted(query, use_reasoning, started, timeout)
            if deliver is not None:
                deliver(outcome)
            return outcome

    @contextmanager
    def _admission(self, timeout: Optional[float]):
        """Admission control shared by :meth:`execute` and :meth:`explain`.

        Enforces the pending bound (fast :class:`QueryRejected` under
        overload) and holds one worker slot for the duration of the body.
        """
        with self._pending_lock:
            if self._pending >= self.max_pending + self.worker_slots:
                self.metrics.record_rejection()
                raise QueryRejected(
                    f"server saturated: {self.worker_slots} workers busy and "
                    f"{self.max_pending} requests already queued"
                )
            self._pending += 1
        try:
            if timeout is None:
                self._slots.acquire()
            elif not self._slots.acquire(timeout=timeout):
                self.metrics.record_queue_timeout()
                raise QueryTimeout(
                    f"no worker slot freed within the {timeout:.3f}s deadline"
                )
            try:
                yield
            finally:
                self._slots.release()
        finally:
            with self._pending_lock:
                self._pending -= 1

    def _execute_admitted(
        self, query: str, reasoning: bool, started: float, timeout: Optional[float]
    ) -> QueryOutcome:
        self.metrics.record_admission()
        # The epoch is sampled at admission; one more write arriving during
        # execution keys the *next* request differently, so entries at the
        # current epoch are never stale.
        epoch = self.store.snapshot_epoch
        key = (query, reasoning, epoch)
        if self.cache is not None:
            hit, value = self.cache.get(key)
            if hit:
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                self.metrics.record_completion(elapsed_ms, cached=True)
                return QueryOutcome(
                    result=value, cached=True, elapsed_ms=elapsed_ms, epoch=epoch
                )
        try:
            result = self._run(query, reasoning, started, timeout)
        except QueryTimeout:
            self.metrics.record_timeout()
            raise
        except Exception:
            self.metrics.record_error()
            raise
        if self.cache is not None:
            self.cache.put(key, result)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.metrics.record_completion(elapsed_ms, cached=False)
        return QueryOutcome(result=result, cached=False, elapsed_ms=elapsed_ms, epoch=epoch)

    # ------------------------------------------------------------------ #
    # parse cache, plan cache + explain
    # ------------------------------------------------------------------ #

    def _parsed(self, query: str):
        """The (cached) parsed AST of ``query``.

        Keyed on the text alone — ASTs are immutable and independent of
        both reasoning mode and data epoch, so parse work survives writes.
        Parse errors propagate and are never cached.
        """
        if self._parse_cache is not None:
            hit, parsed = self._parse_cache.get(query)
            if hit:
                return parsed
        parsed = parse_query(query)
        if self._parse_cache is not None:
            self._parse_cache.put(query, parsed)
        return parsed

    def explain(
        self,
        query: str,
        reasoning: Optional[bool] = None,
        timeout_s: Optional[float] = None,
    ) -> dict:
        """The execution plan of ``query`` without running it.

        Returns the rendered plan (the exact IR the engine would
        interpret), the planner that produced the BGP order and the current
        epoch, served from the epoch-keyed plan cache.  Planning probes the
        SDS structures, so the call runs under the same admission control
        as :meth:`execute` — it can raise :class:`QueryRejected` and
        :class:`QueryTimeout` besides propagating
        :class:`~repro.sparql.parser.SparqlParseError`.
        """
        use_reasoning = self.reasoning if reasoning is None else reasoning
        timeout = self.default_timeout_s if timeout_s is None else timeout_s
        key = (query, use_reasoning, self.store.data_epoch)
        if self.plan_cache is not None:
            hit, plan = self.plan_cache.get(key)
            if hit:
                return self._explain_document(plan)
        with self._admission(timeout):
            plan = self._engine(use_reasoning).pipeline_plan(self._parsed(query))
        if self.plan_cache is not None:
            self.plan_cache.put(key, plan)
        return self._explain_document(plan)

    def _explain_document(self, plan) -> dict:
        return {
            "plan": plan.explain(),
            "planner": plan.where.method,
            "epoch": list(self.store.snapshot_epoch),
        }

    def _run(
        self, query: str, reasoning: bool, started: float, timeout: Optional[float]
    ) -> Union[ResultSet, AskResult]:
        engine = self._engine(reasoning)
        # Engines backed by worker processes publish which failures are safe
        # to retry (a crashed worker fails the whole attempt before any row
        # is surfaced — results materialize, so a retry can never duplicate
        # or drop rows).  The pool is healed between attempts.
        retryable = tuple(getattr(engine, "retryable_exceptions", ()))
        attempts = 2 if retryable else 1
        for attempt in range(attempts):
            try:
                return self._run_once(engine, query, reasoning, started, timeout)
            except retryable:  # an empty tuple here matches nothing
                if attempt + 1 >= attempts:
                    raise
                heal = getattr(engine, "heal", None)
                if heal is not None:
                    heal()
                self._check_deadline(started, timeout)
        raise AssertionError("unreachable")

    def _run_once(
        self,
        engine: QueryEngine,
        query: str,
        reasoning: bool,
        started: float,
        timeout: Optional[float],
    ) -> Union[ResultSet, AskResult]:
        parsed = self._parsed(query)
        if isinstance(parsed, AskQuery):
            # ASK stops at the first solution; a deadline check after the
            # fact covers the (rare) long empty probe.
            result: Union[ResultSet, AskResult] = engine.ask(parsed)
            self._check_deadline(started, timeout)
            return result
        assert isinstance(parsed, SelectQuery)
        names = parsed.projected_names()
        batches = []
        for batch in engine.stream(parsed):
            batches.append(batch)
            self._check_deadline(started, timeout)
        self._check_deadline(started, timeout)
        return ResultSet(names, batches=batches)

    def _check_deadline(self, started: float, timeout: Optional[float]) -> None:
        if timeout is not None and (time.perf_counter() - started) > timeout:
            raise QueryTimeout(f"query exceeded its {timeout:.3f}s deadline")

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def rotate_image(self, image_path: str, timeout_s: Optional[float] = None):
        """Compact the store into a fresh mmap image with a graceful drain.

        Acquires every worker slot (waiting for in-flight queries to finish
        and keeping new ones queued), runs
        ``store.compact(image_path=..., remap=True)`` so the live store
        swaps onto the new on-disk image; worker processes re-attach to the
        new generation on their next task (every unit names its generation).
        Queries admitted after the rotation see the compacted store; none
        observe a half-swapped state.

        Raises :class:`QueryTimeout` if in-flight queries do not drain
        within ``timeout_s`` and :class:`ValueError` if the store cannot
        compact to an image.
        """
        compact = getattr(self.store, "compact", None)
        if compact is None:
            raise ValueError("store does not support compaction")
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        acquired = 0
        try:
            for _ in range(self.worker_slots):
                if deadline is None:
                    self._slots.acquire()
                else:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or not self._slots.acquire(timeout=remaining):
                        raise QueryTimeout(
                            f"in-flight queries did not drain within {timeout_s:.3f}s"
                        )
                acquired += 1
            return compact(image_path=str(image_path), remap=True)
        finally:
            for _ in range(acquired):
                self._slots.release()

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Serving metrics, cache counters and store epochs in one snapshot."""
        info = {
            "metrics": self.metrics.snapshot(),
            "cache": self.cache.info() if self.cache is not None else None,
            "plan_cache": self.plan_cache.info() if self.plan_cache is not None else None,
            "parse_cache": (
                self._parse_cache.info() if self._parse_cache is not None else None
            ),
            "store": {
                "triples": self.store.triple_count,
                "compaction_epoch": self.store.compaction_epoch,
                "data_epoch": self.store.data_epoch,
                "shards": getattr(self.store, "shard_count", 1),
            },
            "worker_slots": self.worker_slots,
            "max_pending": self.max_pending,
            "backend": self.backend,
            "pool": self._process_pool.info() if self._process_pool is not None else None,
        }
        return info

    def __repr__(self) -> str:
        return (
            f"QueryService({self.worker_slots} workers, "
            f"cache={'off' if self.cache is None else self.cache.capacity}, "
            f"store={self.store!r})"
        )
