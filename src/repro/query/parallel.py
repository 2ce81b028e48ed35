"""Scatter execution: one work-unit scatter path, three transports.

:class:`ParallelExecutor` is a drop-in replacement for
:class:`~repro.query.tp_eval.TriplePatternEvaluator` (same ``evaluate`` /
``evaluate_many`` / ``expand_frontier`` / ``estimate_cardinality`` surface,
so the streaming operators of :mod:`repro.query.operators` consume it
unchanged) that splits evaluation into the work units of
:mod:`repro.query.units` and gathers their replies in order.  It moves the
engine's own batches (Graefe's exchange operator): parallelism runs whole
batches through the one bind-join step, it adds no second one.

* **bind joins** — ``evaluate_many`` makes each upstream
  :class:`~repro.sparql.bindings.Batch` one ``eval_many`` unit, which runs
  :meth:`TriplePatternEvaluator.evaluate_many
  <repro.query.tp_eval.TriplePatternEvaluator.evaluate_many>` on it against
  the whole store (the sharded views route each probe).  At most
  :attr:`ParallelExecutor.window` units are in flight, and their batches
  are yielded strictly in upstream order, so ``LIMIT``/``ASK`` early
  termination survives up to one window of read-ahead;
* **leaf scatter** — a group's seed (the one empty row) against a
  :class:`~repro.store.sharding.ShardedStore`, under a pattern with a
  constant predicate and an unbound subject, becomes one unit per
  ``(candidate property × shard)``; replies are emitted property-major,
  object layout before datatype layout, shard-minor, which reproduces the
  monolithic evaluation order row for row;
* **shard pruning** — a seed under a bound subject is evaluated locally:
  the store's subject-interval partitioner resolves it to one shard.
  Scatters skip shards whose per-shard counts
  (:meth:`~repro.store.sharding.ShardedStore.shard_property_cardinalities`)
  say they hold nothing for the probed property;
* **path rounds** — ``expand_frontier`` sends one property-path BFS round as
  one ``expand`` unit per shard holding a candidate property (one
  whole-store unit on a monolithic store) and unions the replies.

Those decisions live here only.  A transport is two hooks —
:meth:`ParallelExecutor._submit` a unit, :meth:`ParallelExecutor._await`
its reply — plus :meth:`ParallelExecutor._session`, the per-scatter state
sampled on the calling thread.  This class runs units on a thread pool,
in-process; :class:`~repro.query.multiproc.ProcessExecutor` ships them to
worker processes that map the store image, and
:class:`~repro.serve.cluster.ClusterExecutor` to HTTP replicas pinned at one
replicated position.  The three ``*QueryEngine`` classes share
:class:`ParallelQueryEngine`'s retry, heal and close path and differ only in
the executor they build.

Honest scaling note: CPython's GIL serialises the pure-Python kernels, so
threads do not reduce wall-clock latency; on this repository's 2-core
benchmark host none of the three transports beats the sequential engine
(``docs/performance.md``).  The serving layer (:mod:`repro.serve`) gets its
concurrency from overlapping whole requests instead.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import chain, islice
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.caching import LruCache
from repro.query.engine import QueryEngine
from repro.query.paths import merge_expansions
from repro.query.tp_eval import TriplePatternEvaluator
from repro.query.units import execute_unit
from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import Literal, URI
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.bindings import Batch, Binding, grow, rows
from repro.store.succinct_edge import SuccinctEdge


class ParallelExecutor:
    """Work-unit scatter with the TriplePatternEvaluator interface.

    Parameters
    ----------
    store:
        The store to evaluate against; a
        :class:`~repro.store.sharding.ShardedStore` additionally enables
        per-shard leaf scatter.
    reasoning:
        Passed through to the wrapped evaluator and to every unit.
    inner:
        An existing :class:`TriplePatternEvaluator` to wrap (one is created
        when omitted); it answers the local, unscattered evaluations.
    max_workers:
        Thread-pool size; defaults to the shard count (at least 2).
    """

    def __init__(
        self,
        store: SuccinctEdge,
        reasoning: bool = True,
        inner: Optional[TriplePatternEvaluator] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self.store = store
        self.reasoning = reasoning
        self.inner = (
            inner
            if inner is not None
            else TriplePatternEvaluator(store, reasoning=reasoning)
        )
        shard_list = getattr(store, "shards", None)
        self.shards: List[SuccinctEdge] = list(shard_list) if shard_list else [store]
        self.max_workers = max_workers if max_workers else max(2, len(self.shards))
        #: In-flight bind-join units beyond the one being consumed.
        self.window = self.max_workers + 1
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        # Per-shard counts (keyed on the store epoch) let leaf scatters skip
        # shards that hold no triples for the probed property.
        self._shard_count_cache = LruCache(512)

    # ------------------------------------------------------------------ #
    # pool lifecycle
    # ------------------------------------------------------------------ #

    def _ensure_pool(self) -> ThreadPoolExecutor:
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = ThreadPoolExecutor(
                        max_workers=self.max_workers,
                        thread_name_prefix="succinctedge-query",
                    )
                    self._pool = pool
        return pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a later call re-creates it)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the transport: units run in-process on the thread pool
    # ------------------------------------------------------------------ #

    def _session(self):
        """Transport state shared by the units of one scatter.

        Sampled on the calling thread before any unit is submitted (the
        process transport returns its attach spec, the cluster its pinned
        position); threads need none.
        """
        return None

    def _submit(self, session, op: str, args):
        """Start one work unit; returns a ticket for :meth:`_await`."""
        return self._ensure_pool().submit(execute_unit, self.store, op, args, self.reasoning)

    def _await(self, ticket):
        """The reply of one submitted unit, as :func:`execute_unit` returns it."""
        return ticket.result()

    # ------------------------------------------------------------------ #
    # TriplePatternEvaluator interface
    # ------------------------------------------------------------------ #

    def estimate_cardinality(self, pattern: TriplePattern) -> int:
        """Delegated to the wrapped evaluator (sharded views sum exactly)."""
        return self.inner.estimate_cardinality(pattern)

    def expand_frontier(self, forward_pids, inverse_pids, frontier_ids, frontier_literals):
        """One property-path BFS round as ``expand`` units.

        Each shard expands the *whole* frontier against its local triples
        (frontier ids are global dictionary ids, so no routing is needed);
        the sorted distinct union of the per-shard one-step results equals
        the monolithic expansion.  Shards holding none of the candidate
        properties are pruned; a monolithic store gets one whole-store unit.
        """
        if len(self.shards) < 2:
            indexes: List[Optional[int]] = [None]
        else:
            indexes = sorted(
                {
                    index
                    for property_id in (*forward_pids, *inverse_pids)
                    for index in self._shards_holding(self._property_shard_counts(property_id))
                }
            )
            if not indexes:
                return [], []
        session = self._session()
        args = (tuple(forward_pids), tuple(inverse_pids), tuple(frontier_ids), tuple(frontier_literals))
        tickets = [self._submit(session, "expand", args + (index,)) for index in indexes]
        return merge_expansions(self._await(ticket) for ticket in tickets)

    def evaluate(self, pattern: TriplePattern, binding: Binding) -> Iterator[Binding]:
        """The bindings extending ``binding`` that satisfy ``pattern``: the
        one-row case of :meth:`evaluate_many`."""
        return rows(self.evaluate_many(pattern, [Batch(binding.layout, [binding.row])]))

    def evaluate_many(
        self, pattern: TriplePattern, upstream: Iterable[Batch], wanted: Optional[int] = None, probes=None
    ) -> Iterator[Batch]:
        """The ordered bind-propagation join of ``upstream`` with ``pattern``.

        Each upstream batch is one ``eval_many`` unit, except a group's seed
        (:meth:`_seed`).  At most :attr:`window` units run ahead of the one
        whose extensions are being yielded, strictly in upstream order, so
        the rows are the sequential evaluator's.  They leave in batches of
        one row, then four, sixteen ... over the whole stream, as one
        sequential step cuts them, none longer than what is left of
        ``wanted``; each unit carries what is left of it when it is sent,
        and stops there.  ``probes`` is not used: each unit runs its step
        with a fresh :class:`~repro.query.tp_eval.StepProbes`.
        """
        session = self._session()
        pending = deque()  # in-flight tickets, in upstream order
        size, left = 1, wanted

        def emit(extensions: Iterable[Batch]) -> Iterator[Batch]:
            """One upstream batch's extensions (one layout), cut afresh."""
            nonlocal size, left
            pieces = iter(extensions)
            first = next(pieces, None)
            if first is None:
                return
            found = chain(first.rows, chain.from_iterable(piece.rows for piece in pieces))
            while True:
                cut = list(islice(found, size if left is None else max(1, min(size, left))))
                if not cut:
                    return
                yield Batch(first.layout, cut)
                size = grow(size)
                if left is not None:
                    left -= len(cut)

        for batch in upstream:
            seeded = self._seed(pattern, batch, left)
            if seeded is None:
                unit_wanted = None if left is None else max(left, 1)
                pending.append(self._submit(session, "eval_many", (pattern, batch, unit_wanted)))
                while len(pending) > self.window:
                    yield from emit(self._await(pending.popleft()))
                continue
            while pending:
                yield from emit(self._await(pending.popleft()))
            yield from emit(seeded)
        while pending:
            yield from emit(self._await(pending.popleft()))

    def _seed(self, pattern: TriplePattern, batch: Batch, wanted: Optional[int]) -> Optional[Iterator[Batch]]:
        """The extensions of a group's seed (one empty row) that need no
        ``eval_many`` unit: a leaf scatter, or a local evaluation when the
        subject is constant (its owning shard answers alone).  ``None`` for
        any other batch, and on a monolithic store."""
        if batch.layout.names or len(batch.rows) != 1 or len(self.shards) < 2:
            return None
        if not isinstance(pattern.subject, Variable):
            return self.inner.evaluate_many(pattern, [batch], wanted)
        found = self._try_scatter(pattern)
        if found is None:
            return None
        layout = batch.layout.owned(self.store.instances)
        for slot in (pattern.subject, pattern.object):
            if isinstance(slot, Variable) and slot.name not in layout.columns:
                layout = layout.child(slot.name)
        return (Batch(layout, rows) for rows in found)

    # ------------------------------------------------------------------ #
    # per-shard cardinalities (scatter pruning)
    # ------------------------------------------------------------------ #

    def _cached_counts(self, key, compute) -> Optional[List[int]]:
        hit, counts = self._shard_count_cache.get(key)
        if not hit:
            counts = compute()
            self._shard_count_cache.put(key, counts)
        return counts

    def _property_shard_counts(self, property_id: int) -> Optional[List[int]]:
        """Per-shard triple counts for a property (``None`` off sharded stores)."""
        counts_fn = getattr(self.store, "shard_property_cardinalities", None)
        if counts_fn is None:
            return None
        key = ("p", property_id, getattr(self.store, "snapshot_epoch", None))
        return self._cached_counts(key, lambda: counts_fn(property_id))

    def _concept_shard_counts(self, low: int, high: int) -> Optional[List[int]]:
        """Per-shard ``rdf:type`` counts for a concept interval."""
        counts_fn = getattr(self.store, "shard_concept_cardinalities", None)
        if counts_fn is None:
            return None
        key = ("t", low, high, getattr(self.store, "snapshot_epoch", None))
        return self._cached_counts(key, lambda: counts_fn(low, high))

    def _shards_holding(self, counts: Optional[List[int]]) -> List[int]:
        """Indexes of the shards with a non-zero count, in shard order.

        Skipping empty shards cannot change the emission (they contribute
        nothing) but saves one unit — and one round trip — per
        (property × empty shard).
        """
        if counts is None or len(counts) != len(self.shards):
            return list(range(len(self.shards)))
        return [index for index, count in enumerate(counts) if count]

    # ------------------------------------------------------------------ #
    # leaf scatter-gather
    # ------------------------------------------------------------------ #

    def _try_scatter(self, pattern: TriplePattern) -> Optional[Iterator[List[tuple]]]:
        """The seed's extension rows, a list per per-shard unit, or ``None``
        when fan-out cannot help.

        Fan-out applies only with 2+ shards, a constant predicate and a
        variable subject; a constant subject is *pruned* to its single
        owning shard by the sharded store views instead, and an unbound
        predicate goes to one ``eval_many`` unit.  Rows extend the empty
        seed row with subject and object ids (literals as terms), as
        :class:`~repro.query.tp_eval._Step` extends it.
        """
        if len(self.shards) < 2 or not isinstance(pattern.subject, Variable):
            return None
        predicate = pattern.predicate
        if not isinstance(predicate, URI):
            return None
        if predicate == RDF_TYPE:
            if not isinstance(pattern.object, URI):
                return None
            return self._scatter_rdf_type(pattern.object)
        return self._scatter_property(predicate, pattern.subject, pattern.object)

    def _scatter_rdf_type(self, object_term: URI) -> Iterator[List[tuple]]:
        """``?s rdf:type C``: one ``type_interval``/``type_concept`` unit per shard."""
        store = self.store
        concept_id = store.concepts.try_locate(object_term)
        if concept_id is None:
            return
        if self.reasoning:
            low, high = store.concepts.interval(object_term)
            op, key = "type_interval", (low, high)
        else:
            low, high = concept_id, concept_id + 1
            op, key = "type_concept", (concept_id,)
        session = self._session()
        tickets = [
            self._submit(session, op, key + (index,))
            for index in self._shards_holding(self._concept_shard_counts(low, high))
        ]
        # Shard order == ascending subject-interval order: the gathered
        # concatenation reproduces the monolithic emission order.
        for ticket in tickets:
            yield list(zip(self._await(ticket)))

    def _scatter_property(self, predicate_term: URI, subject: Variable, obj) -> Iterator[List[tuple]]:
        """Constant-predicate leaf: units per (candidate property × shard).

        Emission mirrors
        :meth:`repro.query.tp_eval._Step._property`
        — property-major (ascending candidate identifiers, the LiteMat
        interval order), object layout before datatype layout, shards in
        ascending subject-interval order within each.
        """
        store = self.store
        property_ids = self.inner._candidate_property_ids(predicate_term)
        if not property_ids:
            return

        if not isinstance(obj, Variable):
            # (?s, p, o): Algorithm 4 fanned per shard.
            if isinstance(obj, Literal):
                op = "subjects_lit"
            elif store.instances.try_locate(obj) is None:
                return
            else:
                op = "subjects_obj"
            session = self._session()
            tickets = [
                self._submit(session, op, (property_id, obj, index))
                for property_id in property_ids
                for index in self._shards_holding(self._property_shard_counts(property_id))
            ]
            for ticket in tickets:
                yield list(zip(self._await(ticket)))
            return

        # (?s, p, ?o): one "pairs" unit per (property × holding shard),
        # scheduled one property ahead of consumption (not all up front): a
        # consumer that stops early — the LIMIT-paginated scans of the
        # serving mix — never pays for the property runs it never pulls,
        # while the units of the current and next property still overlap.
        session = self._session()
        diagonal = subject.name == obj.name

        def schedule(property_id: int):
            return [
                self._submit(session, "pairs", (property_id, index))
                for index in self._shards_holding(self._property_shard_counts(property_id))
            ]

        window = []  # at most 2 scheduled properties: current + next
        position = 0
        while position < len(property_ids) or window:
            while position < len(property_ids) and len(window) < 2:
                window.append(schedule(property_ids[position]))
                position += 1
            replies = [self._await(ticket) for ticket in window.pop(0)]
            for object_pairs, _ in replies:
                if diagonal:  # a subject never equals a literal
                    yield [(found,) for found, found_object in object_pairs if found == found_object]
                else:
                    yield object_pairs
            if not diagonal:
                for _, datatype_pairs in replies:
                    yield datatype_pairs


def gil_enabled() -> bool:
    """Whether this interpreter runs with the GIL (True on stock CPython).

    CPython 3.13's free-threaded builds (``3.13t``) expose
    ``sys._is_gil_enabled``; on every other interpreter the GIL is on.
    """
    probe = getattr(sys, "_is_gil_enabled", None)
    return True if probe is None else bool(probe())


def select_backend(requested: str = "auto") -> str:
    """Resolve an execution backend name to a concrete one.

    ``auto`` picks threads on a free-threaded interpreter (real parallelism
    without process overhead), processes on a multi-core GIL build (the only
    way to scale compute there), and threads on a single core (I/O overlap
    is all there is to win).  ``free-threaded`` is an explicit assertion and
    fails loudly on a GIL build instead of silently degrading.
    """
    if requested == "auto":
        if not gil_enabled():
            return "threads"
        return "process" if (os.cpu_count() or 1) > 1 else "threads"
    if requested == "free-threaded":
        if gil_enabled():
            raise ValueError(
                "the free-threaded backend needs a GIL-free interpreter (CPython 3.13t); "
                "this build has the GIL — use 'threads', 'process' or 'auto'"
            )
        return "threads"
    if requested in ("sequential", "threads", "process"):
        return requested
    raise ValueError(
        f"unknown execution backend {requested!r}; "
        "expected auto | sequential | threads | process | free-threaded"
    )


class ParallelQueryEngine(QueryEngine):
    """A :class:`QueryEngine` whose evaluator scatters work units.

    Byte-identical results to the sequential engine by construction (same
    plans — the optimizer keeps its runtime estimator bound to the
    sequential evaluator — and the same emission order); the differential
    suites verify it on the full paper workload.  This class runs units on
    threads; the process and cluster engines subclass it and override only
    :meth:`_executor` (plus :meth:`heal`, and the cluster's per-attempt pin).

    ``execute``/``ask`` retry up to :attr:`retries` times after a
    :attr:`retryable_exceptions` failure, calling :meth:`heal` in between —
    engines materialize rows, so a failed attempt surfaces none.  The
    streaming path cannot retry (rows may already be consumed); the serving
    layer re-runs whole queries instead.  ``close()`` releases the executor.
    """

    #: Failures a fresh attempt can cure (the serving layer reads this too).
    retryable_exceptions: Tuple[type, ...] = ()
    #: Fresh attempts after the first one fails.
    retries = 0

    def __init__(
        self,
        store: SuccinctEdge,
        reasoning: bool = True,
        max_workers: Optional[int] = None,
    ) -> None:
        super().__init__(store, reasoning=reasoning)
        self.evaluator = self._executor(reasoning=reasoning, inner=self.evaluator, max_workers=max_workers)

    def _executor(self, **shared) -> ParallelExecutor:
        """The executor this engine drives — what the three engines differ in."""
        return ParallelExecutor(self.store, **shared)

    def heal(self) -> None:
        """Repair the transport between attempts (threads need nothing)."""

    @contextmanager
    def _attempt(self):
        """The scope of one attempt (the cluster pins a position here)."""
        yield

    def _retrying(self, call, query):
        for attempt in range(self.retries + 1):
            try:
                with self._attempt():
                    return call(query)
            except self.retryable_exceptions:
                if attempt >= self.retries:
                    raise
                self.heal()
        raise AssertionError("unreachable")

    def execute(self, query):
        """Execute, with a fresh attempt after a retryable failure."""
        return self._retrying(super().execute, query)

    def ask(self, query):
        """ASK, with a fresh attempt after a retryable failure."""
        return self._retrying(super().ask, query)

    def stream(self, query):
        """Stream rows, the whole iteration inside one attempt (no retry)."""

        def generate():
            with self._attempt():
                yield from super(ParallelQueryEngine, self).stream(query)

        return generate()

    def close(self) -> None:
        """Release the executor's transport (threads, workers, worker log files)."""
        self.evaluator.close()

    def __enter__(self) -> "ParallelQueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
