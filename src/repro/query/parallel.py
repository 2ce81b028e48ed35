"""Scatter execution: one work-unit scatter path, three transports.

:class:`ParallelExecutor` is a drop-in replacement for
:class:`~repro.query.tp_eval.TriplePatternEvaluator` (same ``evaluate`` /
``evaluate_many`` / ``expand_frontier`` / ``estimate_cardinality`` surface,
so the streaming operators of :mod:`repro.query.operators` consume it
unchanged) that splits evaluation into the work units of
:mod:`repro.query.units` and gathers their replies in order:

* **leaf scatter** — a leaf pattern with a constant predicate and an unbound
  subject against a :class:`~repro.store.sharding.ShardedStore` becomes one
  unit per ``(candidate property × shard)``; replies are emitted
  property-major, object layout before datatype layout, shard-minor, which
  reproduces the monolithic evaluation order byte for byte;
* **shard pruning** — a bound subject resolves to exactly one shard through
  the store's subject-interval partitioner, so it is evaluated locally
  without fan-out, and scatters skip shards whose per-shard counts
  (:meth:`~repro.store.sharding.ShardedStore.shard_property_cardinalities`)
  say they hold nothing for the probed property;
* **batched bind joins** — ``evaluate_many`` takes the engine's row
  batches, regroups their rows into ``eval_many`` units (sized from the
  cardinality statistics so each unit yields about the same number of
  rows) with a bounded in-flight window, and cuts the extensions back into
  batches strictly in upstream order, so ``LIMIT``/``ASK`` early
  termination survives up to one window of read-ahead;
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
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.caching import LruCache
from repro.query.cardinality import CardinalityEstimator
from repro.query.engine import QueryEngine
from repro.query.paths import merge_expansions
from repro.query.tp_eval import TriplePatternEvaluator
from repro.query.units import execute_unit
from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import Literal, URI
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.bindings import Batch, Binding, batches, rows
from repro.store.succinct_edge import SuccinctEdge

#: Default number of upstream bindings grouped into one bind-join unit.
DEFAULT_BATCH_SIZE = 64

#: Rows one bind-join unit should produce under the adaptive batch sizing
#: (per-shard cardinalities tell us the expected per-binding fan-out).
_TARGET_ROWS_PER_TASK = 256


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
    batch_size:
        Upstream bindings per bind-join unit (an upper bound).
    """

    def __init__(
        self,
        store: SuccinctEdge,
        reasoning: bool = True,
        inner: Optional[TriplePatternEvaluator] = None,
        max_workers: Optional[int] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
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
        self.batch_size = max(1, batch_size)
        #: In-flight bind-join units beyond the one being consumed.
        self.window = self.max_workers + 1
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        # Per-shard cardinality plumbing: the estimator sizes bind-join
        # batches from the expected per-binding fan-out, and the count cache
        # (keyed on the store epoch) lets leaf scatters skip shards that
        # hold no triples for the probed property.
        statistics = getattr(store, "statistics", None)
        self._cardinality = CardinalityEstimator(statistics, reasoning=reasoning)
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
        """One pattern evaluation; leaf patterns scatter across shards."""
        scattered = self._try_scatter(pattern, binding)
        if scattered is not None:
            return scattered
        return self.inner.evaluate(pattern, binding)

    def evaluate_all(self, pattern: TriplePattern) -> List[Binding]:
        """Evaluate with no initial binding (convenience, mirrors tp_eval)."""
        return list(self.evaluate(pattern, Binding()))

    def evaluate_many(
        self, pattern: TriplePattern, upstream: Iterable[Batch], wanted: Optional[int] = None, probes=None
    ) -> Iterator[Batch]:
        """Batched, ordered bind-propagation join over ``eval_many`` units.

        Units carry terms by value, so the rows become bindings here; the
        extensions are cut back into batches in upstream order.  ``wanted``
        is not used: the in-flight window reads ahead of any ``LIMIT``; nor
        is ``probes``: units hold no run buckets.
        """
        return batches(self._bind_join(pattern, rows(upstream)))

    def _bind_join(self, pattern: TriplePattern, bindings: Iterable[Binding]) -> Iterator[Binding]:
        """The extensions of ``bindings``, gathered from ``eval_many`` units.

        Upstream bindings are pulled at most ``window × batch_size`` ahead
        of the consumer; results stream strictly in upstream order, so the
        emission is byte-identical to the sequential evaluator's.
        """
        session = self._session()
        batch_size = self._sized_batch(pattern)
        pending = []  # ordered in-flight tickets
        chunk: List[Binding] = []
        for binding in bindings:
            scattered = self._try_scatter(pattern, binding)
            if scattered is not None:
                # Keep emission order: drain everything queued before the
                # scatterable binding, then fan it out across shards.
                if chunk:
                    pending.append(self._submit(session, "eval_many", (pattern, tuple(chunk))))
                    chunk = []
                while pending:
                    yield from self._await(pending.pop(0))
                yield from scattered
                continue
            chunk.append(binding)
            if len(chunk) >= batch_size:
                pending.append(self._submit(session, "eval_many", (pattern, tuple(chunk))))
                chunk = []
                while len(pending) > self.window:
                    yield from self._await(pending.pop(0))
        if chunk:
            pending.append(self._submit(session, "eval_many", (pattern, tuple(chunk))))
        while pending:
            yield from self._await(pending.pop(0))

    def _sized_batch(self, pattern: TriplePattern) -> int:
        """Batch size for one bind join, targeting a fixed rows-per-unit.

        Sizes batches so one unit produces about
        :data:`_TARGET_ROWS_PER_TASK` rows — high-fan-out patterns get
        smaller batches so units stay balanced across the pool and
        read-ahead stays bounded — never exceeding the configured batch
        size and never dropping below 8.  Falls back to the static size
        when the statistics cannot estimate the pattern.
        """
        if self._cardinality.statistics is None:
            return self.batch_size
        if isinstance(pattern.predicate, Variable):
            return self.batch_size
        estimate = self._cardinality.estimate_pattern(pattern)
        if estimate.rows <= 0:
            return self.batch_size
        # The upstream bindings may fix either *variable* slot (subject for
        # SS joins, object for SO/OO), so size against the worst-case
        # fan-out — rows per distinct value of the smaller-distinct variable
        # side.  Constant slots carry no distinct statistic (the estimate
        # already divided their selectivity out), so they never shrink the
        # batch: a (?s a C) type check keeps the full batch, as it should.
        candidates = []
        if isinstance(pattern.subject, Variable):
            candidates.append(max(1.0, estimate.subject_distinct))
        if isinstance(pattern.object, Variable):
            candidates.append(max(1.0, estimate.object_distinct))
        if not candidates:
            return self.batch_size
        fanout = estimate.rows / min(candidates)
        if fanout <= 0:
            return self.batch_size
        proposed = int(_TARGET_ROWS_PER_TASK / fanout)
        if proposed >= self.batch_size:
            return self.batch_size
        return max(8, proposed)

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

    def _try_scatter(
        self, pattern: TriplePattern, binding: Binding
    ) -> Optional[Iterator[Binding]]:
        """A lazy scatter-gather stream, or ``None`` when fan-out cannot help.

        Fan-out applies only with 2+ shards, a constant predicate and an
        unbound subject; a bound subject is instead *pruned* to its single
        owning shard by the sharded store views (no fan-out needed), and an
        unbound predicate falls back to the sequential evaluator.
        """
        if len(self.shards) < 2:
            return None
        resolve = TriplePatternEvaluator._resolve
        subject_term, subject_var = resolve(pattern.subject, binding)
        if subject_term is not None:
            return None  # pruning case: the owning shard answers alone
        predicate_term, _ = resolve(pattern.predicate, binding)
        if predicate_term is None or not isinstance(predicate_term, URI):
            return None
        object_slot = resolve(pattern.object, binding)
        if predicate_term == RDF_TYPE:
            object_term, _ = object_slot
            if object_term is None or not isinstance(object_term, URI):
                return None
            return self._scatter_rdf_type(subject_var, object_term, binding)
        return self._scatter_property(predicate_term, subject_var, object_slot, binding)

    def _scatter_rdf_type(
        self, subject_var: str, object_term: URI, binding: Binding
    ) -> Iterator[Binding]:
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
        extract = store.instances.extract
        extend = binding.extended
        # Shard order == ascending subject-interval order: the gathered
        # concatenation reproduces the monolithic emission order.
        for ticket in tickets:
            for subject_id in self._await(ticket):
                yield extend(subject_var, extract(subject_id))

    def _scatter_property(
        self,
        predicate_term: URI,
        subject_var: str,
        object_slot,
        binding: Binding,
    ) -> Iterator[Binding]:
        """Constant-predicate leaf: units per (candidate property × shard).

        Emission mirrors
        :meth:`repro.query.tp_eval._Step._property`
        — property-major (ascending candidate identifiers, the LiteMat
        interval order), object layout before datatype layout, shards in
        ascending subject-interval order within each.
        """
        object_term, object_var = object_slot
        store = self.store
        property_ids = self.inner._candidate_property_ids(predicate_term)
        if not property_ids:
            return
        extract = store.instances.extract
        extend = binding.extended

        if object_term is not None:
            # (?s, p, o): Algorithm 4 fanned per shard.
            if isinstance(object_term, Literal):
                op = "subjects_lit"
            elif store.instances.try_locate(object_term) is None:
                return
            else:
                op = "subjects_obj"
            session = self._session()
            tickets = [
                self._submit(session, op, (property_id, object_term, index))
                for property_id in property_ids
                for index in self._shards_holding(self._property_shard_counts(property_id))
            ]
            for ticket in tickets:
                for found_subject in self._await(ticket):
                    yield extend(subject_var, extract(found_subject))
            return

        # (?s, p, ?o): one "pairs" unit per (property × holding shard),
        # scheduled one property ahead of consumption (not all up front): a
        # consumer that stops early — the LIMIT-paginated scans of the
        # serving mix — never pays for the property runs it never pulls,
        # while the units of the current and next property still overlap.
        session = self._session()
        diagonal = subject_var == object_var
        base = binding.as_dict()
        adopt = Binding._adopt

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
                for found_subject, found_object in object_pairs:
                    if diagonal:
                        if found_subject == found_object:
                            yield extend(subject_var, extract(found_subject))
                        continue
                    values = dict(base)
                    values[subject_var] = extract(found_subject)
                    values[object_var] = extract(found_object)
                    yield adopt(values)
            for _, datatype_pairs in replies:
                for found_subject, literal in datatype_pairs:
                    if diagonal:
                        continue  # a subject URI never equals a literal
                    values = dict(base)
                    values[subject_var] = extract(found_subject)
                    values[object_var] = literal
                    yield adopt(values)


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
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        super().__init__(store, reasoning=reasoning)
        self.evaluator = self._executor(
            reasoning=reasoning,
            inner=self.evaluator,
            max_workers=max_workers,
            batch_size=batch_size,
        )

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
