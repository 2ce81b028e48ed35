"""The process transport: work units run in worker processes over mapped images.

The GIL keeps threads from buying compute scaling on stock CPython; this
module runs the work units of :mod:`repro.query.units` — the same units the
thread back end runs in-process, emitted by the same scatter path of
:class:`~repro.query.parallel.ParallelExecutor` — on a pool of **worker
processes** that memory-map the store image (N workers share one page
cache, so attaching is near-free and RAM stays O(1) in the worker count).
What is particular to crossing a process boundary lives here:

* **Attachment**: workers are followers of :mod:`repro.store.shipping`.
  Every unit carries a small *attach spec*: the shipment the executor's
  :class:`~repro.store.shipping.Publisher` names (image or shard
  directory, *generation* — a compact-and-swap rotation re-attaches
  workers — and epochs) plus the executor's **worker log file** for that
  generation.  The coordinator appends the write-log operations a spec
  needs to that one append-only file before issuing the spec; a worker
  opens the follower lazily, caches it, and replays the file onward from
  its own offset through the follower's ``insert``/``delete``, which
  assigns identifiers exactly as the coordinator did — so the id-level
  replies of the unit codec mean the same terms on both sides.
* **The pool** (:class:`WorkerPool`): a self-healing
  :class:`~concurrent.futures.ProcessPoolExecutor`.  A worker crash, a
  corrupt image (:class:`~repro.store.persistence.PersistenceError` raised
  inside the unit) or a unit timeout surfaces as a clean exception on the
  coordinator — never a hang, never partial rows (engines materialize rows
  before releasing them); :class:`ProcessPoolQueryEngine` heals the pool
  and retries.  Three transport-only ops ride beside the unit vocabulary:
  ``ping``, ``counters`` and ``sleep`` (the fault harness's unit of known
  duration).
* **Kernel accounting**: each reply carries the worker's kernel-counter
  delta; the coordinator folds it into its own
  :data:`~repro.sds.kernels.KERNEL_COUNTS`, so ``bench.measure.measure_call``
  sees worker-side rank/select work in the existing breakdown.

Fork-safety: the pool defaults to the ``fork`` start method where available
(fast, inherits the warm interpreter); the module-level state that must not
leak through a fork — kernel counters, :class:`~repro.caching.LruCache`
locks and entries — is reset by ``os.register_at_fork`` hooks in
:mod:`repro.sds.kernels` and :mod:`repro.caching`, and the worker
initializer re-zeroes the counters for spawned workers too.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional

import multiprocessing

from repro.query.parallel import ParallelExecutor, ParallelQueryEngine
from repro.query.tp_eval import TriplePatternEvaluator
from repro.query.units import decode_reply, decode_request, encode_reply, encode_request, execute_unit
from repro.sds.kernels import kernel_counters, merge_kernel_counters, reset_kernel_counters
from repro.store.shipping import Publisher, open_follower, prune, replay
from repro.store.succinct_edge import SuccinctEdge


class WorkerPoolError(RuntimeError):
    """A worker task failed terminally (crash, timeout, exhausted pool).

    The coordinator raises this instead of hanging or emitting partial
    rows; the pool restarts itself before the next query.
    """


# --------------------------------------------------------------------------- #
# worker side (module-level so both fork and spawn start methods pickle it)
# --------------------------------------------------------------------------- #


class _WorkerState:
    """One worker's cached follower and how far it has replayed."""

    __slots__ = ("token", "store", "epoch", "offsets")

    def __init__(self, token, store, epoch: int) -> None:
        self.token = token
        self.store = store
        self.epoch = epoch
        self.offsets: Dict[str, int] = {}


_STATE: Optional[_WorkerState] = None


def _worker_initialize() -> None:
    """Per-process initialisation: counters start at zero in every worker."""
    reset_kernel_counters()


def _attach(spec) -> _WorkerState:
    """The (cached) follower described by ``spec``, synced forward.

    Attachment is lazy and per-task so a corrupt or truncated image raises
    a clean :class:`~repro.store.persistence.PersistenceError` through the
    task's future instead of killing the worker at pool start.  Sync is
    forward-only: a task carrying an older epoch than the worker has
    already applied is served with the newer state (reads always see live
    data, exactly like the coordinator's own evaluator).
    """
    global _STATE
    state = _STATE
    token = (spec["root"], tuple(spec["files"]), spec["generation"])
    if state is None or state.token != token:
        store = open_follower(spec["kind"], spec["root"], spec["files"])
        state = _STATE = _WorkerState(token, store, spec["base_epoch"])
    if spec["epoch"] > state.epoch:
        _read_log(state, spec["log"], spec["log_bytes"])
    return state


def _read_log(state: _WorkerState, path: str, end: int) -> None:
    """Replay the ``(first_epoch, operations)`` records of a worker log up to byte ``end``.

    Executors sharing one pool each write their own file for a generation,
    so a worker may meet operations it already replayed from another file;
    it skips them by epoch.
    """
    with open(path, "rb") as handle:
        handle.seek(state.offsets.get(path, 0))
        while handle.tell() < end:
            first, operations = pickle.load(handle)
            replay(state.store, operations[state.epoch - first :])
            state.epoch = max(state.epoch, first + len(operations))
        state.offsets[path] = handle.tell()


def _dispatch(spec, op, args, reasoning):
    if op == "ping":
        return {"pid": os.getpid()}
    if op == "counters":
        return kernel_counters()
    if op == "sleep":  # fault-injection harness: a task of known duration
        time.sleep(args[0])
        return args[0]
    store = _attach(spec).store
    reply = execute_unit(store, op, decode_request(op, args, store.instances), reasoning)
    return encode_reply(op, reply)


def _worker_run(task):
    """Task entry point: dispatch, then report the kernel-call delta."""
    spec, op, args, reasoning = task
    before = kernel_counters()
    payload = _dispatch(spec, op, args, reasoning)
    deltas = {
        name: count - before.get(name, 0)
        for name, count in kernel_counters().items()
        if count - before.get(name, 0)
    }
    return {"payload": payload, "kernels": deltas, "pid": os.getpid()}


# --------------------------------------------------------------------------- #
# coordinator side: the pool wrapper with health, restart and accounting
# --------------------------------------------------------------------------- #


class WorkerPool:
    """A self-healing :class:`ProcessPoolExecutor` for store work units.

    The pool is *generic*: tasks carry their own attach spec, so one pool
    can serve several engines (the serving layer shares one across its
    reasoning modes) and successive stores (the fuzz harness reuses one
    across examples).  A broken pool — worker SIGKILLed, queue corrupted,
    task past ``task_timeout`` — is torn down and lazily recreated on the
    next submit; the failed task surfaces as :class:`WorkerPoolError`.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        mp_context: Optional[str] = None,
        task_timeout: Optional[float] = None,
    ) -> None:
        if max_workers is None:
            max_workers = max(2, min(8, os.cpu_count() or 1))
        if max_workers < 1:
            raise ValueError("worker pool needs at least one process")
        self.max_workers = max_workers
        self.mp_context = mp_context or ("fork" if hasattr(os, "fork") else "spawn")
        self.task_timeout = task_timeout
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self.restarts = 0
        self.tasks_submitted = 0
        self.tasks_failed = 0
        self.worker_kernel_calls = 0

    # -- lifecycle ----------------------------------------------------- #

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context(self.mp_context),
                    initializer=_worker_initialize,
                )
            return self._executor

    @staticmethod
    def _processes_of(executor) -> list:
        processes = getattr(executor, "_processes", None) or {}
        return [process for process in dict(processes).values() if process is not None]

    def worker_pids(self) -> List[int]:
        """PIDs of the currently alive workers (empty before the first task)."""
        with self._lock:
            executor = self._executor
        if executor is None:
            return []
        return [process.pid for process in self._processes_of(executor) if process.is_alive()]

    def prime(self) -> List[int]:
        """Spin every worker up with a ping; returns the distinct PIDs seen.

        Workers killed *between* tasks leave an executor that only learns it
        is broken when the next tasks fail; those failed pings restart the
        pool, so they are sent once more before the error is surfaced.
        """
        for attempt in range(2):
            futures = [self.submit(None, "ping", (), True) for _ in range(self.max_workers)]
            try:
                return sorted({self.result(future)["pid"] for future in futures})
            except WorkerPoolError:
                if attempt:
                    raise

    def restart(self) -> None:
        """Tear the executor down (killing stuck workers); next submit rebuilds."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        self.restarts += 1
        processes = self._processes_of(executor)
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.kill()

    def close(self) -> None:
        """Shut the pool down (idempotent; a later submit re-creates it)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    # -- task round trips ---------------------------------------------- #

    def submit(self, spec, op, args, reasoning=True):
        """Submit one work unit; transparently rebuilds a broken executor."""
        for _ in range(2):
            executor = self._ensure()
            try:
                future = executor.submit(_worker_run, (spec, op, args, reasoning))
            except (BrokenProcessPool, RuntimeError):
                # Broken (a worker died between tasks) or shut down by a
                # concurrent restart: retire this executor and retry once
                # with a fresh one.
                with self._lock:
                    if self._executor is executor:
                        self._executor = None
                        self.restarts += 1
                continue
            self.tasks_submitted += 1
            return future
        raise WorkerPoolError("worker pool could not be (re)started")

    def result(self, future):
        """The payload of one submitted task, with kernel counters folded in.

        Raises :class:`WorkerPoolError` when the pool broke or the task
        exceeded ``task_timeout`` (the pool is restarted so the next query
        gets healthy workers); exceptions raised *inside* the task — e.g. a
        :class:`~repro.store.persistence.PersistenceError` for a corrupt
        image — propagate unchanged.
        """
        try:
            reply = future.result(timeout=self.task_timeout)
        except FutureTimeoutError:
            self.tasks_failed += 1
            future.cancel()
            self.restart()
            raise WorkerPoolError(
                f"worker task exceeded the {self.task_timeout}s task timeout; pool restarted"
            ) from None
        except BrokenProcessPool as error:
            self.tasks_failed += 1
            self.restart()
            raise WorkerPoolError(f"worker pool broke mid-task: {error}") from error
        kernels = reply["kernels"]
        if kernels:
            merge_kernel_counters(kernels)
            self.worker_kernel_calls += sum(kernels.values())
        return reply["payload"]

    def info(self) -> dict:
        """Pool health and accounting (the serving layer exposes this)."""
        return {
            "max_workers": self.max_workers,
            "mp_context": self.mp_context,
            "task_timeout": self.task_timeout,
            "alive_workers": len(self.worker_pids()),
            "restarts": self.restarts,
            "tasks_submitted": self.tasks_submitted,
            "tasks_failed": self.tasks_failed,
            "worker_kernel_calls": self.worker_kernel_calls,
        }

    def __repr__(self) -> str:
        return (
            f"WorkerPool({self.max_workers} workers, {self.mp_context}, "
            f"{self.tasks_submitted} tasks, {self.restarts} restarts)"
        )


# --------------------------------------------------------------------------- #
# the process-backed evaluator and engine
# --------------------------------------------------------------------------- #


class ProcessExecutor(ParallelExecutor):
    """The process transport for :class:`ParallelExecutor`'s work units.

    Inherits every scatter decision; :meth:`_submit` ships a unit — wire
    encoded, stamped with the attach spec sampled once per scatter — to a
    :class:`WorkerPool`, and :meth:`_await` decodes the worker's reply.  The
    attach spec — the publisher's shipment plus the worker log file the
    coordinator appends to — is the rest of it.
    """

    def __init__(
        self,
        store: SuccinctEdge,
        reasoning: bool = True,
        inner: Optional[TriplePatternEvaluator] = None,
        max_workers: Optional[int] = None,
        pool: Optional[WorkerPool] = None,
        mp_context: Optional[str] = None,
        task_timeout: Optional[float] = None,
        workspace: Optional[str] = None,
    ) -> None:
        if max_workers is None:
            max_workers = max(2, min(8, os.cpu_count() or 1))
        super().__init__(store, reasoning=reasoning, inner=inner, max_workers=max_workers)
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else WorkerPool(
            max_workers=max_workers, mp_context=mp_context, task_timeout=task_timeout
        )
        self.publisher = Publisher(store, workspace)
        self._spec_lock = threading.Lock()
        # This executor's worker log files by generation, and how far the
        # newest one has been written: operations applied, bytes.
        self._logs: Dict[int, str] = {}
        self._written = (None, 0, 0)

    # -- attachment: the published base plus this executor's worker log -- #

    def _session(self) -> dict:
        """One consistent attach spec for the current store state.

        The operations the spec's epoch needs are appended to the
        generation's worker log file before the spec names its length, so a
        worker reading up to ``log_bytes`` only meets complete records.
        """
        with self._spec_lock:
            while True:
                shipment = self.publisher.current()
                generation, applied, size = self._written
                if generation != shipment["generation"]:
                    generation, applied, size = shipment["generation"], 0, 0
                base_epoch = shipment["base_epoch"]
                if shipment["epoch"] > base_epoch + applied:
                    reply = self.publisher.slice(generation, applied, shipment["epoch"])
                    if reply["resync"]:
                        continue  # a rotation raced the sample: publish the new generation
                    size = self._append(generation, base_epoch + applied, reply["operations"])
                    applied = reply["applied"]
                self._written = (generation, applied, size)
                return dict(
                    shipment,
                    epoch=base_epoch + applied,
                    log=self._logs.get(generation),
                    log_bytes=size,
                )

    def _append(self, generation: int, first_epoch: int, operations) -> int:
        """Append one record to the generation's worker log; returns the file's length."""
        path = self._logs.get(generation)
        if path is None:
            handle, path = tempfile.mkstemp(
                prefix=f"log-g{generation}-", suffix=".pkl", dir=self.publisher.workspace
            )
            os.close(handle)
            self._logs[generation] = path
            prune(self._logs)
        with open(path, "ab") as handle:
            pickle.dump((first_epoch, operations), handle)
            return handle.tell()

    # -- lifecycle ------------------------------------------------------ #

    def close(self) -> None:
        """Release the pool (if owned), the worker logs and an owned workspace."""
        super().close()  # the inherited (unused-by-default) thread pool
        if self._owns_pool:
            self.pool.close()
        with self._spec_lock:
            for path in self._logs.values():
                if os.path.exists(path):
                    os.remove(path)
            self._logs.clear()
        self.publisher.close()

    # -- the transport: units cross the process boundary ---------------- #

    def _submit(self, spec, op: str, args):
        return op, args, self.pool.submit(spec, op, encode_request(op, args), self.reasoning)

    def _await(self, ticket):
        op, args, future = ticket
        return decode_reply(op, args, self.pool.result(future), self.store.instances)


class ProcessPoolQueryEngine(ParallelQueryEngine):
    """A :class:`~repro.query.parallel.ParallelQueryEngine` over worker processes.

    Builds a :class:`ProcessExecutor`; a :class:`WorkerPoolError` (crash,
    timeout) restarts the pool and retries the query ``retries`` times.
    """

    retryable_exceptions = (WorkerPoolError,)

    def __init__(
        self,
        store: SuccinctEdge,
        reasoning: bool = True,
        max_workers: Optional[int] = None,
        pool: Optional[WorkerPool] = None,
        mp_context: Optional[str] = None,
        task_timeout: Optional[float] = None,
        workspace: Optional[str] = None,
        retries: int = 1,
    ) -> None:
        self.retries = max(0, retries)
        self._transport = {
            "pool": pool,
            "mp_context": mp_context,
            "task_timeout": task_timeout,
            "workspace": workspace,
        }
        super().__init__(store, reasoning=reasoning, max_workers=max_workers)

    def _executor(self, **shared) -> ProcessExecutor:
        return ProcessExecutor(self.store, **shared, **self._transport)

    @property
    def pool(self) -> WorkerPool:
        """The (possibly shared) worker pool behind this engine."""
        return self.evaluator.pool

    def heal(self) -> None:
        """Restart the worker pool after a failure (the retry hook)."""
        self.evaluator.pool.restart()
