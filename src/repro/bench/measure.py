"""Latency measurement helpers.

Every latency this reproduction reports is split into two components:

* ``measured_ms`` — wall-clock CPU time of the pure-Python implementation on
  the machine running the benchmarks;
* ``simulated_ms`` — the documented environment cost charged by the baseline
  analogues (JVM query-setup overhead, SD-card page I/O); zero for
  SuccinctEdge.

``total_ms`` (the sum) is what the paper-style tables print; the raw
components are always available so the calibration stays transparent.

Measurements additionally record the number of **SDS kernel calls** the
operation performed (rank/select/access_range invocations counted by
:mod:`repro.sds.kernels`).  A batched primitive registers as one call, so
this number makes the effect of batched triple-pattern evaluation visible
next to the wall-clock improvement.

The counters are process-wide, and the process execution backend
(:mod:`repro.query.multiproc`) keeps them complete across process
boundaries: each worker task reports its per-task counter delta, which the
coordinator folds back into its own ``KERNEL_COUNTS`` before the task's
results are surfaced — so ``measure_call`` around a process-backed query
still sees every rank/select the workers performed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro.sds.kernels import kernel_counters


@dataclass(frozen=True)
class Measurement:
    """One measured operation."""

    measured_ms: float
    simulated_ms: float
    result: Any = None
    kernel_calls: int = 0
    kernel_breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        """Measured plus simulated latency."""
        return self.measured_ms + self.simulated_ms


def measure_call(
    callable_: Callable[[], Any],
    simulated_cost_getter: Callable[[], float] = lambda: 0.0,
) -> Measurement:
    """Run ``callable_`` once and capture its latency and kernel-call count.

    ``simulated_cost_getter`` is read *after* the call (the baseline stores
    update their ``last_simulated_cost_ms`` during execution).
    """
    counters_before = kernel_counters()
    started = time.perf_counter()
    result = callable_()
    measured_ms = (time.perf_counter() - started) * 1000.0
    simulated_ms = float(simulated_cost_getter())
    breakdown = {
        name: count - counters_before.get(name, 0)
        for name, count in kernel_counters().items()
        if count - counters_before.get(name, 0)
    }
    return Measurement(
        measured_ms=measured_ms,
        simulated_ms=simulated_ms,
        result=result,
        kernel_calls=sum(breakdown.values()),
        kernel_breakdown=breakdown,
    )


def measure_best_of(
    callable_: Callable[[], Any],
    simulated_cost_getter: Callable[[], float] = lambda: 0.0,
    repetitions: int = 3,
) -> Measurement:
    """Best-of-N measurement (hot runs, as in the paper's Section 7.3.3)."""
    best: Measurement | None = None
    for _ in range(max(1, repetitions)):
        current = measure_call(callable_, simulated_cost_getter)
        if best is None or current.total_ms < best.total_ms:
            best = current
    assert best is not None
    return best
