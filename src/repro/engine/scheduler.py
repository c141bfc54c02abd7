"""A small multiprocessing scheduler with deterministic result ordering.

The executor behind ``repro fuzz --workers N``: the campaign maps its
seed-range batches, each a picklable payload handed to a top-level worker
function that returns a picklable result.  ``jobs=1`` (or a single task)
runs everything in-process with zero multiprocessing machinery;
``jobs>1`` fans tasks out over a process pool.  Results always come back
in submission order regardless of completion order.  Verification never
comes here: ``verify_passes`` proves every pass in the calling process.

If the pool cannot be created at all (sandboxes without semaphore support,
missing /dev/shm, restricted platforms) the scheduler silently degrades to
in-process execution — parallelism is an optimisation, never a requirement.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from typing import Callable, List, Sequence, TypeVar

from repro.telemetry import trace as _trace

_Payload = TypeVar("_Payload")
_Result = TypeVar("_Result")

#: Errors that mean "no worker pool on this host", not "the task failed".
_POOL_BOOTSTRAP_ERRORS = (ImportError, OSError, PermissionError, ValueError)


def default_jobs() -> int:
    """A sensible ``--workers 0`` value: the CPU count, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def _start_context():
    """Prefer ``fork`` (cheap, inherits the imported package) when available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerPool:
    """Map a worker function over payloads with ``jobs`` processes."""

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))
        self.used_processes = False   # did the last map actually fan out?

    def map(self, worker: Callable[[_Payload], _Result],
            payloads: Sequence[_Payload]) -> List[_Result]:
        """Apply ``worker`` to every payload, returning results in order.

        Worker exceptions propagate to the caller (matching what the same
        code raising in-process would do); only *pool construction* failures
        trigger the sequential fallback.
        """
        payloads = list(payloads)
        tracer = _trace.current()
        if tracer is None:
            return self._map(worker, payloads, None)
        # ``spawn_seconds`` is pool bootstrap (process forking); the span's
        # remaining duration is the map itself.
        with tracer.span("scheduler.map", kind="scheduler", jobs=self.jobs,
                         tasks=len(payloads)) as handle:
            results = self._map(worker, payloads, handle.attrs)
            handle.attrs["used_processes"] = self.used_processes
        return results

    def _map(self, worker, payloads, span_attrs):
        self.used_processes = False
        if self.jobs <= 1 or len(payloads) <= 1:
            return [worker(payload) for payload in payloads]
        # Validate picklability up front: a worker or payload that cannot
        # cross the process boundary means "run locally", and checking here
        # keeps in-task exceptions cleanly separated from transport errors
        # (a task's own TypeError must propagate, not trigger a silent
        # sequential re-run).
        try:
            pickle.dumps(worker)
            for payload in payloads:
                pickle.dumps(payload)
        except Exception:
            return [worker(payload) for payload in payloads]
        try:
            spawn_started = time.perf_counter()
            context = _start_context()
            pool = context.Pool(processes=min(self.jobs, len(payloads)))
            if span_attrs is not None:
                span_attrs["spawn_seconds"] = round(
                    time.perf_counter() - spawn_started, 6)
        except _POOL_BOOTSTRAP_ERRORS:
            return [worker(payload) for payload in payloads]
        try:
            results = pool.map(worker, payloads, chunksize=1)
            self.used_processes = True
            return results
        finally:
            pool.close()
            pool.join()
