"""The cluster coordinator: schedule units, merge results, own the store.

:func:`verify_passes_distributed` is the cluster analogue of
:func:`repro.engine.verify_passes` — same arguments, same
:class:`~repro.engine.driver.EngineReport` out, identical verdicts — with
the pending work fanned out over ``repro work`` peers: it listens on the
hostfile's address (token-authenticated TCP, or a ``unix:/path`` socket
for peers on the same host) and serves whichever peers connect.  Local
parallelism is not this module's job: ``repro verify --jobs N`` (alias
``--workers N``) runs on :class:`repro.engine.scheduler.WorkerPool`.

The run is structured exactly like the in-process driver:

1. :func:`~repro.engine.driver.resolve_pending` serves everything the
   shared store can (so a warm cluster run never opens a listener at all);
2. :func:`~repro.cluster.plan.plan_units` decomposes the misses into
   whole-pass units and, for recorded-slow passes, subgoal shards;
3. a :class:`UnitScheduler` leases units to whichever worker asks,
   re-queues units whose connection died, and *steals* long-outstanding
   leases onto idle workers (first result wins — unit ids are
   deterministic, so duplicated work is merely wasted, never wrong);
4. results stream back and are written through the coordinator's cache —
   the one warm tier every worker also reads via the networked store —
   and shard payloads are merged with
   :func:`~repro.engine.driver.merge_shard_payloads`;
5. anything the cluster could not finish (no workers came, a unit failed
   repeatedly, kwargs the wire cannot express) is verified in-process.
   The cluster is a fast path, never a dependency: with no reachable
   worker the run completes locally with identical verdicts.
"""

from __future__ import annotations

import os
import secrets
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.cluster.plan import (
    DEFAULT_SHARD_COUNT,
    Plan,
    WorkUnit,
    load_timings,
    plan_units,
    record_timings,
)
from repro.cluster.status import RunStatusBoard
from repro.cluster.store import is_store_op, serve_store_op
from repro.cluster.transport import (
    ClusterEndpoint,
    Connection,
    Listener,
    TransportError,
    remove_cluster_state,
    server_handshake,
    write_cluster_state,
)
from repro.cluster.worker import execute_unit
from repro.engine.cache import default_cache_dir, open_proof_cache
from repro.engine.driver import (
    EngineReport,
    EngineStats,
    _verify_one,
    default_pass_kwargs,
    finalize_stats,
    merge_shard_payloads,
    payload_to_result,
    resolve_pending,
    result_to_payload,
    store_certificates,
)
from repro.incremental.deps import identity_key
from repro.service.protocol import pass_registry
from repro.telemetry import stats as store_stats
from repro.telemetry import trace as _trace
from repro.verify.discharge import Discharger


# --------------------------------------------------------------------------- #
# Hostfile
# --------------------------------------------------------------------------- #
@dataclass
class HostfileConfig:
    """Parsed ``--cluster`` hostfile (see docs/operations.md)."""

    listen: str
    advertise: Optional[str] = None
    workers: Optional[int] = None


def parse_hostfile(path: os.PathLike) -> HostfileConfig:
    """Parse a hostfile: ``listen``/``advertise``/``workers`` directives.

    >>> import tempfile, os
    >>> lines = ["# repro cluster hostfile", "listen 0.0.0.0:7200",
    ...          "advertise 10.0.0.5:7200", "workers 4"]
    >>> fd, name = tempfile.mkstemp()
    >>> _ = os.write(fd, "\\n".join(lines).encode()); os.close(fd)
    >>> config = parse_hostfile(name)
    >>> (config.listen, config.advertise, config.workers)
    ('0.0.0.0:7200', '10.0.0.5:7200', 4)
    >>> os.unlink(name)
    """
    listen = advertise = None
    workers = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_number}: expected 'key value'")
            key, value = parts[0].lower(), parts[1].strip()
            if key == "listen":
                listen = value
            elif key == "advertise":
                advertise = value
            elif key == "workers":
                workers = int(value)
            else:
                raise ValueError(
                    f"{path}:{line_number}: unknown directive {key!r} "
                    f"(expected listen/advertise/workers)")
    if listen is None:
        raise ValueError(f"{path}: missing required 'listen HOST:PORT' line")
    return HostfileConfig(listen=listen, advertise=advertise, workers=workers)


# --------------------------------------------------------------------------- #
# Scheduling
# --------------------------------------------------------------------------- #
class UnitScheduler:
    """Thread-safe lease/steal/retry bookkeeping over a fixed unit set."""

    def __init__(self, units: Sequence[WorkUnit], *,
                 steal_after: float = 5.0, max_attempts: int = 3,
                 tracer=None) -> None:
        self._by_id: Dict[str, WorkUnit] = {u.unit_id: u for u in units}
        self._pending = deque(units)
        #: unit_id -> {"since": float, "owners": set}
        self._leases: Dict[str, Dict] = {}
        self.results: Dict[str, Dict] = {}
        self.failures: Dict[str, str] = {}
        self._attempts: Dict[str, int] = {}
        # Queue-time attribution: every unit is stamped at enqueue and its
        # wait is fixed at *first* lease (a steal re-leases an already
        # measured unit and must not recompute).  Requeue restarts the
        # clock — the retry's wait is the one the merged trace reports.
        now = time.monotonic()
        self._enqueued: Dict[str, float] = {u.unit_id: now for u in units}
        self._queue_wait: Dict[str, float] = {}
        self._cond = threading.Condition()
        self.steal_after = steal_after
        self.max_attempts = max_attempts
        self.stolen = 0
        self.retried = 0
        # Passed explicitly (not looked up per call): the coordinator's
        # self-leased units temporarily swap the process-global tracer for
        # an in-memory collector, and a handler thread emitting through
        # ``current()`` mid-swap would leak its events into that unit's
        # batch instead of the run trace.
        self._tracer = tracer

    def _trace_event(self, name: str, **attrs) -> None:
        if self._tracer is not None:
            self._tracer.event(name, kind="cluster", **attrs)

    # ------------------------------------------------------------------ #
    def lease(self, owner: str) -> Tuple[str, Optional[WorkUnit]]:
        """Hand ``owner`` a unit: ``("unit", u)``, ``("wait", None)``, or
        ``("done", None)``."""
        now = time.monotonic()
        with self._cond:
            while self._pending:
                unit = self._pending.popleft()
                if unit.unit_id in self.results or unit.unit_id in self.failures:
                    continue  # resolved while queued (steal raced a retry)
                lease = self._leases.setdefault(
                    unit.unit_id, {"since": now, "owners": set()})
                lease["owners"].add(owner)
                self._queue_wait.setdefault(
                    unit.unit_id,
                    max(0.0, now - self._enqueued.get(unit.unit_id, now)))
                self._trace_event("cluster.lease", unit=unit.unit_id,
                                  worker=owner)
                return ("unit", unit)
            # Work stealing: re-lease the longest-outstanding unit to an
            # idle worker.  First result wins; the duplicate is discarded.
            candidates = [
                (lease["since"], unit_id)
                for unit_id, lease in self._leases.items()
                if unit_id not in self.results
                and unit_id not in self.failures
                and owner not in lease["owners"]
                and now - lease["since"] >= self.steal_after
            ]
            if candidates:
                _, unit_id = min(candidates)
                self._leases[unit_id]["owners"].add(owner)
                self.stolen += 1
                self._trace_event("cluster.steal", unit=unit_id, worker=owner)
                return ("unit", self._by_id[unit_id])
            if self._done_locked():
                return ("done", None)
            return ("wait", None)

    def complete(self, unit_id: str, message: Dict) -> bool:
        """Record one worker's result; returns True if it was accepted."""
        with self._cond:
            unit = self._by_id.get(unit_id)
            if unit is None or unit_id in self.results:
                if unit is not None:
                    self._trace_event("cluster.duplicate", unit=unit_id)
                return False
            if message.get("ok"):
                self.results[unit_id] = message
                self._leases.pop(unit_id, None)
                self._cond.notify_all()
                return True
            self._leases.pop(unit_id, None)
            attempts = self._attempts.get(unit_id, 0) + 1
            self._attempts[unit_id] = attempts
            if attempts < self.max_attempts:
                self.retried += 1
                self._pending.append(unit)
                self._enqueued[unit_id] = time.monotonic()
                self._queue_wait.pop(unit_id, None)
                self._trace_event("cluster.requeue", unit=unit_id,
                                  reason="unit-failed", attempts=attempts)
            else:
                self.failures[unit_id] = str(message.get("error", "unit failed"))
                self._trace_event("cluster.failed", unit=unit_id,
                                  attempts=attempts)
            self._cond.notify_all()
            return False

    def release(self, owner: str) -> None:
        """A connection died: re-queue the units only it was working on."""
        with self._cond:
            for unit_id, lease in list(self._leases.items()):
                lease["owners"].discard(owner)
                if not lease["owners"] and unit_id not in self.results:
                    del self._leases[unit_id]
                    self.retried += 1
                    self._pending.append(self._by_id[unit_id])
                    self._enqueued[unit_id] = time.monotonic()
                    self._queue_wait.pop(unit_id, None)
                    self._trace_event("cluster.requeue", unit=unit_id,
                                      reason="connection-lost", worker=owner)
            self._cond.notify_all()

    def queue_wait(self, unit_id: str) -> float:
        """Seconds ``unit_id`` sat queued before its (latest) lease.

        Units the cluster never served (proved by the local fallback)
        lazily fix their wait at first query — they waited the whole
        cluster phase, and the merged unit span built at merge time is
        that first query.
        """
        with self._cond:
            wait = self._queue_wait.get(unit_id)
            if wait is not None:
                return wait
            enqueued = self._enqueued.get(unit_id)
            if enqueued is None:
                return 0.0
            wait = max(0.0, time.monotonic() - enqueued)
            self._queue_wait[unit_id] = wait
            return wait

    # ------------------------------------------------------------------ #
    def _done_locked(self) -> bool:
        return all(unit_id in self.results or unit_id in self.failures
                   for unit_id in self._by_id)

    @property
    def done(self) -> bool:
        with self._cond:
            return self._done_locked()

    def unresolved_units(self) -> List[WorkUnit]:
        with self._cond:
            return [unit for unit_id, unit in self._by_id.items()
                    if unit_id not in self.results]

    def wait(self, timeout: float) -> bool:
        """Block until every unit is resolved or ``timeout`` elapses."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while not self._done_locked():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.2))
            return True


# --------------------------------------------------------------------------- #
# The coordinator
# --------------------------------------------------------------------------- #
class ClusterCoordinator:
    """Serve one run's units to authenticated workers; absorb their results.

    The coordinator is also a *worker of last resort*: while waiting on the
    fleet it leases units to itself (:meth:`run_one_locally`) instead of
    idling, so a run with slow — or absent — workers still makes progress
    through the same unit pipeline (same payloads, same store writes, same
    verdicts; only the ``coordinator_units`` counter tells them apart).
    """

    def __init__(self, cache, scheduler: UnitScheduler, token: str, *,
                 counterexample_search: bool = True,
                 solver: str = "builtin",
                 registry: Optional[Dict[str, type]] = None,
                 board=None, recorder=None) -> None:
        from repro.engine.fingerprint import toolchain_fingerprint

        self.cache = cache
        self.scheduler = scheduler
        self.token = token
        #: Optional :class:`repro.cluster.status.RunStatusBoard` — the live
        #: health table behind ``repro top``.
        self.board = board
        #: Optional :class:`repro.telemetry.stats.StatsRecorder` — absorbs
        #: the per-unit remote-store io deltas workers ship back.
        self.recorder = recorder
        # Captured once: self-leased units swap the global tracer for a
        # collector mid-run, and handler threads absorbing results during
        # that window must still write to the run's sink.
        self.tracer = _trace.current()
        self.counterexample_search = counterexample_search
        self.solver = solver
        self.registry = registry
        self.toolchain = toolchain_fingerprint()
        #: Coordinator-side view of the shared subgoal tier, plus an
        #: append-ordered log so each connection gets exactly the entries
        #: it has not seen (piggybacked on lease responses).
        self._subgoal_lock = threading.Lock()
        self._shared_subgoals: Dict[str, dict] = (
            cache.subgoal_snapshot() if cache is not None else {})
        self._subgoal_log: List[Tuple[str, dict]] = []
        self._store_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self.workers_connected = 0
        self.workers_seen = 0
        self.remote_units = 0
        self.coordinator_units = 0
        self.remote_subgoal_hits = 0
        self.worker_seconds = 0.0
        self.worker_subgoal_hits = 0
        self.worker_subgoal_misses = 0
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------ #
    # Result absorption
    # ------------------------------------------------------------------ #
    def _absorb_result(self, message: Dict, local: bool = False,
                       owner: Optional[str] = None,
                       transport: float = 0.0) -> None:
        """Write an accepted result's subgoals through to the shared tier.

        When tracing, this is also where the merged cluster trace grows: a
        synthetic ``unit`` span records the worker attribution and the
        prove/transport split, and the worker's piggybacked span batch is
        re-absorbed underneath it.  Only *accepted* results reach here, so
        every planned unit contributes exactly one merged unit span even
        under steal/requeue duplication.
        """
        with self._subgoal_lock:
            fresh = {
                key: value
                for key, value in (message.get("new_subgoals") or {}).items()
                if key not in self._shared_subgoals
            }
            for key, value in fresh.items():
                self._shared_subgoals[key] = value
                self._subgoal_log.append((key, value))
        if self.cache is not None:
            with self._store_lock:
                for key, value in fresh.items():
                    if not self.cache.has_subgoal(key):
                        self.cache.put_subgoal(key, value)
                store_certificates(self.cache,
                                   message.get("new_certificates") or {})
                self.cache.touch_subgoals(message.get("subgoal_hit_keys") or [])
        with self._counter_lock:
            if local:
                self.coordinator_units += 1
            else:
                self.remote_units += 1
                self.worker_seconds += float(message.get("wall_seconds", 0.0))
            self.remote_subgoal_hits += int(message.get("subgoal_remote_hits", 0))
            self.worker_subgoal_hits += int(message.get("subgoal_hits", 0))
            self.worker_subgoal_misses += int(message.get("subgoal_misses", 0))
        if self.recorder is not None:
            # Remote-store io is timing-dependent by nature, so it merges
            # into the *local* half of the stats payload under a prefixed
            # tier name; the canonical half is fed at merge time from the
            # accepted results only.
            for tier, counters in (message.get("store_io") or {}).items():
                self.recorder.merge_io(f"remote-{tier}", counters)
        if self.board is not None:
            attribution = owner or ("coordinator" if local else "worker")
            self.board.note_result(
                attribution,
                prove_seconds=float(message.get("wall_seconds", 0.0)),
                transport_seconds=max(0.0, transport))
            self.board.set_progress(
                units_done=len(self.scheduler.results),
                failures=len(self.scheduler.failures),
                stolen=self.scheduler.stolen,
                retried=self.scheduler.retried)
        if self.tracer is not None:
            attribution = owner or ("coordinator" if local else "worker")
            with self.tracer.span(
                    "unit", kind="unit", unit=message.get("unit_id"),
                    worker=attribution,
                    prove_seconds=round(float(message.get("wall_seconds", 0.0)), 6),
                    transport_seconds=round(max(0.0, transport), 6),
                    queue_wait=round(self.scheduler.queue_wait(
                        str(message.get("unit_id"))), 6)) as handle:
                pass
            spans = message.pop("spans", None)
            if spans:
                self.tracer.absorb(spans, worker=attribution, parent=handle.id)

    # ------------------------------------------------------------------ #
    # Self-leasing (the coordinator as a worker of last resort)
    # ------------------------------------------------------------------ #
    def run_one_locally(self) -> bool:
        """Lease one unit to the coordinator itself and prove it inline.

        Returns ``True`` when a unit was executed (successfully or not —
        failures follow the same retry bookkeeping as a worker's).  The
        unit runs against a *copy* of the shared subgoal table: handler
        threads snapshot the live dict for connecting workers, and an
        in-place mutation from this thread could surface as a
        dictionary-changed-size error mid-copy.
        """
        if self.registry is None:
            return False
        kind, unit = self.scheduler.lease("coordinator")
        if kind != "unit":
            return False
        with self._subgoal_lock:
            table = dict(self._shared_subgoals)
        wire = unit.to_wire(self.counterexample_search, self.solver)
        if self.tracer is not None:
            wire["trace"] = True
        reply = execute_unit(wire, self.registry, table)
        accepted = self.scheduler.complete(unit.unit_id, reply)
        if accepted:
            self._absorb_result(reply, local=True, owner="coordinator")
        return True

    def _snapshot_for(self, marker_box: Dict) -> Dict[str, dict]:
        """Serve one connection's bulk snapshot; advance its update marker."""
        with self._subgoal_lock:
            marker_box["marker"] = len(self._subgoal_log)
            return dict(self._shared_subgoals)

    def _updates_for(self, marker_box: Dict) -> Dict[str, dict]:
        with self._subgoal_lock:
            marker = marker_box.get("marker", 0)
            entries = self._subgoal_log[marker:]
            marker_box["marker"] = len(self._subgoal_log)
            return dict(entries)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _handle_connection(self, connection: Connection, owner: str) -> None:
        hello = server_handshake(connection, self.token,
                                 welcome_extra={"toolchain": self.toolchain})
        if hello is None:
            return
        marker_box: Dict = {}
        #: unit_id -> perf_counter at lease send; the gap between a unit's
        #: round trip and its worker-measured wall is the transport share.
        sent_at: Dict[str, float] = {}
        with self._counter_lock:
            self.workers_connected += 1
            self.workers_seen += 1
        try:
            while not self._stop.is_set():
                message = connection.recv()
                if message is None:
                    break
                op = message.get("op")
                if op == "store.subgoal_snapshot":
                    connection.send({"op": "store.reply",
                                     "value": self._snapshot_for(marker_box)})
                elif is_store_op(message):
                    with self._store_lock:
                        reply = serve_store_op(self.cache, message,
                                               allow_writes=False)
                    connection.send(reply)
                elif op == "lease":
                    if self.board is not None:
                        # Health gauges piggyback on every lease; peers
                        # that predate them simply send no "heartbeat"
                        # key, which still refreshes last_seen.
                        self.board.heartbeat(owner, message.get("heartbeat"))
                    kind, unit = self.scheduler.lease(owner)
                    if kind == "unit":
                        wire = unit.to_wire(self.counterexample_search,
                                            self.solver)
                        if self.tracer is not None:
                            wire["trace"] = True
                            sent_at[unit.unit_id] = time.perf_counter()
                        connection.send({
                            "op": "unit",
                            "unit": wire,
                            "subgoal_updates": self._updates_for(marker_box),
                        })
                    elif kind == "wait":
                        connection.send({"op": "wait", "seconds": 0.05})
                    else:
                        connection.send({"op": "done"})
                        break
                elif op == "result":
                    unit_id = str(message.get("unit_id"))
                    round_trip = time.perf_counter() - sent_at.pop(
                        unit_id, time.perf_counter())
                    accepted = self.scheduler.complete(unit_id, message)
                    if accepted:
                        self._absorb_result(
                            message, owner=owner,
                            transport=round_trip
                            - float(message.get("wall_seconds", 0.0)))
                # Unknown ops are ignored: forward compatibility within a
                # protocol version is additive.
        except TransportError:
            pass
        finally:
            self.scheduler.release(owner)
            connection.close()
            with self._counter_lock:
                self.workers_connected -= 1

    def serve(self, listener: Listener) -> None:
        """Accept connections until :meth:`stop`; one thread per worker."""
        def accept_loop():
            counter = 0
            while not self._stop.is_set():
                try:
                    connection = listener.accept(timeout=0.2)
                except TransportError:
                    continue
                counter += 1
                owner = f"worker-{counter}-{connection.peer}"
                thread = threading.Thread(
                    target=self._handle_connection, args=(connection, owner),
                    name=f"repro-cluster-{owner}", daemon=True)
                thread.start()
                self._threads.append(thread)

        acceptor = threading.Thread(target=accept_loop,
                                    name="repro-cluster-accept", daemon=True)
        acceptor.start()
        self._threads.append(acceptor)

    def stop(self) -> None:
        self._stop.set()


# --------------------------------------------------------------------------- #
# The distributed batch API
# --------------------------------------------------------------------------- #
def verify_passes_distributed(
    pass_classes: Sequence[Type],
    *,
    hostfile: os.PathLike,
    cache=None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    backend: str = "jsonl",
    pass_kwargs_fn=None,
    counterexample_search: bool = True,
    changed_paths=None,
    record_deps: bool = True,
    shard_threshold: Optional[float] = None,
    shard_count: Optional[int] = None,
    worker_wait: float = 30.0,
    run_timeout: float = 600.0,
    steal_after: float = 5.0,
    solver: str = "auto",
    self_lease: bool = True,
) -> EngineReport:
    """Verify a batch across a worker cluster; in-process for what remains.

    Listens on ``hostfile``'s ``listen`` address and serves whichever
    authenticated ``repro work`` peers connect.  All other parameters match
    :func:`repro.engine.verify_passes`, including ``changed_paths`` for
    dependency-scoped incremental cluster runs and ``solver`` for the
    prover backend (shipped inside every unit; workers refuse units whose
    key they cannot re-derive, which covers solver skew).  Verdicts are
    identical to the single-process engine at any worker count —
    distribution, like ``jobs``, only changes wall time.

    ``self_lease`` (default on) lets the coordinator lease and prove units
    itself while waiting on workers; ``shard_count=None`` auto-tunes each
    split pass's shard count from its recorded wall time (see
    :func:`repro.cluster.plan.derive_shard_count`).
    """
    started = time.perf_counter()
    from repro.engine.driver import _check_changed_paths
    from repro.prover.backend import resolve_solver

    _check_changed_paths(changed_paths)
    solver_name = resolve_solver(solver).name
    kwargs_fn = pass_kwargs_fn or default_pass_kwargs
    stats = EngineStats(passes_total=len(pass_classes), solver=solver_name)

    own_cache = False
    if cache is None and use_cache:
        cache = open_proof_cache(cache_dir or default_cache_dir(), backend)
        own_cache = True
    base_invalidated = 0 if own_cache or cache is None else cache.stats.invalidated
    try:
        return _distributed_with_cache(
            pass_classes, stats, cache, kwargs_fn, started, base_invalidated,
            counterexample_search=counterexample_search,
            changed_paths=changed_paths, record_deps=record_deps,
            hostfile=hostfile, shard_threshold=shard_threshold,
            shard_count=shard_count, worker_wait=worker_wait,
            run_timeout=run_timeout, steal_after=steal_after,
            solver=solver_name, self_lease=self_lease,
        )
    finally:
        if own_cache:
            cache.close()


def _distributed_with_cache(
    pass_classes, stats, cache, kwargs_fn, started, base_invalidated, *,
    counterexample_search, changed_paths, record_deps, hostfile,
    shard_threshold, shard_count, worker_wait, run_timeout, steal_after,
    solver, self_lease,
) -> EngineReport:
    base_hits = cache.stats.pass_hits if cache is not None else 0
    base_misses = cache.stats.pass_misses if cache is not None else 0

    # Store analytics: one recorder per run, attached to the cache for the
    # io hooks and fed canonical facts by the driver/merge paths.  Always
    # best-effort — accounting must never fail a verification run.
    recorder = None
    if cache is not None and store_stats.enabled():
        try:
            recorder = store_stats.StatsRecorder(
                cache.directory, backend=getattr(cache, "backend", None))
            cache.recorder = recorder
        except Exception:
            recorder = None

    results, pending = resolve_pending(
        pass_classes, stats, cache, kwargs_fn,
        changed_paths=changed_paths, record_deps=record_deps,
        solver=solver, recorder=recorder,
    )

    cluster_info: Dict[str, object] = {
        "workers": 0, "units_total": 0, "split_passes": 0,
        "remote_units": 0, "coordinator_units": 0, "local_units": 0,
        "remote_subgoal_hits": 0, "stolen": 0, "retried": 0,
    }
    stats.cluster = cluster_info
    if not pending:
        if recorder is not None:
            try:
                recorder.finalize_and_save()
            except Exception:
                pass
            cache.recorder = None
        finalize_stats(stats, cache, base_hits, base_misses, base_invalidated,
                       0, started)
        return EngineReport(results=list(results), stats=stats)

    registry = pass_registry()
    timings_dir = None
    if cache is not None and cache.directory is not None:
        timings_dir = cache.directory
    plan = plan_units(
        pending, registry,
        timings=load_timings(timings_dir),
        shard_threshold=shard_threshold, shard_count=shard_count,
    )
    cluster_info["units_total"] = len(plan.units)
    cluster_info["split_passes"] = plan.split_passes

    tracer = _trace.current()
    if tracer is not None:
        # The planned unit-id list is the coverage contract: the merged
        # trace must hold exactly one unit span per id (repro trace
        # summary --check-coverage verifies it).
        tracer.event("cluster.plan", kind="cluster",
                     units=[unit.unit_id for unit in plan.units],
                     split_passes=plan.split_passes)
    scheduler = UnitScheduler(plan.units, steal_after=steal_after,
                              tracer=tracer)
    # The live health board persists beside the proof store so `repro top`
    # on the same host can render the run; cacheless runs keep it in
    # memory only (there is no shared directory to meet the reader in).
    board_dir = cache.directory if cache is not None and \
        cache.directory is not None else None
    board = RunStatusBoard(board_dir, len(plan.units),
                           node=f"{socket.gethostname()}-{os.getpid()}")
    coordinator = ClusterCoordinator(
        cache, scheduler, secrets.token_hex(16),
        counterexample_search=counterexample_search,
        solver=solver, registry=registry if self_lease else None,
        board=board, recorder=recorder)

    listener = None
    state_dir = None
    try:
        if plan.units:
            # An unusable hostfile or listen address is an error, not a
            # fallback: it raises before any unit is proved.
            config = parse_hostfile(hostfile)
            listener = Listener(config.listen)
            advertise = config.advertise or listener.address
            state_dir = (cache.directory if cache is not None and
                         cache.directory is not None else default_cache_dir())
            write_cluster_state(state_dir, ClusterEndpoint(
                address=advertise, token=coordinator.token, pid=os.getpid()))
            coordinator.serve(listener)
            _await_completion(scheduler, coordinator, worker_wait=worker_wait,
                              run_timeout=run_timeout)
    finally:
        # Stop before closing the listener: the accept loop polls the stop
        # event, and closing its socket first would leave it spinning on
        # accept errors until the event is set.
        coordinator.stop()
        if listener is not None:
            listener.close()
        if state_dir is not None:
            remove_cluster_state(state_dir, coordinator.token)
        # The board file deliberately outlives the run (marked done):
        # `repro top --once` racing the end of a short run still has a
        # completed table to report; the next run overwrites it.
        board.set_progress(units_done=len(scheduler.results),
                           failures=len(scheduler.failures),
                           stolen=scheduler.stolen, retried=scheduler.retried)
        board.finish()

    _merge_run(results, pending, plan, scheduler, coordinator, cache, stats,
               counterexample_search, timings_dir, kwargs_fn,
               shard_threshold=shard_threshold)

    if recorder is not None:
        try:
            recorder.finalize_and_save()
        except Exception:
            pass
        cache.recorder = None

    cluster_info["workers"] = coordinator.workers_seen
    cluster_info["remote_units"] = coordinator.remote_units
    cluster_info["coordinator_units"] = coordinator.coordinator_units
    cluster_info["remote_subgoal_hits"] = coordinator.remote_subgoal_hits
    cluster_info["stolen"] = scheduler.stolen
    cluster_info["retried"] = scheduler.retried
    cluster_info["worker_seconds"] = round(coordinator.worker_seconds, 6)
    stats.used_processes = coordinator.remote_units > 0
    stats.subgoal_hits += coordinator.worker_subgoal_hits
    stats.subgoal_misses += coordinator.worker_subgoal_misses
    finalize_stats(stats, cache, base_hits, base_misses, base_invalidated,
                   len(pending), started)
    return EngineReport(results=list(results), stats=stats)


def _await_completion(scheduler, coordinator, *, worker_wait,
                      run_timeout) -> None:
    """Drive the units to completion — proving some on the coordinator.

    Instead of idling between polls, the coordinator leases units to
    itself (:meth:`ClusterCoordinator.run_one_locally`, when self-leasing
    is enabled): with a healthy fleet it merely adds one more prover, and
    with a dead or absent fleet it drains the whole plan through the same
    unit pipeline.  It still bails out early (leaving the remainder to the
    in-process fallback) when nothing is progressing: no worker at all
    within ``worker_wait``, or every previously connected worker gone for
    ``worker_wait`` without a replacement — a crashed fleet must not stall
    the run until ``run_timeout``.
    """
    deadline = time.monotonic() + run_timeout
    first_worker_deadline = time.monotonic() + worker_wait
    # Until a worker shows up, give the fleet a short head start before
    # the coordinator starts competing for units: a fast suite drained
    # entirely by self-leasing would make every run look worker-less.
    self_lease_after = time.monotonic() + min(1.0, worker_wait / 4)
    idle_since = None
    while not scheduler.done:
        now = time.monotonic()
        if now >= deadline:
            return
        if (coordinator.workers_seen > 0 or now >= self_lease_after) \
                and coordinator.run_one_locally():
            continue  # progressed; re-check done before any bail-out
        if coordinator.workers_connected == 0:
            if coordinator.workers_seen == 0 and now >= first_worker_deadline:
                return
            if coordinator.workers_seen > 0:
                idle_since = idle_since or now
                if now - idle_since >= worker_wait:
                    return
        else:
            idle_since = None
        scheduler.wait(0.2)


def _merge_run(results, pending, plan: Plan, scheduler: UnitScheduler,
               coordinator: ClusterCoordinator, cache, stats,
               counterexample_search, timings_dir, kwargs_fn,
               shard_threshold=None) -> None:
    """Fold unit results into ordered pass results; prove leftovers locally."""
    from contextlib import nullcontext

    from repro.cluster.plan import DEFAULT_SHARD_THRESHOLD

    tracer = coordinator.tracer
    merge_scope = nullcontext() if tracer is None else \
        tracer.span("cluster.merge", kind="merge", units=len(plan.units))
    with merge_scope:
        _merge_run_traced(results, pending, plan, scheduler, coordinator,
                          cache, stats, counterexample_search, timings_dir,
                          kwargs_fn, shard_threshold, tracer)


def _merge_run_traced(results, pending, plan, scheduler, coordinator, cache,
                      stats, counterexample_search, timings_dir, kwargs_fn,
                      shard_threshold, tracer) -> None:
    from repro.cluster.plan import DEFAULT_SHARD_THRESHOLD

    threshold = DEFAULT_SHARD_THRESHOLD if shard_threshold is None \
        else float(shard_threshold)
    units_by_index: Dict[int, List[WorkUnit]] = {}
    for unit in plan.units:
        units_by_index.setdefault(unit.index, []).append(unit)

    # Canonical store accounting is fed here — not at absorb time — so the
    # facts that reach the recorder are exactly the facts that reach the
    # report: one accounting source per pass, chosen the same way the
    # result is.  Complete unit sets feed from their messages (shards
    # partition a pass's subgoal work, so the sum matches a whole-pass
    # run); passes the cluster never finished feed from the local re-prove
    # instead.  ``fed_indices`` keeps the two sources exclusive when a
    # failing split pass is re-proved locally just for its counterexample.
    recorder = coordinator.recorder
    fed_indices: set = set()

    def feed_unit_messages(index, messages) -> None:
        if recorder is None:
            return
        try:
            for message in messages:
                recorder.note_unit(
                    message.get("subgoal_hit_keys") or [],
                    (message.get("new_subgoals") or {}).keys())
                recorder.note_certificates(
                    (message.get("new_certificates") or {}).keys())
            fed_indices.add(index)
        except Exception:
            pass

    timing_updates: Dict[str, float] = {}
    local_entries = list(plan.local)
    for entry in pending:
        index, pass_class, pass_kwargs, key = entry
        units = units_by_index.get(index)
        if not units:
            continue  # already routed to plan.local
        payloads = [scheduler.results.get(unit.unit_id) for unit in units]
        if any(payload is None for payload in payloads):
            local_entries.append(entry)
            continue
        try:
            if units[0].kind == "shard":
                merged = merge_shard_payloads(
                    [message["payload"] for message in payloads])
            else:
                merged = payloads[0]["payload"]
        except (ValueError, KeyError):
            local_entries.append(entry)
            continue
        # A failing split pass has no counterexample (shards never search);
        # re-prove it whole so the report matches single-process output.
        if units[0].kind == "shard" and not merged["verified"] \
                and counterexample_search:
            # The shards are a complete accounting of the pass's subgoal
            # work; the local re-prove only recovers the counterexample
            # (its table is warm with the shard-proved subgoals, so its
            # own accounting would read all-hits — a cluster artifact).
            feed_unit_messages(index, payloads)
            local_entries.append(entry)
            continue
        feed_unit_messages(index, payloads)
        results[index] = payload_to_result(merged)
        if cache is not None:
            with coordinator._store_lock:
                cache.put_pass(key, merged)
        if units[0].kind == "shard":
            # The merged payload's time is the *sum* of shard times, and
            # every shard re-ran the full symbolic execution; recording
            # that sum would feed the auto-tuner a figure that grows with
            # the shard count it chose (ratcheting every split pass toward
            # the maximum).  Estimate the unsplit wall instead: the
            # cheapest shard is an upper bound on the symbolic-execution
            # share, so discount it from all but one shard.  The estimate
            # errs low (the cheapest shard still carries discharge work),
            # which on its own would flip the next run back to unsplit —
            # so a split pass's record is floored at the threshold:
            # hysteresis beats oscillating between split and whole.
            shard_times = [message["payload"]["time_seconds"]
                           for message in payloads]
            recorded = sum(shard_times) - \
                (len(shard_times) - 1) * min(shard_times)
            if threshold > 0:
                recorded = max(recorded, threshold)
        else:
            recorded = merged["time_seconds"]
        timing_updates[identity_key(pass_class, pass_kwargs)] = recorded

    local_count = 0
    discharger = Discharger(stats.solver)
    # Snapshot the shared table under its lock (one copy, reused across
    # the whole fallback loop): a handler thread draining a late worker
    # frame may still be copying the live dict, and an unguarded insert
    # from this loop would blow up that copy mid-iteration.
    with coordinator._subgoal_lock:
        local_table = dict(coordinator._shared_subgoals)
    for index, pass_class, pass_kwargs, key in local_entries:
        result, acct = _verify_one(
            pass_class, pass_kwargs, counterexample_search,
            local_table, discharger=discharger,
        )
        local_count += 1
        if tracer is not None:
            # Planned units the cluster never resolved are proved here;
            # give each one a merged unit span so coverage stays exact
            # (units that *did* come back already got theirs on absorb).
            for unit in units_by_index.get(index, []):
                if unit.unit_id not in scheduler.results:
                    with tracer.span("unit", kind="unit", unit=unit.unit_id,
                                     worker="local-fallback",
                                     prove_seconds=round(
                                         result.time_seconds, 6),
                                     transport_seconds=0.0,
                                     queue_wait=round(
                                         scheduler.queue_wait(unit.unit_id),
                                         6)):
                        pass
        if recorder is not None and index not in fed_indices:
            try:
                recorder.note_unit(acct.hit_keys, acct.new_subgoals.keys())
                recorder.note_certificates(acct.new_certificates.keys())
            except Exception:
                pass
        results[index] = result
        stats.subgoal_hits += acct.hits
        stats.subgoal_misses += acct.misses
        if cache is not None:
            # Under the store lock: a still-draining handler thread may be
            # serving a late worker message against the same cache.
            with coordinator._store_lock:
                cache.put_pass(key, result_to_payload(result))
                for sub_key, value in acct.new_subgoals.items():
                    if not cache.has_subgoal(sub_key):
                        cache.put_subgoal(sub_key, value)
                store_certificates(cache, acct.new_certificates)
                cache.touch_subgoals(acct.hit_keys)
        timing_updates[identity_key(pass_class, pass_kwargs)] = \
            result.time_seconds
    stats.cluster["local_units"] = local_count

    record_timings(timings_dir, timing_updates)
