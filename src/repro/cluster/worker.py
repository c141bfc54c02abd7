"""The cluster worker: lease, verify, stream results back.

``repro work --connect HOST:PORT`` (or ``--cache-dir DIR`` to discover the
coordinator through its ``cluster.json``) runs :func:`run_worker`: connect
to the coordinator, authenticate, warm the local prover, bulk-fetch the
shared subgoal snapshot through the networked store tier, then loop —
lease one unit, verify it with the existing engine, send the result (plus
every newly proved subgoal and the cache-feedback counters) back.

A worker never decides what to verify and never writes the proof store
directly: the coordinator owns scheduling and the store, the worker owns
CPU time.  Source skew between hosts is caught per unit — the worker
re-derives the pass fingerprint locally and refuses units whose key does
not match (proving *different* code under the coordinator's key would
poison the shared store).
"""

from __future__ import annotations

import os
import socket
import time
import traceback
from typing import Dict, Optional

from repro.cluster.store import RemoteProofStore
from repro.telemetry import trace as _trace
from repro.telemetry.health import read_rss
from repro.cluster.transport import TransportError, client_hello, connect
from repro.engine.driver import (
    _verify_one,
    result_to_payload,
    verify_pass_shard,
)
from repro.engine.fingerprint import DEFAULT_SOLVER, pass_fingerprint
from repro.service.protocol import ProtocolError, pass_registry, resolve_pass_spec


def make_store_fallback(store):
    """A mid-unit subgoal lookup backed by the coordinator's store.

    The bulk snapshot a worker takes at handshake (plus the deltas that
    piggyback on leases) goes stale *during* a long unit: a subgoal another
    worker proves mid-flight is in the coordinator's warm tier but not in
    this worker's table.  The returned callable probes the remote store for
    exactly those keys — and swallows transport errors, because a store
    hiccup must degrade into re-proving locally, never fail the unit.
    """
    if store is None:
        return None
    state = {"dead": False}

    def lookup(key: str):
        if state["dead"]:
            return None
        try:
            return store.get_subgoal(key)
        except TransportError:
            # Stop probing for the rest of this unit: a coordinator with
            # no store (--no-cache) would otherwise eat one failed round
            # trip per subgoal miss.
            state["dead"] = True
            return None

    return lookup


def execute_unit(unit: Dict, registry: Dict[str, type],
                 subgoal_table: Dict[str, dict], store=None) -> Dict:
    """Verify one leased unit; return the ``result`` message to send back.

    Shared by the worker loop and the coordinator's self-leased units, so a
    unit produces the same payload wherever it runs.  ``subgoal_table`` is
    the worker's warm view of the shared subgoal tier; it is updated in
    place with newly proved entries (which also travel back in the
    message).  ``store`` (a :class:`~repro.cluster.store.RemoteProofStore`)
    enables mid-unit reads: subgoals missing from the local table are
    probed against the shared tier before being re-proved.

    When the unit carries ``trace: true`` (the coordinator is tracing),
    the unit runs under an in-memory span collector and the drained batch
    rides back on the result message — the coordinator absorbs it into the
    merged run trace with this worker's attribution.
    """
    if unit.get("trace"):
        spec = unit.get("spec") or {}
        name = str(spec.get("name", "?"))
        if unit.get("kind") == "shard":
            name = f"{name}[{unit.get('shard_index')}/{unit.get('shard_count')}]"
        with _trace.collecting(
                node=f"{socket.gethostname()}-{os.getpid()}") as collector:
            with collector.span(name, kind="pass",
                                unit=unit.get("unit_id")) as handle:
                reply = _execute_unit(unit, registry, subgoal_table, store)
                handle.attrs["ok"] = bool(reply.get("ok"))
        reply["spans"] = collector.drain()
        return reply
    return _execute_unit(unit, registry, subgoal_table, store)


def _execute_unit(unit: Dict, registry: Dict[str, type],
                  subgoal_table: Dict[str, dict], store=None) -> Dict:
    started = time.perf_counter()
    try:
        from repro.verify.discharge import Discharger

        pass_class, pass_kwargs = resolve_pass_spec(unit["spec"], registry)
        solver = str(unit.get("solver", DEFAULT_SOLVER))
        discharger = Discharger(solver)
        expected_key = unit.get("key")
        if expected_key is not None:
            local_key = pass_fingerprint(pass_class, pass_kwargs, solver=solver)
            if local_key != expected_key:
                raise ProtocolError(
                    f"source skew: local fingerprint of "
                    f"{pass_class.__name__} does not match the "
                    f"coordinator's ({local_key} != {expected_key}); "
                    f"refusing to prove different code under its key"
                )
        fallback = make_store_fallback(store)
        if unit["kind"] == "shard":
            payload, acct = verify_pass_shard(
                pass_class, pass_kwargs,
                int(unit["shard_index"]), int(unit["shard_count"]),
                subgoal_table, discharger=discharger, fallback=fallback,
            )
        else:
            result, acct = _verify_one(
                pass_class, pass_kwargs,
                bool(unit.get("counterexample_search", True)),
                subgoal_table, discharger=discharger, fallback=fallback,
            )
            payload = result_to_payload(result)
    except Exception as exc:
        return {
            "op": "result",
            "unit_id": unit.get("unit_id"),
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=8),
            "wall_seconds": time.perf_counter() - started,
        }
    return {
        "op": "result",
        "unit_id": unit["unit_id"],
        "ok": True,
        "kind": unit["kind"],
        "payload": payload,
        "new_subgoals": acct.new_subgoals,
        "new_certificates": acct.new_certificates,
        "subgoal_hits": acct.hits,
        "subgoal_misses": acct.misses,
        "subgoal_remote_hits": acct.remote_hits,
        "subgoal_hit_keys": acct.hit_keys,
        "wall_seconds": time.perf_counter() - started,
    }


def run_worker(address: str, token: str, *,
               max_units: Optional[int] = None,
               timeout: float = 120.0,
               registry: Optional[Dict[str, type]] = None) -> int:
    """Connect to a coordinator and verify leased units until told to stop.

    Returns the number of units completed.  Exits cleanly on the
    coordinator's ``done`` message or when the connection closes; raises
    :class:`~repro.cluster.transport.TransportError` on handshake or
    version failures (callers surface those — they mean misconfiguration,
    not end-of-work).
    """
    # Warm the prover before asking for work: the first unit should pay
    # for proof search, not for importing and fingerprinting the toolchain.
    from repro.engine.fingerprint import toolchain_fingerprint

    registry = registry or pass_registry()
    toolchain = toolchain_fingerprint()

    connection = connect(address, timeout=timeout)
    connection.settimeout(timeout)
    try:
        welcome = client_hello(connection, token, host=socket.gethostname())
        coordinator_toolchain = welcome.get("toolchain")
        if coordinator_toolchain is not None and coordinator_toolchain != toolchain:
            raise TransportError(
                "toolchain fingerprint mismatch with the coordinator: this "
                "host runs different prover sources; refusing to join the "
                "cluster (proofs would be keyed inconsistently)"
            )
        store = RemoteProofStore(connection, active_fingerprint=toolchain)
        subgoal_table = store.subgoal_snapshot()
        completed = 0
        prove_seconds = 0.0
        inflight: Optional[str] = None
        while True:
            try:
                # Health gauges piggyback on the lease we were sending
                # anyway: protocol v1 peers that predate them ignore the
                # extra key (unknown fields are additive).
                connection.send({"op": "lease", "heartbeat": {
                    "inflight": inflight,
                    "units_done": completed,
                    "prove_seconds": round(prove_seconds, 6),
                    "rss_bytes": read_rss(),
                }})
                message = connection.recv()
            except TransportError:
                # A coordinator that finished (or died) while we were
                # between leases is normal end-of-work, not an error —
                # its results are already safe on its side.
                break
            if message is None:
                break
            op = message.get("op")
            if op == "done":
                break
            if op == "wait":
                time.sleep(min(float(message.get("seconds", 0.05)), 1.0))
                continue
            if op != "unit":
                continue
            subgoal_table.update(message.get("subgoal_updates") or {})
            unit = message["unit"]
            inflight = str(unit.get("unit_id") or "?")
            store.reset_io()
            reply = execute_unit(unit, registry, subgoal_table,
                                 store=store)
            store_io = store.io_totals()
            if store_io:
                # Per-unit remote-store io rides back on the result so the
                # coordinator can fold it into the run's store analytics
                # (additive field; older coordinators ignore it).
                reply["store_io"] = store_io
            inflight = None
            prove_seconds += float(reply.get("wall_seconds") or 0.0)
            try:
                connection.send(reply)
            except TransportError:
                break  # the unit will be re-leased or proved coordinator-side
            if reply.get("ok"):
                # Failed units (worker exception, source-skew refusal) are
                # the coordinator's to retry; they are not verified work.
                completed += 1
            if max_units is not None and completed >= max_units:
                break
        return completed
    finally:
        connection.close()
