"""The networked proof-store tier: a remote client for the shared cache.

Processes on one host share a warm proof store through its files.  This
module extends that across the network: the coordinator owns the real
store (the JSONL :class:`~repro.engine.cache.ProofCache`) and serves store
operations over its cluster connections; :class:`RemoteProofStore`
implements the same interface on the worker side, so a worker on another
host hits the one warm cache the whole fleet shares.

The operation set mirrors the cache interface method-for-method
(``get_pass``/``put_pass``/``get_subgoal``/``has_subgoal``/``put_subgoal``/
``subgoal_snapshot``/``touch_subgoals`` plus the dependency sidecar and the
subgoal-certificate tier), each a single request/response frame.  Workers
use the per-key ``get_subgoal`` *mid-unit*: a subgoal another worker proved
after this worker's last lease is served from the coordinator's warm tier
instead of being re-proved (see :func:`repro.cluster.worker.execute_unit`).  Workers use :meth:`subgoal_snapshot`
once at handshake for bulk warm-up and receive incremental updates
piggybacked on lease responses; the per-key operations cover everything
else (and make the store usable as a drop-in ``cache=`` for
:func:`repro.engine.verify_passes` in tests and tooling).
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List, Optional

from repro.engine.cache import CacheStats
from repro.cluster.transport import Connection, TransportError

#: Operations a worker may invoke on the coordinator's store, mapped to the
#: cache attribute they call.  Anything else is rejected — the store tier
#: must not become an arbitrary-RPC surface.
_STORE_OPS = {
    "store.get_pass": "get_pass",
    "store.put_pass": "put_pass",
    "store.get_subgoal": "get_subgoal",
    "store.has_subgoal": "has_subgoal",
    "store.put_subgoal": "put_subgoal",
    "store.subgoal_snapshot": "subgoal_snapshot",
    "store.touch_subgoals": "touch_subgoals",
    "store.get_deps": "get_deps",
    "store.put_deps": "put_deps",
    "store.deps_snapshot": "deps_snapshot",
    "store.get_certificate": "get_certificate",
    "store.put_certificate": "put_certificate",
    "store.certificate_snapshot": "certificate_snapshot",
}


#: Operations that mutate proof or dependency content.  ``touch_subgoals``
#: is deliberately not here: recency updates cannot change any verdict.
_WRITE_OPS = {"store.put_pass", "store.put_subgoal", "store.put_deps",
              "store.put_certificate"}


def is_store_op(message: Dict) -> bool:
    return message.get("op") in _STORE_OPS


def _entry_bytes(entry: Optional[dict]) -> int:
    """Approximate payload size of a fetched entry for io accounting.

    The entry just crossed the wire as JSON, so the canonical dump length
    is a faithful proxy; the dump cost is dwarfed by the roundtrip it
    accounts for.
    """
    if entry is None:
        return 0
    try:
        return len(json.dumps(entry, sort_keys=True))
    except (TypeError, ValueError):
        return 0


def serve_store_op(cache, message: Dict, allow_writes: bool = True) -> Dict:
    """Apply one store operation to the local cache; return the reply frame.

    The caller is responsible for serialising access (the JSONL tier is
    single-writer; the coordinator holds one lock across all connections).
    ``allow_writes=False`` rejects content-mutating operations — the
    cluster coordinator serves its workers read-only, so "workers never
    write the proof store directly" is enforced here, not just a
    convention of the worker loop (proved subgoals travel inside result
    messages and are written by the coordinator itself).
    """
    if not allow_writes and message["op"] in _WRITE_OPS:
        return {"op": "store.reply",
                "error": f"{message['op']} rejected: this store is served "
                         f"read-only (results carry writes back instead)"}
    if cache is None:
        # A stateless (--no-cache) coordinator has no store to serve;
        # workers treat the error like any store hiccup and re-prove
        # locally instead of killing the connection.
        return {"op": "store.reply",
                "error": f"{message['op']} rejected: this run has no proof "
                         f"store (--no-cache)"}
    args = message.get("args", [])
    try:
        value = getattr(cache, _STORE_OPS[message["op"]])(*args)
    except Exception as exc:  # a store hiccup must not kill the connection
        return {"op": "store.reply", "error": f"{type(exc).__name__}: {exc}"}
    return {"op": "store.reply", "value": value}


class RemoteProofStore:
    """Proof-cache interface served by a coordinator over one connection.

    Interface-compatible with :class:`~repro.engine.cache.ProofCache` for
    everything the engine driver touches.  Not thread-safe: one connection, one caller —
    exactly the worker loop's shape.  Note that the cluster coordinator
    serves workers *read-only*; the put methods raise
    :class:`~repro.cluster.transport.TransportError` against it (newly
    proved entries ride result messages instead), and exist for servers
    that opt into remote writes.
    """

    backend = "remote"
    directory = None

    def __init__(self, connection: Connection,
                 active_fingerprint: Optional[str] = None) -> None:
        self._connection = connection
        self.active_fingerprint = active_fingerprint
        self.stats = CacheStats()
        # Per-tier io counters for store analytics: the worker attaches the
        # per-unit delta to result messages and the coordinator merges it
        # into the run's StatsRecorder (non-canonical — timings differ
        # between runs, so they live in the "local" half of the payload).
        self._io: Dict[str, Dict[str, float]] = {}

    def _note_io(self, tier: str, *, hit: bool, seconds: float,
                 nbytes: int = 0) -> None:
        row = self._io.setdefault(
            tier, {"gets": 0, "hits": 0, "misses": 0,
                   "seconds": 0.0, "bytes": 0})
        row["gets"] += 1
        row["hits" if hit else "misses"] += 1
        row["seconds"] += seconds
        row["bytes"] += nbytes

    def io_totals(self) -> Dict[str, Dict[str, float]]:
        """Accumulated per-tier io counters since the last reset."""
        return {tier: dict(row) for tier, row in self._io.items()}

    def reset_io(self) -> None:
        self._io.clear()

    def _call(self, op: str, *args):
        self._connection.send({"op": op, "args": list(args)})
        while True:
            reply = self._connection.recv()
            if reply is None:
                raise TransportError("coordinator closed during a store call")
            if reply.get("op") == "store.reply":
                break
            # Interleaved non-store frames are a protocol error on this
            # connection (the worker loop never has both in flight).
            raise TransportError(
                f"unexpected frame {reply.get('op')!r} during a store call")
        if "error" in reply:
            raise TransportError(f"remote store error: {reply['error']}")
        return reply.get("value")

    # ------------------------------------------------------------------ #
    # Pass-level entries
    # ------------------------------------------------------------------ #
    def get_pass(self, key: Optional[str]) -> Optional[dict]:
        if key is None:
            self.stats.pass_misses += 1
            return None
        started = perf_counter()
        entry = self._call("store.get_pass", key)
        self._note_io("pass", hit=entry is not None,
                      seconds=perf_counter() - started,
                      nbytes=_entry_bytes(entry))
        if entry is None:
            self.stats.pass_misses += 1
        else:
            self.stats.pass_hits += 1
        return entry

    def put_pass(self, key: Optional[str], value: dict) -> None:
        if key is None:
            return
        self._call("store.put_pass", key, value)
        self.stats.stores += 1

    # ------------------------------------------------------------------ #
    # Subgoal-level entries
    # ------------------------------------------------------------------ #
    def get_subgoal(self, key: str) -> Optional[dict]:
        started = perf_counter()
        entry = self._call("store.get_subgoal", key)
        self._note_io("subgoal", hit=entry is not None,
                      seconds=perf_counter() - started,
                      nbytes=_entry_bytes(entry))
        if entry is None:
            self.stats.subgoal_misses += 1
        else:
            self.stats.subgoal_hits += 1
        return entry

    def has_subgoal(self, key: str) -> bool:
        return bool(self._call("store.has_subgoal", key))

    def put_subgoal(self, key: str, value: dict) -> None:
        self._call("store.put_subgoal", key, value)
        self.stats.stores += 1

    def subgoal_snapshot(self) -> Dict[str, dict]:
        return dict(self._call("store.subgoal_snapshot"))

    def touch_subgoals(self, keys: List[str]) -> None:
        keys = list(keys)
        if keys:
            self._call("store.touch_subgoals", keys)

    # ------------------------------------------------------------------ #
    # Certificate tier
    # ------------------------------------------------------------------ #
    def get_certificate(self, key: str) -> Optional[dict]:
        started = perf_counter()
        entry = self._call("store.get_certificate", key)
        self._note_io("certificate", hit=entry is not None,
                      seconds=perf_counter() - started,
                      nbytes=_entry_bytes(entry))
        return entry

    def put_certificate(self, key: str, value: dict) -> None:
        self._call("store.put_certificate", key, value)

    def certificate_snapshot(self) -> Dict[str, dict]:
        return dict(self._call("store.certificate_snapshot"))

    # ------------------------------------------------------------------ #
    # Dependency sidecar
    # ------------------------------------------------------------------ #
    def get_deps(self, key: str) -> Optional[dict]:
        return self._call("store.get_deps", key)

    def put_deps(self, key: str, value: dict) -> None:
        self._call("store.put_deps", key, value)

    def deps_snapshot(self) -> Dict[str, dict]:
        return dict(self._call("store.deps_snapshot"))

    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """No-op: every operation is synchronous on the coordinator side."""

    def close(self) -> None:
        """The connection belongs to the worker loop; nothing to release."""
