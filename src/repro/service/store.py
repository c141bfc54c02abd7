"""The shared sqlite proof-cache tier.

:class:`SqliteProofCache` implements the same interface as the JSONL
:class:`~repro.engine.cache.ProofCache`, so ``verify_passes`` (and therefore
the CLI, the pass manager, and the daemon) can use either backend.  Where the
JSONL cache is a single-writer append-only file, this store is built for many
concurrent clients:

* the database runs in WAL mode with a generous busy timeout, so readers
  never block writers and concurrent writers serialise instead of corrupting;
* every entry carries the toolchain fingerprint it was proved under, so
  entries written by an older prover are invisible (and reaped by ``prune``);
* hit counters and last-used timestamps are accumulated *in the database*
  (``hits = hits + 1``), so statistics stay correct when several processes
  share the store and eviction can be least-recently-used across all of them;
* the schema is versioned; a store written by an incompatible schema is
  rebuilt rather than misread (it is a cache — the proofs can be re-run).

``migrate_jsonl`` imports an existing JSONL cache one-shot, preserving each
entry's recorded fingerprint.

A ``deps`` table carries the incremental layer's dependency index (identity
key → fingerprint + module, and ``module:<sha256>`` → import names, see
:mod:`repro.incremental.deps`), gated by its own per-row schema number —
the sidecar analogue of the JSONL tier's ``deps.jsonl``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from repro.engine.cache import CacheStats

_DB_NAME = "proofs.sqlite"

#: Bump when the table layout changes incompatibly; mismatched stores are
#: rebuilt from scratch on open.  v2 adds the subgoal-certificate tier;
#: v3 gives that tier its own hit/recency accounting columns.
SCHEMA_VERSION = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS proofs (
    kind         TEXT NOT NULL,
    key          TEXT NOT NULL,
    fp           TEXT NOT NULL,
    value        TEXT NOT NULL,
    created_at   REAL NOT NULL,
    last_used_at REAL NOT NULL,
    hits         INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (kind, key)
);
CREATE INDEX IF NOT EXISTS proofs_lru ON proofs (last_used_at);
CREATE TABLE IF NOT EXISTS deps (
    key        TEXT PRIMARY KEY,
    schema     INTEGER NOT NULL,
    value      TEXT NOT NULL,
    updated_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS certs (
    key          TEXT NOT NULL PRIMARY KEY,
    fp           TEXT NOT NULL,
    value        TEXT NOT NULL,
    updated_at   REAL NOT NULL,
    last_used_at REAL NOT NULL DEFAULT 0,
    hits         INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS certs_lru ON certs (last_used_at);
"""


def sqlite_cache_path(directory: os.PathLike) -> Path:
    """The database file used by a store rooted at ``directory``."""
    return Path(directory) / _DB_NAME


#: Error messages that mean the file itself is damaged (vs. transiently
#: unavailable).  The exception class alone cannot distinguish: corruption
#: surfaces as plain DatabaseError, but "not a database" has been an
#: OperationalError in some Python/sqlite combinations.
_CORRUPTION_SIGNS = ("not a database", "malformed", "file is encrypted")


def _looks_corrupt(exc: sqlite3.DatabaseError) -> bool:
    message = str(exc).lower()
    if any(sign in message for sign in _CORRUPTION_SIGNS):
        return True
    # Non-operational database errors during PRAGMA/schema setup have no
    # transient cause left; treat them as corruption.
    return not isinstance(exc, sqlite3.OperationalError)


class SqliteProofCache:
    """A proof cache safe for concurrent readers and writers.

    Drop-in replacement for :class:`~repro.engine.cache.ProofCache`:
    ``directory=None`` gives an in-memory store (process-local, used by
    tests and ``--no-cache``-style runs), otherwise ``directory/proofs.sqlite``
    is created on demand.  ``max_entries`` (optional) prunes the store to an
    LRU bound on :meth:`close`.
    """

    backend = "sqlite"

    def __init__(self, directory: Optional[os.PathLike] = None,
                 active_fingerprint: Optional[str] = None,
                 max_entries: Optional[int] = None,
                 timeout: float = 30.0) -> None:
        from repro.engine.fingerprint import toolchain_fingerprint
        from repro.incremental.deps import split_module_rows

        self.directory = Path(directory) if directory is not None else None
        self.max_entries = max_entries
        self.stats = CacheStats()
        #: Optional :class:`repro.telemetry.stats.StatsRecorder`; attached
        #: per run by the driver, guarded on ``None`` at every hook site.
        self.recorder = None
        self._lock = threading.RLock()
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            target = str(sqlite_cache_path(self.directory))
        else:
            target = ":memory:"
        # Autocommit mode: every statement is its own transaction, so two
        # processes interleaving puts serialise at the sqlite layer; the
        # handler threads of one daemon share the connection under _lock.
        self._timeout = timeout
        self._conn: Optional[sqlite3.Connection] = self._connect(target)
        try:
            self._configure()
        except sqlite3.DatabaseError as exc:
            # Rebuild only on actual corruption ("not a database" header,
            # malformed image).  Transient operational errors — the store
            # locked by a long-running writer, a momentarily unopenable
            # file — must propagate: deleting the live shared store out
            # from under other clients is far worse than failing one open.
            self._conn.close()
            self._conn = None
            if self.directory is None or not _looks_corrupt(exc):
                raise
            # Losing cache entries is safe; misreading them is not.
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(target + suffix)
                except OSError:
                    pass
            self.stats.corrupt_lines += 1
            self._conn = self._connect(target)
            self._configure()
        # Module rows first: the toolchain digest that gates every proof
        # and certificate row is computed from them.  Their keys are kept
        # so put_deps writes each row once.
        records = self._dep_records()
        self._module_rows = set(records).difference(split_module_rows(records))
        self.active_fingerprint = active_fingerprint or toolchain_fingerprint()

    def _connect(self, target: str) -> sqlite3.Connection:
        return sqlite3.connect(
            target, timeout=self._timeout, isolation_level=None,
            check_same_thread=False,
        )

    # ------------------------------------------------------------------ #
    # Schema / connection management
    # ------------------------------------------------------------------ #
    def _configure(self) -> None:
        cursor = self._conn.cursor()
        try:
            cursor.execute("PRAGMA journal_mode=WAL")
        except sqlite3.DatabaseError:
            pass  # e.g. network filesystems; rollback journal still works
        cursor.execute("PRAGMA synchronous=NORMAL")
        cursor.execute("PRAGMA busy_timeout=30000")
        cursor.executescript(_SCHEMA)
        row = cursor.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            cursor.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
        elif row[0] != str(SCHEMA_VERSION):
            # Incompatible layout: rebuild.  Losing cache entries is safe;
            # misreading them is not.
            cursor.execute("DROP TABLE IF EXISTS proofs")
            cursor.execute("DROP TABLE IF EXISTS deps")
            cursor.execute("DROP TABLE IF EXISTS certs")
            cursor.execute("DELETE FROM meta")
            cursor.executescript(_SCHEMA)
            cursor.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )

    @property
    def path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return sqlite_cache_path(self.directory)

    def flush(self) -> None:
        """No-op for parity with the JSONL cache (writes are synchronous)."""

    def close(self) -> None:
        with self._lock:
            if self._conn is None:
                return
            if self.max_entries is not None:
                self.prune(self.max_entries)
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "SqliteProofCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Reads / writes
    # ------------------------------------------------------------------ #
    def _get(self, kind: str, key: str) -> Optional[dict]:
        recorder = self.recorder
        started = time.perf_counter() if recorder is not None else 0.0
        entry, nbytes = self._get_inner(kind, key)
        if recorder is not None:
            recorder.note_io(kind, hit=entry is not None, nbytes=nbytes,
                             seconds=time.perf_counter() - started)
        return entry

    def _get_inner(self, kind: str, key: str) -> Tuple[Optional[dict], int]:
        with self._lock:
            row = self._conn.execute(
                "SELECT fp, value FROM proofs WHERE kind = ? AND key = ?",
                (kind, key),
            ).fetchone()
            if row is None:
                return None, 0
            fingerprint, value = row
            if fingerprint != self.active_fingerprint:
                self.stats.invalidated += 1
                return None, 0
            self._conn.execute(
                "UPDATE proofs SET hits = hits + 1, last_used_at = ? "
                "WHERE kind = ? AND key = ?",
                (time.time(), kind, key),
            )
            try:
                return json.loads(value), len(value)
            except json.JSONDecodeError:
                self.stats.corrupt_lines += 1
                return None, 0

    def _put(self, kind: str, key: str, value: dict) -> None:
        now = time.time()
        with self._lock:
            # Re-proving under a new toolchain resets the hit counter: the
            # old prover's tally must not be attributed to the new proof.
            self._conn.execute(
                "INSERT INTO proofs (kind, key, fp, value, created_at, last_used_at, hits) "
                "VALUES (?, ?, ?, ?, ?, ?, 0) "
                "ON CONFLICT (kind, key) DO UPDATE SET "
                "hits = CASE WHEN proofs.fp = excluded.fp THEN proofs.hits ELSE 0 END, "
                "fp = excluded.fp, value = excluded.value, "
                "last_used_at = excluded.last_used_at",
                (kind, key, self.active_fingerprint, json.dumps(value, sort_keys=True), now, now),
            )
            self.stats.stores += 1

    def get_pass(self, key: Optional[str]) -> Optional[dict]:
        if key is None:
            self.stats.pass_misses += 1
            return None
        entry = self._get("pass", key)
        if entry is None:
            self.stats.pass_misses += 1
        else:
            self.stats.pass_hits += 1
        return entry

    def put_pass(self, key: Optional[str], value: dict) -> None:
        if key is None:
            return
        self._put("pass", key, value)

    def get_subgoal(self, key: str) -> Optional[dict]:
        entry = self._get("subgoal", key)
        if entry is None:
            self.stats.subgoal_misses += 1
        else:
            self.stats.subgoal_hits += 1
        return entry

    def has_subgoal(self, key: str) -> bool:
        """Membership test that does not touch the hit/miss counters."""
        with self._lock:
            row = self._conn.execute(
                "SELECT fp FROM proofs WHERE kind = 'subgoal' AND key = ?",
                (key,),
            ).fetchone()
        return row is not None and row[0] == self.active_fingerprint

    def put_subgoal(self, key: str, value: dict) -> None:
        self._put("subgoal", key, value)

    def subgoal_snapshot(self) -> Dict[str, dict]:
        """A plain-dict copy of the live subgoal table, shippable to workers."""
        snapshot: Dict[str, dict] = {}
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, value FROM proofs WHERE kind = 'subgoal' AND fp = ?",
                (self.active_fingerprint,),
            ).fetchall()
        for key, value in rows:
            try:
                snapshot[key] = json.loads(value)
            except json.JSONDecodeError:
                self.stats.corrupt_lines += 1
        return snapshot

    def touch_subgoals(self, keys) -> None:
        """Refresh recency and hit counts for snapshot-served subgoals.

        The engine reads subgoals through :meth:`subgoal_snapshot`, which
        cannot update per-row counters; the driver reports back which keys
        it actually reused so LRU eviction and the accumulated hit
        statistics see the subgoal tier's real traffic.
        """
        keys = list(keys)
        if not keys:
            return
        now = time.time()
        with self._lock:
            self._conn.executemany(
                "UPDATE proofs SET hits = hits + 1, last_used_at = ? "
                "WHERE kind = 'subgoal' AND key = ?",
                [(now, key) for key in keys],
            )

    # ------------------------------------------------------------------ #
    # Certificate tier (the subgoal evidence objects)
    # ------------------------------------------------------------------ #
    def get_certificate(self, key: str) -> Optional[dict]:
        """The certificate recorded for one subgoal fingerprint, or ``None``.

        Hits accumulate in the database (like the proof tiers), so the
        certificate tier's traffic is visible across every client sharing
        the store, and counted in this handle's ``stats`` separately from
        the subgoal tier's counters.
        """
        recorder = self.recorder
        started = time.perf_counter() if recorder is not None else 0.0
        with self._lock:
            row = self._conn.execute(
                "SELECT fp, value FROM certs WHERE key = ?", (key,),
            ).fetchone()
            if row is None or row[0] != self.active_fingerprint:
                self.stats.cert_misses += 1
                if recorder is not None:
                    recorder.note_io("certificate", hit=False,
                                     seconds=time.perf_counter() - started)
                return None
            self._conn.execute(
                "UPDATE certs SET hits = hits + 1, last_used_at = ? "
                "WHERE key = ?",
                (time.time(), key),
            )
        self.stats.cert_hits += 1
        if recorder is not None:
            recorder.note_io("certificate", hit=True, nbytes=len(row[1]),
                             seconds=time.perf_counter() - started)
        try:
            return json.loads(row[1])
        except json.JSONDecodeError:
            self.stats.corrupt_lines += 1
            return None

    def put_certificate(self, key: str, value: dict) -> None:
        """Record (or refresh) one subgoal's proof certificate."""
        now = time.time()
        with self._lock:
            # A certificate re-minted under a new toolchain starts its hit
            # count over, mirroring the proof tiers' contract.
            self._conn.execute(
                "INSERT INTO certs (key, fp, value, updated_at, last_used_at, hits) "
                "VALUES (?, ?, ?, ?, ?, 0) "
                "ON CONFLICT (key) DO UPDATE SET "
                "hits = CASE WHEN certs.fp = excluded.fp THEN certs.hits ELSE 0 END, "
                "fp = excluded.fp, value = excluded.value, "
                "updated_at = excluded.updated_at, "
                "last_used_at = excluded.last_used_at",
                (key, self.active_fingerprint,
                 json.dumps(value, sort_keys=True), now, now),
            )
            self.stats.cert_stores += 1

    def certificate_snapshot(self) -> Dict[str, dict]:
        """A plain-dict copy of the live certificate tier."""
        snapshot: Dict[str, dict] = {}
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, value FROM certs WHERE fp = ?",
                (self.active_fingerprint,),
            ).fetchall()
        for key, value in rows:
            try:
                snapshot[key] = json.loads(value)
            except json.JSONDecodeError:
                self.stats.corrupt_lines += 1
        return snapshot

    # ------------------------------------------------------------------ #
    # Dependency sidecar (incremental re-verification)
    # ------------------------------------------------------------------ #
    def get_deps(self, key: str) -> Optional[dict]:
        """The dependency entry recorded under ``key``, or ``None``.

        Entries written under another sidecar schema are invisible, exactly
        like proofs written under another toolchain fingerprint.
        """
        from repro.incremental.deps import DEPS_SCHEMA_VERSION

        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM deps WHERE key = ? AND schema = ?",
                (key, DEPS_SCHEMA_VERSION),
            ).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except json.JSONDecodeError:
            self.stats.corrupt_lines += 1
            return None

    def put_deps(self, key: str, value: dict) -> None:
        """Record (or refresh) one dependency entry.

        The module rows the entry reaches go in first, so an entry is never
        visible without its closure.
        """
        from repro.incremental.deps import DEPS_SCHEMA_VERSION, module_row_records

        records = {row: record for row, record in module_row_records([value]).items()
                   if row not in self._module_rows}
        records[key] = value
        now = time.time()
        with self._lock:
            self._conn.executemany(
                "INSERT INTO deps (key, schema, value, updated_at) "
                "VALUES (?, ?, ?, ?) "
                "ON CONFLICT (key) DO UPDATE SET "
                "schema = excluded.schema, value = excluded.value, "
                "updated_at = excluded.updated_at",
                [(row, DEPS_SCHEMA_VERSION, json.dumps(record, sort_keys=True), now)
                 for row, record in records.items()],
            )
            self._module_rows.update(row for row in records if row != key)

    def _dep_records(self) -> Dict[str, dict]:
        """Every current-schema row of the deps table: entries and module rows."""
        from repro.incremental.deps import DEPS_SCHEMA_VERSION

        records: Dict[str, dict] = {}
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, value FROM deps WHERE schema = ?",
                (DEPS_SCHEMA_VERSION,),
            ).fetchall()
        for key, value in rows:
            try:
                records[key] = json.loads(value)
            except json.JSONDecodeError:
                self.stats.corrupt_lines += 1
        return records

    def deps_snapshot(self) -> Dict[str, dict]:
        """A plain-dict copy of the (current-schema) dependency index."""
        from repro.incremental.deps import split_module_rows

        return split_module_rows(self._dep_records())

    def gc_deps(self, live_keys) -> int:
        """Drop dependency rows whose identity key is not in ``live_keys``.

        Same contract as :meth:`ProofCache.gc_deps <repro.engine.cache.ProofCache.gc_deps>`:
        removing a row is always sound (the configuration re-records itself
        if ever verified again), and module rows no surviving entry reaches
        go with them.  Returns the number of entries removed.
        """
        from repro.incremental.deps import MODULE_ROW_PREFIX, module_row_records

        live = set(live_keys)
        live.update(module_row_records(
            value for key, value in self.deps_snapshot().items() if key in live))
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, LENGTH(value) FROM deps").fetchall()
            doomed = [(key, size) for key, size in rows if key not in live]
            if doomed:
                self._conn.executemany(
                    "DELETE FROM deps WHERE key = ?",
                    [(key,) for key, _ in doomed],
                )
        self._module_rows.difference_update(key for key, _ in doomed)
        removed = sum(not key.startswith(MODULE_ROW_PREFIX) for key, _ in doomed)
        self.stats.deps_reclaimed += removed
        self.stats.dep_bytes_reclaimed += sum(size or 0 for _, size in doomed)
        return removed

    # ------------------------------------------------------------------ #
    # Eviction / maintenance
    # ------------------------------------------------------------------ #
    def prune(self, max_entries: int) -> int:
        """Evict stale-fingerprint rows, then LRU rows beyond ``max_entries``.

        Recency is the cross-process ``last_used_at`` column, so the store
        keeps what *any* client used recently.  Returns the number of rows
        evicted.
        """
        max_entries = max(0, int(max_entries))
        journal = []
        with self._lock:
            cursor = self._conn.cursor()
            cursor.execute("BEGIN IMMEDIATE")
            try:
                from repro.incremental.deps import DEPS_SCHEMA_VERSION

                # Each category SELECTs its doomed rows first so eviction
                # can report reclaimed bytes per tier and journal the
                # LRU-evicted keys for wasted-eviction accounting.
                dep_bytes = cursor.execute(
                    "SELECT COALESCE(SUM(LENGTH(value)), 0) FROM deps "
                    "WHERE schema != ?", (DEPS_SCHEMA_VERSION,),
                ).fetchone()[0]
                cursor.execute("DELETE FROM deps WHERE schema != ?",
                               (DEPS_SCHEMA_VERSION,))
                deps_reclaimed = cursor.rowcount
                proof_bytes = cursor.execute(
                    "SELECT COALESCE(SUM(LENGTH(value)), 0) FROM proofs "
                    "WHERE fp != ?", (self.active_fingerprint,),
                ).fetchone()[0]
                cursor.execute("DELETE FROM proofs WHERE fp != ?",
                               (self.active_fingerprint,))
                evicted = cursor.rowcount
                overflow = cursor.execute(
                    "SELECT kind, key, LENGTH(value) FROM proofs "
                    "ORDER BY last_used_at DESC, kind, key "
                    "LIMIT -1 OFFSET ?",
                    (max_entries,),
                ).fetchall()
                if overflow:
                    cursor.executemany(
                        "DELETE FROM proofs WHERE kind = ? AND key = ?",
                        [(kind, key) for kind, key, _ in overflow],
                    )
                    evicted += len(overflow)
                    proof_bytes += sum(size or 0 for _, _, size in overflow)
                    journal.extend((kind, key) for kind, key, _ in overflow)
                # Certificates live and die with their subgoal entry; only
                # orphans of a *live* fingerprint were evicted too eagerly,
                # so only those enter the journal.
                doomed_certs = cursor.execute(
                    "SELECT key, fp, LENGTH(value) FROM certs "
                    "WHERE fp != ? OR key NOT IN ("
                    "  SELECT key FROM proofs WHERE kind = 'subgoal')",
                    (self.active_fingerprint,),
                ).fetchall()
                if doomed_certs:
                    cursor.executemany(
                        "DELETE FROM certs WHERE key = ?",
                        [(key,) for key, _, _ in doomed_certs],
                    )
                certs_evicted = len(doomed_certs)
                cert_bytes = sum(size or 0 for _, _, size in doomed_certs)
                journal.extend(
                    ("certificate", key) for key, fp, _ in doomed_certs
                    if fp == self.active_fingerprint)
                cursor.execute("COMMIT")
            except BaseException:
                cursor.execute("ROLLBACK")
                raise
        self.stats.evicted += evicted
        self.stats.certs_evicted += max(0, certs_evicted)
        # Dep rows reaped for schema staleness are reported separately so
        # ``repro cache prune`` can say what the sidecar reclaimed.
        self.stats.deps_reclaimed += max(0, deps_reclaimed)
        self.stats.proof_bytes_reclaimed += int(proof_bytes or 0)
        self.stats.cert_bytes_reclaimed += int(cert_bytes or 0)
        self.stats.dep_bytes_reclaimed += int(dep_bytes or 0)
        if journal and self.directory is not None:
            from repro.telemetry.stats import append_evictions

            try:
                append_evictions(self.directory, journal)
            except OSError:
                pass
        return evicted

    def compact(self) -> None:
        """Reclaim file space after eviction (``VACUUM``)."""
        with self._lock:
            self._conn.execute("VACUUM")

    def hit_count(self, kind: str, key: str) -> int:
        """Cross-process accumulated hit count for one entry (0 if absent)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT hits FROM proofs WHERE kind = ? AND key = ?",
                (kind, key),
            ).fetchone()
        return int(row[0]) if row is not None else 0

    def summary(self) -> Dict[str, object]:
        """Whole-store statistics for ``repro status`` and reports."""
        with self._lock:
            total, live, hits = self._conn.execute(
                "SELECT COUNT(*), "
                "       SUM(CASE WHEN fp = ? THEN 1 ELSE 0 END), "
                "       SUM(hits) FROM proofs",
                (self.active_fingerprint,),
            ).fetchone()
            passes = self._conn.execute(
                "SELECT COUNT(*) FROM proofs WHERE kind = 'pass' AND fp = ?",
                (self.active_fingerprint,),
            ).fetchone()[0]
            certs, cert_hits = self._conn.execute(
                "SELECT COUNT(*), SUM(hits) FROM certs WHERE fp = ?",
                (self.active_fingerprint,),
            ).fetchone()
            payload_bytes = self._conn.execute(
                "SELECT COALESCE(SUM(LENGTH(value)), 0) FROM proofs "
                "WHERE fp = ?", (self.active_fingerprint,),
            ).fetchone()[0]
            cert_payload_bytes = self._conn.execute(
                "SELECT COALESCE(SUM(LENGTH(value)), 0) FROM certs "
                "WHERE fp = ?", (self.active_fingerprint,),
            ).fetchone()[0]
        return {
            "backend": self.backend,
            "path": str(self.path) if self.path is not None else None,
            "entries_total": int(total or 0),
            "entries_live": int(live or 0),
            "entries_stale": int(total or 0) - int(live or 0),
            "pass_entries": int(passes or 0),
            "subgoal_entries": int(live or 0) - int(passes or 0),
            "accumulated_hits": int(hits or 0),
            "cert_entries": int(certs or 0),
            "cert_accumulated_hits": int(cert_hits or 0),
            "payload_bytes": int(payload_bytes or 0),
            "cert_payload_bytes": int(cert_payload_bytes or 0),
            "schema_version": SCHEMA_VERSION,
        }

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM proofs WHERE fp = ?",
                (self.active_fingerprint,),
            ).fetchone()
        return int(row[0])

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM proofs WHERE key = ? AND fp = ? LIMIT 1",
                (key, self.active_fingerprint),
            ).fetchone()
        return row is not None

    def entries(self) -> Iterator[Tuple[str, str, dict]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT kind, key, value FROM proofs WHERE fp = ? "
                "ORDER BY kind, key",
                (self.active_fingerprint,),
            ).fetchall()
        for kind, key, value in rows:
            try:
                yield kind, key, json.loads(value)
            except json.JSONDecodeError:
                self.stats.corrupt_lines += 1


def migrate_jsonl(directory: os.PathLike,
                  store: Optional[SqliteProofCache] = None) -> int:
    """One-shot import of a JSONL cache into the sqlite store.

    Reads ``directory/proofs.jsonl`` (the :class:`ProofCache` layout) and
    inserts every well-formed entry *with its recorded fingerprint* — stale
    entries stay stale, they are just carried over for bookkeeping and later
    reaped by ``prune``.  Existing sqlite rows win over migrated ones (the
    store is at least as fresh as the file).  Returns the number of entries
    migrated.  The JSONL file is left untouched.
    """
    jsonl_path = Path(directory) / "proofs.jsonl"
    if not jsonl_path.exists():
        return 0
    own_store = store is None
    if own_store:
        store = SqliteProofCache(directory)
    # JSONL is append-only with last-write-wins, so fold the file into a map
    # first; insertion order then preserves the file's recency order.
    entries: Dict[Tuple[str, str], Tuple[str, dict]] = {}
    hit_counts: Dict[Tuple[str, str], int] = {}
    corrupt = 0
    with open(jsonl_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                kind = entry["kind"]
                if kind == "touch":
                    # Recency marker appended by a warm JSONL session:
                    # replay the reorder so the migrated rows inherit the
                    # file's true LRU order (and the accumulated hit total
                    # the record carries, if any — absolute, last write
                    # wins, same as the JSONL loader reads it).
                    ref = "pass" if entry["ref"] == "pass" else "subgoal"
                    reused = entries.pop((ref, entry["key"]), None)
                    if reused is not None:
                        entries[(ref, entry["key"])] = reused
                        if isinstance(entry.get("hits"), int):
                            hit_counts[(ref, entry["key"])] = entry["hits"]
                    continue
                key, fingerprint = entry["key"], entry["fp"]
                value = entry["value"]
            except (json.JSONDecodeError, KeyError, TypeError):
                corrupt += 1
                continue
            entries.pop((kind, key), None)
            entries[(kind, key)] = (fingerprint, value)
            if isinstance(entry.get("hits"), int):
                hit_counts[(kind, key)] = entry["hits"]
    migrated = 0
    now = time.time()
    try:
        store.stats.corrupt_lines += corrupt
        with store._lock:
            for offset, ((kind, key), (fingerprint, value)) in enumerate(entries.items()):
                cursor = store._conn.execute(
                    "INSERT OR IGNORE INTO proofs "
                    "(kind, key, fp, value, created_at, last_used_at, hits) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (kind, key, fingerprint, json.dumps(value, sort_keys=True),
                     now, now + offset * 1e-6,
                     hit_counts.get((kind, key), 0)),
                )
                migrated += cursor.rowcount
    finally:
        if own_store:
            store.close()
    return migrated
