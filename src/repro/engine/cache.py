"""A persistent, content-addressed proof cache.

The cache is an append-only JSON-lines file (one entry per line) holding two
kinds of records: whole-pass verification results and individual subgoal
discharge results.  Keys are the SHA-256 fingerprints computed by
:mod:`repro.engine.fingerprint`, which embed the active toolchain
hash — so entries written against an older prover are *structurally* stale:
they can never be hit, are counted as invalidated on load, and are dropped
the next time the file is compacted.

Within one run the cache is written only by the process that verifies.
Separate processes on one directory — CLI runs, ``repro watch`` cycles,
pass managers — share the files without locks: each appends whole lines,
and every record is keyed by its content fingerprint and gated by the
toolchain digest, so a race can cost warmth but never a verdict.  Hit totals are absolute and the last writer
wins; a long-lived process does not see other processes' appends until it
reopens; one process's compaction can drop another's concurrent appends.
A writer that dies mid-append leaves a torn last line: the next session
ends it before appending, counts it as an unreadable line, and compacts
the file on close.

Next to the proof file lives a schema-versioned *dependency sidecar*
(``deps.jsonl``): one record per verified configuration mapping its identity
key to the fingerprint it last verified to and its module, plus the module
rows its source files are derived from (see :mod:`repro.incremental.deps`),
read first because the toolchain hash is computed from them.  Records
written under another sidecar schema are ignored on load and rewritten on
the next verification — never misread.

A second sidecar (``certs.jsonl``) holds the *subgoal certificate tier*:
one :class:`~repro.prover.certificate.ProofCertificate` payload per
discharged subgoal, keyed by the subgoal fingerprint and gated by the same
toolchain fingerprint as the proofs.  Certificates are evidence, never
inputs to a verdict — losing them is always safe — so they live and die
with their subgoal entry (pruning a subgoal drops its certificate).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

_FILE_NAME = "proofs.jsonl"
_DEPS_FILE_NAME = "deps.jsonl"
_CERTS_FILE_NAME = "certs.jsonl"


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters for one engine run."""

    pass_hits: int = 0
    pass_misses: int = 0
    subgoal_hits: int = 0
    subgoal_misses: int = 0
    stores: int = 0
    invalidated: int = 0      # entries from an older rule set / engine version
    corrupt_lines: int = 0    # unreadable lines skipped while loading
    evicted: int = 0          # entries dropped by LRU pruning
    deps_reclaimed: int = 0   # dependency-sidecar rows dropped by gc/prune
    # Reclaimed payload bytes per tier (serialized-value sizes), so
    # ``repro cache prune|gc`` can report what the eviction actually bought.
    proof_bytes_reclaimed: int = 0
    cert_bytes_reclaimed: int = 0
    dep_bytes_reclaimed: int = 0
    # The certificate tier keeps its own accounting (it used to shadow the
    # subgoal tier's counters, which made its behaviour invisible).
    cert_hits: int = 0
    cert_misses: int = 0
    cert_stores: int = 0
    certs_evicted: int = 0    # certificates dropped when their subgoal died


def _dumps(record) -> str:
    """One store record as the files hold it: sorted keys, no spaces.

    Every record of the three files is written through here, and the byte
    counts (payload bytes, reclaimed bytes) measure values the same way.
    Records written with the default separators load alike.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def _open_append(path):
    """An append handle on ``path`` whose first record starts a fresh line.

    A writer that dies mid-append leaves the file without its final
    newline; the newline written here ends that fragment (it rides the
    first flush), so the fragment cannot swallow the next record.
    """
    handle = open(path, "a", encoding="utf-8")
    if handle.tell():
        with open(path, "rb") as tail:
            tail.seek(-1, os.SEEK_END)
            if tail.read(1) != b"\n":
                handle.write("\n")
    return handle


def _read_deps_file(path) -> Tuple[Dict[str, dict], int, int]:
    """Parse one ``deps.jsonl``: (entries and rows, dead lines, corrupt lines).

    Last write wins; records written under another sidecar schema are
    dropped rather than misread (the next verification rewrites them).
    """
    from repro.incremental.deps import DEPS_SCHEMA_VERSION

    deps: Dict[str, dict] = {}
    dead = corrupt = 0
    if path is None or not os.path.exists(path):
        return deps, dead, corrupt
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                key, value = record["key"], record["value"]
                schema = value["schema"]
                if not isinstance(key, str):
                    raise TypeError(key)  # module rows are told apart by key
            except (json.JSONDecodeError, KeyError, TypeError):
                corrupt += 1
                dead += 1
                continue
            if schema != DEPS_SCHEMA_VERSION:
                dead += 1
                continue
            if key in deps:
                dead += 1
            deps[key] = value
    return deps, dead, corrupt


def read_deps_sidecar(directory: os.PathLike) -> Dict[str, dict]:
    """The JSONL tier's dependency index, read without loading the proofs.

    The watcher (``repro watch``) needs only the sidecar; parsing the
    whole ``proofs.jsonl`` after every cycle would be pure waste.  The
    sidecar's module rows join the module graph on the way.
    """
    from repro.incremental.deps import split_module_rows

    records, _, _ = _read_deps_file(Path(directory) / _DEPS_FILE_NAME)
    return split_module_rows(records)


class ProofCache:
    """Persistent map from proof fingerprints to verification outcomes.

    ``directory=None`` gives a purely in-memory cache (used by ``--no-cache``
    runs that still want subgoal-level sharing within the process).
    """

    backend = "jsonl"

    def __init__(self, directory: Optional[os.PathLike] = None,
                 active_fingerprint: Optional[str] = None) -> None:
        from repro.engine.fingerprint import toolchain_fingerprint

        self.directory = Path(directory) if directory is not None else None
        self.stats = CacheStats()
        #: Optional :class:`repro.telemetry.stats.StatsRecorder`; the driver
        #: attaches one per run.  Every hook site guards on ``None`` so the
        #: disabled path costs one attribute read per access.
        self.recorder = None
        self._passes: Dict[str, dict] = {}
        self._subgoals: Dict[str, dict] = {}
        #: Accumulated per-key hit counters, persisted across sessions.
        self._hits: Dict[Tuple[str, str], int] = {}
        #: Totals already durable in the file (loaded, or appended this
        #: session); close() re-appends only the keys that advanced.
        self._hits_written: Dict[Tuple[str, str], int] = {}
        self._cert_hits: Dict[str, int] = {}
        self._cert_hits_dirty = False
        #: Combined recency order over both tables; earliest = least recently
        #: used.  Values are unused (an ordered set, spelled as a dict).
        self._lru: Dict[Tuple[str, str], None] = {}
        self._handle = None
        self._dead_lines = 0
        #: Keys whose reuse was already recorded this session.  Reuse is
        #: persisted as lightweight append-only ``touch`` records (once per
        #: key per session, appended at hit time so they interleave
        #: chronologically with stores), so a later prune evicts by real
        #: use — rewriting the whole file on every warm run (and clobbering
        #: concurrent appenders) would be far too heavy.
        self._touched: Dict[Tuple[str, str], None] = {}
        #: Dependency sidecar: identity key -> dep entry, plus the module
        #: rows (see repro.incremental.deps).  Schema-gated, last-write-wins.
        self._deps: Dict[str, dict] = {}
        self._deps_handle = None
        self._deps_dead = 0
        #: Certificate sidecar: subgoal key -> certificate payload (see
        #: repro.prover.certificate).  Fingerprint-gated like the proofs.
        self._certs: Dict[str, dict] = {}
        #: The certificate tier's own recency order (earliest = least
        #: recently used), independent of the proof tables' ``_lru``.
        self._certs_lru: Dict[str, None] = {}
        self._certs_handle = None
        self._certs_dead = 0
        #: Files whose load dropped an unreadable line; close() compacts them.
        self._damaged: Set[Path] = set()
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            # Module rows first: the toolchain digest that gates every
            # proof and certificate record is computed from them.
            self._load_deps()
        self.active_fingerprint = active_fingerprint or toolchain_fingerprint()
        if self.directory is not None:
            self._load()
            self._load_certs()
            self._handle = _open_append(self.path)
            self._deps_handle = _open_append(self.deps_path)
            self._certs_handle = _open_append(self.certs_path)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @property
    def path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / _FILE_NAME

    @property
    def deps_path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / _DEPS_FILE_NAME

    @property
    def certs_path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / _CERTS_FILE_NAME

    def _load(self) -> None:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    kind = entry["kind"]
                    if kind == "touch":
                        # Recency marker appended by an earlier session:
                        # reorder, don't insert.  Since the hit counters
                        # became durable the record also carries the key's
                        # accumulated total (absolute, last write wins).
                        ref, key = entry["ref"], entry["key"]
                        ref = "pass" if ref == "pass" else "subgoal"
                        table = self._passes if ref == "pass" else self._subgoals
                        if key in table:
                            self._touch(ref, key)
                            hits = entry.get("hits")
                            if isinstance(hits, int):
                                self._hits[(ref, key)] = hits
                                self._hits_written[(ref, key)] = hits
                        self._dead_lines += 1
                        continue
                    key, fingerprint = entry["key"], entry["fp"]
                    value = entry["value"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    self.stats.corrupt_lines += 1
                    self._damaged.add(self.path)
                    self._dead_lines += 1
                    continue
                if fingerprint != self.active_fingerprint:
                    self.stats.invalidated += 1
                    self._dead_lines += 1
                    continue
                table = self._passes if kind == "pass" else self._subgoals
                if key in table:
                    self._dead_lines += 1
                table[key] = value
                kind = kind if kind == "pass" else "subgoal"
                self._touch(kind, key)
                hits = entry.get("hits")
                if isinstance(hits, int):
                    # Compaction folds the accumulated total into the entry
                    # record itself (there are no touch records after one).
                    self._hits[(kind, key)] = hits
                    self._hits_written[(kind, key)] = hits

    def _load_deps(self) -> None:
        from repro.incremental.deps import split_module_rows

        self._deps, self._deps_dead, corrupt = _read_deps_file(self.deps_path)
        self.stats.corrupt_lines += corrupt
        if corrupt:
            self._damaged.add(self.deps_path)
        split_module_rows(self._deps)

    def _load_certs(self) -> None:
        if not self.certs_path.exists():
            return
        with open(self.certs_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    key, fingerprint = record["key"], record["fp"]
                    value = record["value"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    self.stats.corrupt_lines += 1
                    self._damaged.add(self.certs_path)
                    self._certs_dead += 1
                    continue
                if fingerprint != self.active_fingerprint:
                    self._certs_dead += 1
                    continue
                if key in self._certs:
                    self._certs_dead += 1
                self._certs[key] = value
                self._touch_cert(key)
                hits = record.get("hits")
                if isinstance(hits, int):
                    self._cert_hits[key] = hits

    def _append(self, kind: str, key: str, value: dict) -> None:
        if self._handle is None:
            return
        record = {"kind": kind, "key": key, "fp": self.active_fingerprint, "value": value}
        self._handle.write(_dumps(record) + "\n")
        self._handle.flush()

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        """Flush and release the file handles, compacting if mostly dead.

        Recency is already durable: reuse appended ``touch`` records at hit
        time (the loader replays them in file order), and those count as
        dead lines, so the mostly-dead threshold bounds file growth.  A
        file whose load dropped an unreadable line is compacted regardless,
        so one session heals it.
        """
        if self._handle is None:
            return
        self._flush_hit_counters()
        live = len(self._passes) + len(self._subgoals)
        if self._dead_lines > max(64, live) or self.path in self._damaged:
            self.compact()
        self._handle.close()
        self._handle = None
        if self._deps_handle is not None:
            if self._deps_dead > max(16, len(self._deps)) \
                    or self.deps_path in self._damaged:
                self._compact_deps()
            self._deps_handle.close()
            self._deps_handle = None
        if self._certs_handle is not None:
            if self._certs_dead > max(16, len(self._certs)) \
                    or self._cert_hits_dirty or self.certs_path in self._damaged:
                self._compact_certs()
            self._certs_handle.close()
            self._certs_handle = None

    def _flush_hit_counters(self) -> None:
        """Re-append touch records for keys whose hit total advanced.

        The first hit per key per session rode its own touch record; later
        hits only moved the in-memory counter.  Appending the final totals
        in LRU order keeps the loader's recency reconstruction intact.  A
        crash between sessions loses at most this tail — an acceptable
        trade for never rewriting the file on the hot path.
        """
        if self._handle is None:
            return
        for kind, key in list(self._lru):
            count = self._hits.get((kind, key), 0)
            if count > self._hits_written.get((kind, key), 0):
                record = {"kind": "touch", "ref": kind, "key": key,
                          "hits": count}
                self._handle.write(_dumps(record) + "\n")
                self._hits_written[(kind, key)] = count
                self._dead_lines += 1

    def compact(self) -> None:
        """Rewrite the file keeping only live, current-fingerprint entries.

        Entries are written least-recently-used first: the loader rebuilds
        recency from file order, so pruning stays correct across reopens.
        """
        if self.directory is None:
            return
        if self._handle is not None:
            self._handle.close()
        tmp_path = self.path.with_suffix(".tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for kind, key in self._lru:
                table = self._passes if kind == "pass" else self._subgoals
                if key not in table:
                    continue
                record = {"kind": kind, "key": key,
                          "fp": self.active_fingerprint, "value": table[key]}
                hits = self._hits.get((kind, key), 0)
                if hits:
                    record["hits"] = hits
                handle.write(_dumps(record) + "\n")
        os.replace(tmp_path, self.path)
        self._dead_lines = 0
        self._damaged.discard(self.path)
        self._touched.clear()   # recency is now encoded in the file order
        self._hits = {pair: count for pair, count in self._hits.items()
                      if pair in self._lru}
        self._hits_written = dict(self._hits)
        self._handle = open(self.path, "a", encoding="utf-8")

    def __enter__(self) -> "ProofCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #
    def _touch(self, kind: str, key: str) -> None:
        """Mark ``(kind, key)`` as most recently used (in memory only)."""
        self._lru.pop((kind, key), None)
        self._lru[(kind, key)] = None

    def _note_touch(self, kind: str, key: str) -> None:
        """Record a reuse: bump the durable hit counter and recency.

        The first reuse per key per session appends a touch record carrying
        the new absolute total; later reuses only advance the in-memory
        counter (close() re-appends the totals that moved).
        """
        self._touch(kind, key)
        self._hits[(kind, key)] = self._hits.get((kind, key), 0) + 1
        if (kind, key) in self._touched or self._handle is None:
            return
        self._touched[(kind, key)] = None
        record = {"kind": "touch", "ref": kind, "key": key,
                  "hits": self._hits[(kind, key)]}
        self._handle.write(_dumps(record) + "\n")
        self._hits_written[(kind, key)] = self._hits[(kind, key)]
        self._dead_lines += 1

    def hit_count(self, kind: str, key: str) -> int:
        """Accumulated (cross-session) hits recorded for one entry."""
        return self._hits.get((kind, key), 0)

    def accumulated_hits(self) -> int:
        """Total recorded reuse across the proof tables."""
        return sum(self._hits.values())

    def prune(self, max_entries: int) -> int:
        """Evict least-recently-used entries beyond ``max_entries``.

        Recency is tracked across both tables (a pass hit and a subgoal hit
        both refresh their entry).  The file is compacted afterwards so the
        eviction is durable.  Returns the number of entries evicted.
        """
        max_entries = max(0, int(max_entries))
        evicted = 0
        journal = []
        while len(self._lru) > max_entries:
            kind, key = next(iter(self._lru))
            del self._lru[(kind, key)]
            table = self._passes if kind == "pass" else self._subgoals
            value = table.pop(key, None)
            if value is not None:
                evicted += 1
                journal.append((kind, key))
                self.stats.proof_bytes_reclaimed += \
                    len(_dumps(value))
            self._hits.pop((kind, key), None)
            self._hits_written.pop((kind, key), None)
        # Certificates live and die with their subgoal entry.
        orphaned = [key for key in self._certs if key not in self._subgoals]
        for key in orphaned:
            self.stats.cert_bytes_reclaimed += \
                len(_dumps(self._certs[key]))
            journal.append(("certificate", key))
            del self._certs[key]
            self._certs_lru.pop(key, None)
            self._cert_hits.pop(key, None)
            self._certs_dead += 1
        self.stats.certs_evicted += len(orphaned)
        if orphaned and self._certs_handle is not None:
            self._compact_certs()
        if evicted or self._dead_lines:
            self.stats.evicted += evicted
            if self.directory is not None:
                self.compact()
        self._journal_evictions(journal)
        return evicted

    def _journal_evictions(self, journal) -> None:
        """Best-effort eviction journal for wasted-eviction accounting."""
        if not journal or self.directory is None:
            return
        from repro.telemetry.stats import append_evictions

        try:
            append_evictions(self.directory, journal)
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # Pass-level entries
    # ------------------------------------------------------------------ #
    def get_pass(self, key: Optional[str]) -> Optional[dict]:
        if key is None:
            self.stats.pass_misses += 1
            return None
        entry = self._passes.get(key)
        if entry is None:
            self.stats.pass_misses += 1
        else:
            self.stats.pass_hits += 1
            self._note_touch("pass", key)
        if self.recorder is not None:
            self.recorder.note_io("pass", hit=entry is not None)
        return entry

    def put_pass(self, key: Optional[str], value: dict) -> None:
        if key is None:
            return
        if key in self._passes:
            self._dead_lines += 1
        self._passes[key] = value
        self._touch("pass", key)
        self.stats.stores += 1
        self._append("pass", key, value)

    # ------------------------------------------------------------------ #
    # Subgoal-level entries
    # ------------------------------------------------------------------ #
    def get_subgoal(self, key: str) -> Optional[dict]:
        entry = self._subgoals.get(key)
        if entry is None:
            self.stats.subgoal_misses += 1
        else:
            self.stats.subgoal_hits += 1
            self._note_touch("subgoal", key)
        if self.recorder is not None:
            self.recorder.note_io("subgoal", hit=entry is not None)
        return entry

    def has_subgoal(self, key: str) -> bool:
        """Membership test that does not touch the hit/miss counters."""
        return key in self._subgoals

    def put_subgoal(self, key: str, value: dict) -> None:
        if key in self._subgoals:
            self._dead_lines += 1
        self._subgoals[key] = value
        self._touch("subgoal", key)
        self.stats.stores += 1
        self._append("subgoal", key, value)

    def subgoal_snapshot(self) -> Dict[str, dict]:
        """A plain-dict copy of the subgoal table, which one run's
        discharges read and extend."""
        return dict(self._subgoals)

    def touch_subgoals(self, keys) -> None:
        """Refresh recency for subgoals served from the run's snapshot.

        The engine reads subgoals through :meth:`subgoal_snapshot` (never
        :meth:`get_subgoal`), so without this the subgoal tier would look
        idle to LRU pruning no matter how hot it is.
        """
        for key in keys:
            if key in self._subgoals:
                self._note_touch("subgoal", key)

    # ------------------------------------------------------------------ #
    # Certificate sidecar (the subgoal evidence tier)
    # ------------------------------------------------------------------ #
    def _touch_cert(self, key: str) -> None:
        """Mark one certificate as most recently used (its own LRU order)."""
        self._certs_lru.pop(key, None)
        self._certs_lru[key] = None

    def get_certificate(self, key: str) -> Optional[dict]:
        """The certificate payload recorded for one subgoal, or ``None``."""
        entry = self._certs.get(key)
        if entry is None:
            self.stats.cert_misses += 1
        else:
            self.stats.cert_hits += 1
            self._cert_hits[key] = self._cert_hits.get(key, 0) + 1
            self._cert_hits_dirty = True
            self._touch_cert(key)
        if self.recorder is not None:
            self.recorder.note_io("certificate", hit=entry is not None)
        return entry

    def cert_hit_count(self, key: str) -> int:
        """Accumulated (cross-session) hits for one certificate."""
        return self._cert_hits.get(key, 0)

    def put_certificate(self, key: str, value: dict) -> None:
        """Record one subgoal's proof certificate, durably.

        Identical re-records are no-ops so warm runs do not grow the file
        (they still refresh the tier's recency).
        """
        if self._certs.get(key) == value:
            self._touch_cert(key)
            return
        if key in self._certs:
            self._certs_dead += 1
        self._certs[key] = value
        self._touch_cert(key)
        self.stats.cert_stores += 1
        if self._certs_handle is not None:
            record = {"key": key, "fp": self.active_fingerprint, "value": value}
            self._certs_handle.write(_dumps(record) + "\n")
            self._certs_handle.flush()

    def _compact_certs(self) -> None:
        if self.directory is None:
            return
        if self._certs_handle is not None:
            self._certs_handle.close()
        tmp_path = self.certs_path.with_suffix(".tmp")
        # Least-recently-used first: the loader rebuilds the tier's recency
        # from file order, mirroring the proof file's compaction contract.
        ordered = [key for key in self._certs_lru if key in self._certs]
        ordered.extend(key for key in self._certs if key not in self._certs_lru)
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for key in ordered:
                record = {"key": key, "fp": self.active_fingerprint,
                          "value": self._certs[key]}
                if self._cert_hits.get(key):
                    record["hits"] = self._cert_hits[key]
                handle.write(_dumps(record) + "\n")
        os.replace(tmp_path, self.certs_path)
        self._certs_dead = 0
        self._damaged.discard(self.certs_path)
        self._cert_hits_dirty = False
        self._certs_handle = open(self.certs_path, "a", encoding="utf-8")

    # ------------------------------------------------------------------ #
    # Dependency sidecar (incremental re-verification)
    # ------------------------------------------------------------------ #
    def get_deps(self, key: str) -> Optional[dict]:
        """The dependency entry recorded under ``key``, or ``None``."""
        return self._deps.get(key)

    def put_deps(self, key: str, value: dict) -> None:
        """Record (or refresh) one dependency entry, durably.

        Writing an entry identical to the stored one is a no-op — warm runs
        re-record their deps every time, and must not grow the sidecar.
        The module rows it reaches go first: a stored entry finds its closure.
        """
        if self._deps.get(key) == value:
            return
        from repro.incremental.deps import module_row_records

        records = {row: record for row, record in module_row_records([value]).items()
                   if row not in self._deps}
        records[key] = value
        if key in self._deps:
            self._deps_dead += 1
        self._deps.update(records)
        if self._deps_handle is not None:
            self._deps_handle.write("".join(
                _dumps({"key": row, "value": record}) + "\n"
                for row, record in records.items()))
            self._deps_handle.flush()

    def deps_snapshot(self) -> Dict[str, dict]:
        """A plain-dict copy of the dependency index."""
        from repro.incremental.deps import split_module_rows

        return split_module_rows(self._deps)

    def gc_deps(self, live_keys) -> int:
        """Drop dependency entries whose identity key is not in ``live_keys``.

        ``repro cache gc`` passes the identity keys of every configuration
        in the known suites; entries for configurations that no longer
        exist (renamed passes, abandoned couplings) are reclaimed, with the
        module rows no surviving entry reaches.  Removing either is always
        sound — the configuration, if ever requested again, is treated as
        stale and re-records itself on verification.  Returns the number of
        entries removed.
        """
        from repro.incremental.deps import MODULE_ROW_PREFIX, module_row_records

        live = set(live_keys)
        live.update(module_row_records(
            value for key, value in self.deps_snapshot().items() if key in live))
        doomed = [key for key in self._deps if key not in live]
        for key in doomed:
            self.stats.dep_bytes_reclaimed += \
                len(_dumps(self._deps[key]))
            del self._deps[key]
            self._deps_dead += 1
        if doomed and self._deps_handle is not None:
            self._compact_deps()
        removed = sum(not key.startswith(MODULE_ROW_PREFIX) for key in doomed)
        self.stats.deps_reclaimed += removed
        return removed

    def _compact_deps(self) -> None:
        if self.directory is None:
            return
        if self._deps_handle is not None:
            self._deps_handle.close()
        tmp_path = self.deps_path.with_suffix(".tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            for key, value in self._deps.items():
                handle.write(_dumps({"key": key, "value": value}) + "\n")
        os.replace(tmp_path, self.deps_path)
        self._deps_dead = 0
        self._damaged.discard(self.deps_path)
        self._deps_handle = open(self.deps_path, "a", encoding="utf-8")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._passes) + len(self._subgoals)

    def __contains__(self, key: str) -> bool:
        return key in self._passes or key in self._subgoals

    def entries(self) -> Iterator[Tuple[str, str, dict]]:
        for key, value in self._passes.items():
            yield "pass", key, value
        for key, value in self._subgoals.items():
            yield "subgoal", key, value

    def summary(self) -> Dict[str, object]:
        """Whole-store statistics for ``repro status``.

        Read from the in-memory tables.  ``invalidated`` and
        ``corrupt_lines`` count what the load dropped: records proved under
        another toolchain, and unreadable lines.
        """
        passes = list(self._passes.values())
        subgoals = list(self._subgoals.values())
        certs = list(self._certs.values())

        def payload_bytes(values) -> int:
            return sum(len(_dumps(value)) for value in values)

        live = len(passes) + len(subgoals)
        return {
            "backend": self.backend,
            "path": str(self.path) if self.path is not None else None,
            "entries_total": live + self.stats.invalidated,
            "entries_live": live,
            "entries_stale": self.stats.invalidated,
            "pass_entries": len(passes),
            "subgoal_entries": len(subgoals),
            "accumulated_hits": self.accumulated_hits(),
            "cert_entries": len(certs),
            "cert_accumulated_hits": sum(self._cert_hits.values()),
            "payload_bytes": payload_bytes(passes + subgoals),
            "cert_payload_bytes": payload_bytes(certs),
            "corrupt_lines": self.stats.corrupt_lines,
            "invalidated": self.stats.invalidated,
        }

