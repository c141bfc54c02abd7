"""The longitudinal telemetry store: every traced run's summary, kept.

A single traced run answers "what happened just now"; this module answers
"what changed since last week".  :class:`TelemetryHistory` is a small
schema-versioned sqlite database living alongside the proof cache
(``history.sqlite`` next to ``proofs.jsonl``) into which the CLI drops a
:func:`~repro.telemetry.analyze.summarize_trace` digest after every traced
``repro verify`` — automatically, unless ``--no-history`` says otherwise.

Design:

* WAL journal + generous busy timeout, autocommit statements under one
  re-entrant lock, so two concurrent CLI runs on one cache directory can
  both record without corrupting anything;
* a ``meta`` table carries the schema version; a database written by an
  incompatible layout is rebuilt, not misread (it is telemetry — losing
  history rows is an annoyance, misattributing them is a lie);
* files that fail to parse as sqlite at all are unlinked and recreated;
* the store self-prunes to the newest :data:`DEFAULT_MAX_RUNS` runs on
  every insert, so it never needs an operator's attention.

Each run row keeps the whole summary JSON (for ``repro history show`` and
``repro trace diff``-style analysis after the raw JSONL has rotated away)
plus denormalised per-pass rows so "pass X over time" is one indexed
query, and provenance: node, toolchain fingerprint, ``git describe``,
solver and backend.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.telemetry.bounds import (
    DEFAULT_MIN_SECONDS,
    DEFAULT_NOISE_PCT,
    is_regression,
)

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "DEFAULT_MAX_RUNS",
    "TelemetryHistory",
    "git_describe",
    "history_path",
]

_DB_NAME = "history.sqlite"

#: Bump when the table layout changes incompatibly; mismatched stores are
#: rebuilt from scratch on open.  Version 2 added the ``store_stats`` table
#: (per-run proof-store analytics from ``repro.telemetry.stats``).
HISTORY_SCHEMA_VERSION = 2

#: Runs kept after auto-pruning.  At one summary row per traced run this
#: is months of history for a busy repo, and a few MB on disk.
DEFAULT_MAX_RUNS = 200

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    created_at   REAL NOT NULL,
    label        TEXT,
    node         TEXT,
    toolchain    TEXT,
    git          TEXT,
    solver       TEXT,
    backend      TEXT,
    passes       INTEGER NOT NULL,
    subgoals     INTEGER NOT NULL,
    wall_seconds REAL NOT NULL,
    records      INTEGER NOT NULL,
    summary      TEXT NOT NULL,
    stats        TEXT
);
CREATE INDEX IF NOT EXISTS runs_created ON runs (created_at);
CREATE TABLE IF NOT EXISTS run_passes (
    run_id   INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    name     TEXT NOT NULL,
    seconds  REAL NOT NULL,
    subgoals INTEGER NOT NULL,
    solver   TEXT,
    PRIMARY KEY (run_id, name)
);
CREATE INDEX IF NOT EXISTS run_passes_name ON run_passes (name);
CREATE TABLE IF NOT EXISTS store_stats (
    run_id           INTEGER PRIMARY KEY REFERENCES runs (id) ON DELETE CASCADE,
    pass_hits        INTEGER NOT NULL,
    pass_misses      INTEGER NOT NULL,
    subgoal_hits     INTEGER NOT NULL,
    subgoal_misses   INTEGER NOT NULL,
    wasted_evictions INTEGER NOT NULL,
    payload          TEXT NOT NULL
);
"""

_CORRUPTION_SIGNS = ("not a database", "malformed", "file is encrypted")


def _looks_corrupt(exc: sqlite3.DatabaseError) -> bool:
    message = str(exc).lower()
    if any(sign in message for sign in _CORRUPTION_SIGNS):
        return True
    return not isinstance(exc, sqlite3.OperationalError)


def history_path(directory: os.PathLike) -> Path:
    """The database file used by a history store rooted at ``directory``."""
    return Path(directory) / _DB_NAME


def git_describe(cwd: Optional[os.PathLike] = None) -> Optional[str]:
    """``git describe --always --dirty`` for provenance, or ``None``.

    Telemetry must never fail a verification run, so every way this can go
    wrong (no git, not a repository, a hung object store) degrades to
    ``None`` — the history row simply records no git state.
    """
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    described = proc.stdout.strip()
    return described or None


class TelemetryHistory:
    """Schema-versioned sqlite store of traced-run summaries.

    ``directory=None`` gives an in-memory store (tests); otherwise
    ``directory/history.sqlite`` is created on demand, beside the proof
    cache the run used.
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 max_runs: Optional[int] = DEFAULT_MAX_RUNS,
                 timeout: float = 30.0) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.max_runs = max_runs
        self._lock = threading.RLock()
        self._timeout = timeout
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            target = str(history_path(self.directory))
        else:
            target = ":memory:"
        self._conn: Optional[sqlite3.Connection] = self._connect(target)
        try:
            self._configure()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            self._conn = None
            if self.directory is None or not _looks_corrupt(exc):
                raise
            # Losing history rows is safe; misreading them is not.
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(target + suffix)
                except OSError:
                    pass
            self._conn = self._connect(target)
            self._configure()

    def _connect(self, target: str) -> sqlite3.Connection:
        return sqlite3.connect(
            target, timeout=self._timeout, isolation_level=None,
            check_same_thread=False,
        )

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
                "INSERT OR REPLACE INTO meta (key, value) "
                "VALUES ('schema_version', ?)",
                (str(HISTORY_SCHEMA_VERSION),),
            )
        elif row[0] != str(HISTORY_SCHEMA_VERSION):
            cursor.execute("DROP TABLE IF EXISTS runs")
            cursor.execute("DROP TABLE IF EXISTS run_passes")
            cursor.execute("DROP TABLE IF EXISTS store_stats")
            cursor.execute("DELETE FROM meta")
            cursor.executescript(_SCHEMA)
            cursor.execute(
                "INSERT OR REPLACE INTO meta (key, value) "
                "VALUES ('schema_version', ?)",
                (str(HISTORY_SCHEMA_VERSION),),
            )

    @property
    def path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return history_path(self.directory)

    def close(self) -> None:
        with self._lock:
            if self._conn is None:
                return
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "TelemetryHistory":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def record_run(self, summary: Dict, *, stats: Optional[Dict] = None,
                   store_stats: Optional[Dict] = None,
                   label: Optional[str] = None,
                   node: Optional[str] = None,
                   toolchain: Optional[str] = None,
                   git: Optional[str] = None,
                   wall_seconds: Optional[float] = None,
                   created_at: Optional[float] = None) -> int:
        """Insert one summarized run; returns its history id.

        ``summary`` is the :func:`~repro.telemetry.analyze.summarize_trace`
        digest; the whole thing is stored verbatim (JSON) and the headline
        figures are denormalised into columns for listing and per-pass
        queries.  ``store_stats`` is the run's canonical proof-store
        aggregate (:meth:`repro.telemetry.stats.StatsRecorder.canonical`),
        stored in its own table keyed by the run id so tier hit ratios
        trend across runs.  ``wall_seconds`` defaults to the sum of
        pass-span durations when the caller did not measure an engine
        wall.  Auto-prunes to ``max_runs`` afterwards.
        """
        passes = summary.get("passes") or []
        solvers = summary.get("solvers") or {}
        solver = None
        if len(solvers) == 1:
            solver = next(iter(solvers))
        elif solvers:
            solver = ",".join(sorted(solvers))
        if wall_seconds is None:
            wall_seconds = sum(float(p.get("seconds") or 0.0) for p in passes)
        now = time.time() if created_at is None else float(created_at)
        with self._lock:
            cursor = self._conn.execute(
                "INSERT INTO runs (created_at, label, node, toolchain, git, "
                "solver, backend, passes, subgoals, wall_seconds, records, "
                "summary, stats) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (now, label, node, toolchain, git, solver,
                 (stats or {}).get("backend"),
                 len(passes),
                 sum(int(p.get("subgoals") or 0) for p in passes),
                 round(float(wall_seconds), 6),
                 int(summary.get("records") or 0),
                 json.dumps(summary, sort_keys=True),
                 json.dumps(stats, sort_keys=True) if stats else None),
            )
            run_id = int(cursor.lastrowid)
            self._conn.executemany(
                "INSERT OR REPLACE INTO run_passes "
                "(run_id, name, seconds, subgoals, solver) "
                "VALUES (?, ?, ?, ?, ?)",
                [(run_id, p.get("name"), float(p.get("seconds") or 0.0),
                  int(p.get("subgoals") or 0), p.get("solver"))
                 for p in passes if p.get("name")],
            )
            if store_stats:
                tiers = store_stats.get("tiers") or {}
                pass_tier = tiers.get("pass") or {}
                subgoal_tier = tiers.get("subgoal") or {}
                self._conn.execute(
                    "INSERT OR REPLACE INTO store_stats (run_id, pass_hits, "
                    "pass_misses, subgoal_hits, subgoal_misses, "
                    "wasted_evictions, payload) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (run_id,
                     int(pass_tier.get("hits") or 0),
                     int(pass_tier.get("misses") or 0)
                     + int(pass_tier.get("stale") or 0),
                     int(subgoal_tier.get("hits") or 0),
                     int(subgoal_tier.get("misses") or 0),
                     int(store_stats.get("wasted_evictions") or 0),
                     json.dumps(store_stats, sort_keys=True)),
                )
            if self.max_runs is not None:
                self._prune_locked(self.max_runs)
        return run_id

    def _prune_locked(self, max_runs: int) -> int:
        rows = self._conn.execute(
            "SELECT id FROM runs ORDER BY id DESC LIMIT -1 OFFSET ?",
            (max(0, int(max_runs)),),
        ).fetchall()
        if not rows:
            return 0
        doomed = [row[0] for row in rows]
        self._conn.executemany(
            "DELETE FROM run_passes WHERE run_id = ?",
            [(run_id,) for run_id in doomed])
        self._conn.executemany(
            "DELETE FROM store_stats WHERE run_id = ?",
            [(run_id,) for run_id in doomed])
        self._conn.executemany(
            "DELETE FROM runs WHERE id = ?",
            [(run_id,) for run_id in doomed])
        return len(doomed)

    def prune(self, max_runs: int) -> int:
        """Drop all but the newest ``max_runs`` runs; returns rows dropped."""
        with self._lock:
            return self._prune_locked(max_runs)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    @staticmethod
    def _row_to_run(row) -> Dict:
        (run_id, created_at, label, node, toolchain, git, solver, backend,
         passes, subgoals, wall_seconds, records, summary, stats) = row
        try:
            summary = json.loads(summary)
        except (TypeError, json.JSONDecodeError):
            summary = None
        try:
            stats = json.loads(stats) if stats else None
        except json.JSONDecodeError:
            stats = None
        return {
            "id": run_id, "created_at": created_at, "label": label,
            "node": node, "toolchain": toolchain, "git": git,
            "solver": solver, "backend": backend, "passes": passes,
            "subgoals": subgoals, "wall_seconds": wall_seconds,
            "records": records, "summary": summary, "stats": stats,
        }

    _RUN_COLUMNS = ("id, created_at, label, node, toolchain, git, solver, "
                    "backend, passes, subgoals, wall_seconds, records, "
                    "summary, stats")

    def runs(self, limit: Optional[int] = None) -> List[Dict]:
        """Newest-first run rows (summaries included)."""
        sql = f"SELECT {self._RUN_COLUMNS} FROM runs ORDER BY id DESC"
        args = ()
        if limit is not None:
            sql += " LIMIT ?"
            args = (int(limit),)
        with self._lock:
            rows = self._conn.execute(sql, args).fetchall()
        return [self._row_to_run(row) for row in rows]

    def get_run(self, run_id) -> Optional[Dict]:
        """One run by id; ``"latest"`` / negative ids count from the end
        (``-1`` = newest, ``-2`` = the one before)."""
        if run_id in ("latest", "last", -1):
            found = self.runs(limit=1)
            return found[0] if found else None
        try:
            numeric = int(run_id)
        except (TypeError, ValueError):
            return None
        if numeric < 0:
            found = self.runs(limit=-numeric)
            return found[-numeric - 1] if len(found) >= -numeric else None
        with self._lock:
            row = self._conn.execute(
                f"SELECT {self._RUN_COLUMNS} FROM runs WHERE id = ?",
                (numeric,),
            ).fetchone()
        return self._row_to_run(row) if row is not None else None

    def pass_series(self, name: str, limit: Optional[int] = None) -> List[Dict]:
        """Newest-first ``{run_id, seconds, subgoals, solver}`` rows for one
        pass across recorded runs."""
        sql = ("SELECT run_id, seconds, subgoals, solver FROM run_passes "
               "WHERE name = ? ORDER BY run_id DESC")
        args = [name]
        if limit is not None:
            sql += " LIMIT ?"
            args.append(int(limit))
        with self._lock:
            rows = self._conn.execute(sql, args).fetchall()
        return [{"run_id": r[0], "seconds": r[1], "subgoals": r[2],
                 "solver": r[3]} for r in rows]

    def store_stats_series(self, limit: Optional[int] = None) -> List[Dict]:
        """Oldest-first per-run store analytics for tier-ratio trends.

        Rows carry the denormalised counters plus the run's ``created_at``
        so the dashboard can plot hit-ratio evolution without parsing every
        payload; ``payload`` holds the full canonical aggregate.
        """
        sql = ("SELECT s.run_id, r.created_at, s.pass_hits, s.pass_misses, "
               "s.subgoal_hits, s.subgoal_misses, s.wasted_evictions, "
               "s.payload FROM store_stats s JOIN runs r ON r.id = s.run_id "
               "ORDER BY s.run_id DESC")
        args = ()
        if limit is not None:
            sql += " LIMIT ?"
            args = (int(limit),)
        with self._lock:
            rows = self._conn.execute(sql, args).fetchall()
        series = []
        for row in reversed(rows):
            try:
                payload = json.loads(row[7])
            except (TypeError, json.JSONDecodeError):
                payload = None
            series.append({
                "run_id": row[0], "created_at": row[1],
                "pass_hits": row[2], "pass_misses": row[3],
                "subgoal_hits": row[4], "subgoal_misses": row[5],
                "wasted_evictions": row[6], "payload": payload,
            })
        return series

    def get_store_stats(self, run_id) -> Optional[Dict]:
        """One run's canonical store aggregate, or ``None``."""
        run = self.get_run(run_id)
        if run is None:
            return None
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM store_stats WHERE run_id = ?",
                (run["id"],),
            ).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except (TypeError, json.JSONDecodeError):
            return None

    def regressions(self, *, baseline=None, candidate="latest",
                    noise_pct: float = DEFAULT_NOISE_PCT,
                    min_seconds: float = DEFAULT_MIN_SECONDS) -> Dict:
        """Noise-aware pass-level regressions of ``candidate`` vs ``baseline``.

        Defaults compare the newest run against the one before it.  Returns
        ``{baseline, candidate, regressions: [{name, before, after, ratio}]}``
        or ``{error: ...}`` when fewer than two comparable runs exist.
        """
        cand = self.get_run(candidate)
        if cand is None:
            return {"error": "no candidate run in history"}
        if baseline is None:
            base = None
            for run in self.runs():
                if run["id"] < cand["id"]:
                    base = run
                    break
        else:
            base = self.get_run(baseline)
        if base is None:
            return {"error": "no baseline run to compare against"}
        before = {p["name"]: float(p.get("seconds") or 0.0)
                  for p in (base.get("summary") or {}).get("passes") or []}
        flagged = []
        for entry in (cand.get("summary") or {}).get("passes") or []:
            name = entry.get("name")
            after = float(entry.get("seconds") or 0.0)
            prior = before.get(name)
            if prior is None:
                # Absent from the baseline: warm runs record no span for a
                # cached pass, so a pass surfacing with real cost is the
                # cold-cache signature.  Flag it beyond the absolute floor.
                if after > min_seconds:
                    flagged.append({"name": name, "before": 0.0,
                                    "after": after, "ratio": None})
                continue
            if is_regression(prior, after, noise_pct=noise_pct,
                             min_seconds=min_seconds):
                flagged.append({
                    "name": name, "before": prior, "after": after,
                    "ratio": after / prior if prior > 0 else None,
                })
        flagged.sort(key=lambda f: f["after"] - f["before"], reverse=True)
        return {
            "baseline": base["id"],
            "candidate": cand["id"],
            "noise_pct": noise_pct,
            "min_seconds": min_seconds,
            "regressions": flagged,
        }

    def summary(self) -> Dict:
        """Store-level digest for ``repro history list`` headers."""
        with self._lock:
            runs, oldest, newest = self._conn.execute(
                "SELECT COUNT(*), MIN(created_at), MAX(created_at) FROM runs"
            ).fetchone()
        return {
            "backend": "sqlite",
            "path": str(self.path) if self.path else None,
            "schema_version": HISTORY_SCHEMA_VERSION,
            "runs": int(runs or 0),
            "oldest_at": oldest,
            "newest_at": newest,
            "max_runs": self.max_runs,
        }
