"""Per-key proof-store analytics: the cost-attribution layer.

Every verification run (in-process, pooled, or clustered) can account each
proof-store access to the responsible key and tier — which subgoal
fingerprints are hot, which tier served them, and which evicted keys had
to be re-proved ("wasted evictions", the direct input for LRU sizing).

The aggregate has two sections with very different guarantees:

* ``canonical`` — derived purely from the run's *facts* (which pass keys
  hit or missed, which subgoal keys each unit touched, which were proved
  this run) and therefore **byte-identical at any worker count and on
  either cache backend**.  The rule that makes this work: a subgoal key
  accessed ``a`` times is charged 1 miss and ``a - 1`` hits when it was
  proved this run, and ``a`` hits otherwise (it must have been warm).
  Under cluster snapshot staleness two units may both prove the same key;
  the deduplicated proved-set still charges exactly one miss — the same
  totals a sequential run produces.
* ``local`` — wall-clock latency, byte counts, backend and worker count
  for *this* process.  Useful for operators, never compared byte-for-byte.

Accounting is always on (disable with :func:`set_enabled` — the overhead
bench ``repro bench stats`` measures the difference) and best-effort:
the driver guards every recorder call so analytics can never fail a
verification run.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

STORE_STATS_SCHEMA_VERSION = 1

#: Hot-key tables are capped so the persisted aggregate stays small; the
#: cap is part of the canonical surface and must not depend on the data.
HOT_KEY_LIMIT = 100

_STATS_FILE = "store-stats.json"
_EVICTIONS_FILE = "evictions.jsonl"

_enabled = True


def set_enabled(flag: bool) -> bool:
    """Toggle accounting globally; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def enabled() -> bool:
    return _enabled


def store_stats_path(directory) -> str:
    return os.path.join(str(directory), _STATS_FILE)


def evictions_path(directory) -> str:
    return os.path.join(str(directory), _EVICTIONS_FILE)


# --------------------------------------------------------------------------- #
# eviction journal
# --------------------------------------------------------------------------- #
def append_evictions(directory, entries: Iterable[Tuple[str, str]]) -> int:
    """Journal evicted ``(tier, key)`` pairs beside the cache.

    Both cache backends call this from ``prune``; a later run's recorder
    consumes the journal to count evicted-then-re-missed keys.
    """
    lines = [json.dumps({"tier": tier, "key": key}, sort_keys=True)
             for tier, key in entries]
    if not lines:
        return 0
    with open(evictions_path(directory), "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return len(lines)


def load_evictions(directory) -> List[Dict[str, str]]:
    entries: List[Dict[str, str]] = []
    try:
        with open(evictions_path(directory), "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict) and "tier" in entry and "key" in entry:
                    entries.append({"tier": entry["tier"], "key": entry["key"]})
    except OSError:
        return []
    return entries


def _rewrite_evictions(directory, entries: Sequence[Dict[str, str]]) -> None:
    path = evictions_path(directory)
    if not entries:
        try:
            os.remove(path)
        except OSError:
            pass
        return
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _ratio(hits: int, total: int) -> Optional[float]:
    if total <= 0:
        return None
    return round(hits / total, 6)


class StatsRecorder:
    """Accumulates one run's store accounting; thread-safe.

    The canonical inputs arrive from the driver (pass-tier outcomes from
    ``resolve_pending``, per-unit subgoal access lists, stored certificate
    keys); the local section accumulates from the cache backends' own
    ``note_io`` hooks and from worker-shipped ``store_io`` deltas.
    """

    def __init__(self, directory=None, *, backend: Optional[str] = None,
                 workers: Optional[int] = None):
        self.directory = str(directory) if directory is not None else None
        self.backend = backend
        self.workers = workers
        self._lock = threading.Lock()
        self._pass_outcomes: Dict[str, str] = {}
        self._subgoal_accesses: Dict[str, int] = {}
        self._subgoal_proved: set = set()
        self._certs_stored: set = set()
        self._io: Dict[str, Dict[str, float]] = {}
        self._wasted = 0
        self._finalized = False

    # -- canonical inputs -------------------------------------------------- #
    def note_pass(self, key: Optional[str], outcome: str) -> None:
        """Record a pass-tier probe: ``hit``, ``miss``, or ``stale``."""
        if key is None:
            return
        with self._lock:
            self._pass_outcomes[key] = outcome

    def note_unit(self, hit_keys: Iterable[str],
                  proved_keys: Iterable[str]) -> None:
        """Record one unit's subgoal accesses.

        ``hit_keys`` lists every key served from the table (duplicates
        count); ``proved_keys`` lists the keys the unit stored itself.
        """
        with self._lock:
            accesses = self._subgoal_accesses
            for key in hit_keys:
                accesses[key] = accesses.get(key, 0) + 1
            for key in proved_keys:
                accesses[key] = accesses.get(key, 0) + 1
                self._subgoal_proved.add(key)

    def note_certificates(self, keys: Iterable[str]) -> None:
        with self._lock:
            self._certs_stored.update(keys)

    # -- local (non-canonical) inputs -------------------------------------- #
    def note_io(self, tier: str, *, hit: bool, seconds: float = 0.0,
                nbytes: int = 0) -> None:
        with self._lock:
            row = self._io.setdefault(
                tier, {"gets": 0, "hits": 0, "misses": 0,
                       "seconds": 0.0, "bytes": 0})
            row["gets"] += 1
            row["hits" if hit else "misses"] += 1
            row["seconds"] += seconds
            row["bytes"] += nbytes

    def merge_io(self, tier: str, counters: Dict) -> None:
        """Fold a worker-shipped per-tier counter delta into this run."""
        if not isinstance(counters, dict):
            return
        with self._lock:
            row = self._io.setdefault(
                tier, {"gets": 0, "hits": 0, "misses": 0,
                       "seconds": 0.0, "bytes": 0})
            for field in ("gets", "hits", "misses", "bytes"):
                row[field] += int(counters.get(field, 0) or 0)
            row["seconds"] += float(counters.get("seconds", 0.0) or 0.0)

    # -- aggregation -------------------------------------------------------- #
    def _missed_keys(self) -> Dict[str, set]:
        return {
            "pass": {key for key, outcome in self._pass_outcomes.items()
                     if outcome != "hit"},
            "subgoal": set(self._subgoal_proved),
            "certificate": set(self._certs_stored),
        }

    def finalize(self) -> int:
        """Consume the eviction journal; returns the wasted-eviction count.

        A journaled key that this run canonically re-missed was evicted too
        eagerly; it is counted once and removed from the journal.
        """
        with self._lock:
            if self._finalized:
                return self._wasted
            self._finalized = True
            if self.directory is None:
                return 0
            missed = self._missed_keys()
        journal = load_evictions(self.directory)
        if not journal:
            return 0
        keep: List[Dict[str, str]] = []
        wasted = 0
        for entry in journal:
            if entry["key"] in missed.get(entry["tier"], ()):
                wasted += 1
            else:
                keep.append(entry)
        with self._lock:
            self._wasted = wasted
        if wasted:
            _rewrite_evictions(self.directory, keep)
        return wasted

    def canonical(self) -> Dict:
        """The deterministic aggregate (worker-count/backend independent)."""
        with self._lock:
            pass_hits = sum(1 for outcome in self._pass_outcomes.values()
                            if outcome == "hit")
            pass_stale = sum(1 for outcome in self._pass_outcomes.values()
                             if outcome == "stale")
            pass_misses = len(self._pass_outcomes) - pass_hits - pass_stale
            rows: List[Dict] = []
            for key, outcome in self._pass_outcomes.items():
                hits = 1 if outcome == "hit" else 0
                rows.append({"tier": "pass", "key": key, "accesses": 1,
                             "hits": hits, "misses": 1 - hits})
            subgoal_hits = 0
            subgoal_misses = 0
            for key, accesses in self._subgoal_accesses.items():
                if key in self._subgoal_proved:
                    hits, misses = accesses - 1, 1
                else:
                    hits, misses = accesses, 0
                subgoal_hits += hits
                subgoal_misses += misses
                rows.append({"tier": "subgoal", "key": key,
                             "accesses": accesses, "hits": hits,
                             "misses": misses})
            rows.sort(key=lambda row: (-row["accesses"], -row["hits"],
                                       row["tier"], row["key"]))
            return {
                "schema": STORE_STATS_SCHEMA_VERSION,
                "tiers": {
                    "pass": {
                        "hits": pass_hits,
                        "misses": pass_misses,
                        "stale": pass_stale,
                        "ratio": _ratio(pass_hits,
                                        len(self._pass_outcomes)),
                    },
                    "subgoal": {
                        "hits": subgoal_hits,
                        "misses": subgoal_misses,
                        "keys": len(self._subgoal_accesses),
                        "ratio": _ratio(subgoal_hits,
                                        subgoal_hits + subgoal_misses),
                    },
                    "certificate": {
                        "stored": len(self._certs_stored),
                    },
                },
                "hot_keys": rows[:HOT_KEY_LIMIT],
                "wasted_evictions": self._wasted,
            }

    def local(self) -> Dict:
        with self._lock:
            io = {tier: dict(row) for tier, row in sorted(self._io.items())}
        for row in io.values():
            row["seconds"] = round(row["seconds"], 6)
        payload: Dict = {"io": io, "written_at": round(time.time(), 3)}
        if self.backend is not None:
            payload["backend"] = self.backend
        if self.workers is not None:
            payload["workers"] = self.workers
        return payload

    # -- persistence -------------------------------------------------------- #
    def save(self) -> Optional[str]:
        """Atomically persist ``store-stats.json`` beside the cache."""
        if self.directory is None:
            return None
        payload = {"canonical": self.canonical(), "local": self.local()}
        path = store_stats_path(self.directory)
        tmp = path + ".tmp"
        data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        os.makedirs(self.directory, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(data + "\n")
        os.replace(tmp, path)
        return path

    def finalize_and_save(self) -> Optional[str]:
        self.finalize()
        return self.save()


def load_store_stats(directory) -> Optional[Dict]:
    """Load a persisted aggregate; ``None`` on missing/corrupt/foreign."""
    try:
        with open(store_stats_path(directory), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    canonical = payload.get("canonical")
    if not isinstance(canonical, dict) \
            or canonical.get("schema") != STORE_STATS_SCHEMA_VERSION:
        return None
    return payload


def canonical_bytes(payload: Dict) -> str:
    """The comparison surface: canonical section as canonical JSON."""
    return json.dumps(payload.get("canonical", payload),
                      sort_keys=True, separators=(",", ":"))


def render_stats_table(payload: Dict, top: int = 10) -> List[str]:
    """Human-readable ``repro stats`` rendering (canonical + local)."""
    canonical = payload.get("canonical", {})
    tiers = canonical.get("tiers", {})
    lines = [f"store stats (schema {canonical.get('schema', '?')})"]
    header = f"{'tier':12s} {'hits':>7s} {'misses':>7s} {'ratio':>7s}"
    lines.append(header)
    lines.append("-" * len(header))
    for tier in ("pass", "subgoal"):
        row = tiers.get(tier, {})
        ratio = row.get("ratio")
        ratio_text = f"{ratio:7.3f}" if ratio is not None else f"{'-':>7s}"
        extra = ""
        if tier == "pass" and row.get("stale"):
            extra = f"  ({row['stale']} stale re-proved)"
        lines.append(f"{tier:12s} {row.get('hits', 0):7d} "
                     f"{row.get('misses', 0):7d} {ratio_text}{extra}")
    cert = tiers.get("certificate", {})
    lines.append(f"{'certificate':12s} {cert.get('stored', 0):7d} stored")
    lines.append(f"wasted evictions: {canonical.get('wasted_evictions', 0)} "
                 f"(evicted keys this run had to re-prove)")
    hot = canonical.get("hot_keys", [])
    if hot:
        lines.append(f"hot keys (top {min(top, len(hot))} of {len(hot)} tracked):")
        header = (f"  {'tier':8s} {'accesses':>8s} {'hits':>6s} "
                  f"{'misses':>6s}  key")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for row in hot[:top]:
            lines.append(f"  {row['tier']:8s} {row['accesses']:8d} "
                         f"{row['hits']:6d} {row['misses']:6d}  {row['key']}")
    local = payload.get("local", {})
    if local:
        backend = local.get("backend", "?")
        workers = local.get("workers")
        worker_text = f", workers {workers}" if workers is not None else ""
        lines.append(f"local (this process, not canonical): "
                     f"backend {backend}{worker_text}")
        for tier, row in sorted((local.get("io") or {}).items()):
            lines.append(f"  io {tier:12s}: {row.get('gets', 0)} gets "
                         f"({row.get('hits', 0)} hit), "
                         f"{row.get('seconds', 0.0):.4f}s, "
                         f"{row.get('bytes', 0)} bytes")
    return lines
