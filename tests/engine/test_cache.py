"""Proof-cache persistence, hit/miss accounting, invalidation, eviction,
torn-write healing, and the import of the retired sqlite tier."""

import json
import random

import pytest

from repro.engine.cache import ProofCache, default_cache_dir, migrate_sqlite
from repro.engine.fingerprint import toolchain_fingerprint
from repro.incremental.deps import DEPS_SCHEMA_VERSION

FP = "a" * 64  # explicit fingerprint: store tests never need the real prover


def test_in_memory_cache_round_trip():
    cache = ProofCache(None)
    assert cache.get_pass("k") is None
    cache.put_pass("k", {"verified": True})
    assert cache.get_pass("k") == {"verified": True}
    assert cache.stats.pass_hits == 1
    assert cache.stats.pass_misses == 1
    assert cache.path is None


def test_persistence_across_instances(tmp_path):
    with ProofCache(tmp_path) as cache:
        cache.put_pass("pk", {"verified": True})
        cache.put_subgoal("sk", {"proved": True, "method": "identical",
                                 "reason": "", "rules_used": []})
    reopened = ProofCache(tmp_path)
    assert reopened.get_pass("pk") == {"verified": True}
    assert reopened.get_subgoal("sk")["proved"] is True
    assert reopened.has_subgoal("sk")
    assert len(reopened) == 2
    assert "pk" in reopened
    assert sorted(kind for kind, _, _ in reopened.entries()) == ["pass", "subgoal"]
    reopened.close()


def test_last_write_wins_and_compaction(tmp_path):
    with ProofCache(tmp_path) as cache:
        for round_number in range(5):
            cache.put_pass("pk", {"round": round_number})
    cache = ProofCache(tmp_path)
    assert cache.get_pass("pk") == {"round": 4}
    cache.compact()
    cache.close()
    lines = (tmp_path / "proofs.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1


def test_entries_from_other_toolchains_are_invalidated(tmp_path):
    with ProofCache(tmp_path) as cache:
        cache.put_pass("current", {"verified": True})
    # Hand-write an entry stamped with a different rule-set fingerprint,
    # simulating a cache produced by an older prover.
    stale = {"kind": "pass", "key": "stale", "fp": "0" * 64, "value": {"verified": False}}
    with open(tmp_path / "proofs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(stale) + "\n")
    reopened = ProofCache(tmp_path)
    assert reopened.get_pass("stale") is None
    assert reopened.get_pass("current") is not None
    assert reopened.stats.invalidated == 1
    assert reopened.active_fingerprint == toolchain_fingerprint()
    reopened.close()


def test_corrupt_lines_are_skipped(tmp_path):
    with ProofCache(tmp_path) as cache:
        cache.put_pass("good", {"verified": True})
    with open(tmp_path / "proofs.jsonl", "a", encoding="utf-8") as handle:
        handle.write("this is not json\n")
        handle.write('{"kind": "pass", "missing": "fields"}\n')
    reopened = ProofCache(tmp_path)
    assert reopened.get_pass("good") == {"verified": True}
    assert reopened.stats.corrupt_lines == 2
    reopened.close()


def test_prune_is_least_recently_used(tmp_path):
    with ProofCache(tmp_path) as cache:
        for index in range(5):
            cache.put_pass(f"p{index}", {"index": index})
        cache.get_pass("p0")              # refresh: p1 becomes the victim
        assert cache.prune(3) == 2
        assert cache.stats.evicted == 2
        assert cache.get_pass("p0") is not None
        assert cache.get_pass("p4") is not None
        assert cache.get_pass("p1") is None
    # Eviction is durable: the compacted file carries only the survivors.
    reopened = ProofCache(tmp_path)
    assert len(reopened) == 3
    reopened.close()


def test_prune_recency_survives_reopen(tmp_path):
    """Reads reorder recency in memory; close() must persist that order —
    otherwise a later prune would evict by creation order, not by use."""
    with ProofCache(tmp_path) as cache:
        cache.put_pass("old", {"n": 0})
        cache.put_pass("new", {"n": 1})
    with ProofCache(tmp_path) as cache:
        cache.get_pass("old")             # most recently used, despite age
    with ProofCache(tmp_path) as cache:
        assert cache.prune(1) == 1
        assert cache.get_pass("old") is not None
        assert cache.get_pass("new") is None


def test_warm_reads_append_touch_records_without_rewriting(tmp_path):
    """Recency must be durable *and* cheap: a warm run appends small touch
    records (at most twice per key — once at first hit, once at close when
    the hit total advanced) instead of rewriting the file, so concurrent
    appenders are never clobbered by a read-mostly client's close."""
    with ProofCache(tmp_path) as cache:
        cache.put_pass("a", {"n": 0})
        cache.put_pass("b", {"n": 1})
    before = (tmp_path / "proofs.jsonl").read_text()
    with ProofCache(tmp_path) as cache:
        cache.get_pass("a")
        cache.get_pass("a")       # second hit: no record until close
        cache.flush()
        mid = (tmp_path / "proofs.jsonl").read_text()
        assert len(mid[len(before):].strip().splitlines()) == 1
    after = (tmp_path / "proofs.jsonl").read_text()
    assert after.startswith(before)       # append-only, original lines intact
    added = [json.loads(line) for line in
             after[len(before):].strip().splitlines()]
    # First hit journals recency immediately; close flushes the advanced
    # hit total as one more record (absolute count, last write wins).
    assert added == [
        {"kind": "touch", "key": "a", "ref": "pass", "hits": 1},
        {"kind": "touch", "key": "a", "ref": "pass", "hits": 2},
    ]
    with ProofCache(tmp_path) as cache:
        assert cache.hit_count("pass", "a") == 2
        assert cache.hit_count("pass", "b") == 0


def test_touch_subgoals_refreshes_snapshot_served_entries(tmp_path):
    """The engine reads subgoals via subgoal_snapshot(); the driver reports
    reused keys back so the hot subgoal tier never looks idle to LRU."""
    subgoal = {"proved": True, "method": "m", "reason": "", "rules_used": []}
    with ProofCache(tmp_path) as cache:
        cache.put_subgoal("hot", subgoal)
        cache.put_pass("p1", {"verified": True})
        cache.put_pass("p2", {"verified": True})
        cache.touch_subgoals(["hot", "unknown-key"])    # unknown keys ignored
        assert cache.hit_count("subgoal", "hot") == 1
        assert cache.prune(1) == 2
        assert cache.has_subgoal("hot")


def test_prune_counts_both_tables(tmp_path):
    with ProofCache(tmp_path) as cache:
        cache.put_pass("p", {"verified": True})
        cache.put_subgoal("s1", {"proved": True, "method": "m",
                                 "reason": "", "rules_used": []})
        cache.put_subgoal("s2", {"proved": True, "method": "m",
                                 "reason": "", "rules_used": []})
        assert cache.prune(2) == 1
        assert cache.get_pass("p") is None    # oldest entry went first
        assert cache.has_subgoal("s1") and cache.has_subgoal("s2")


def test_prune_in_memory_cache(tmp_path):
    cache = ProofCache(None)
    cache.put_pass("a", {})
    cache.put_pass("b", {})
    assert cache.prune(1) == 1
    assert cache.get_pass("b") is not None


def test_invalidated_is_per_run_not_cumulative(tmp_path):
    """A long-lived caller-provided cache (the daemon's) must not re-report
    old invalidations on every run's stats."""
    from repro.engine import verify_passes
    from repro.passes import Width

    stale = {"kind": "pass", "key": "stale", "fp": "0" * 64, "value": {}}
    (tmp_path / "proofs.jsonl").write_text(json.dumps(stale) + "\n")
    # Own-cache run: the load-time invalidation belongs to this run.
    report = verify_passes([Width], cache_dir=str(tmp_path))
    assert report.stats.invalidated == 1
    # Long-lived cache: the invalidation was counted when the cache loaded,
    # before this run — the run itself invalidated nothing.
    with ProofCache(tmp_path) as cache:
        assert cache.stats.invalidated == 1
        report = verify_passes([Width], cache=cache)
        assert report.stats.invalidated == 0


def test_batch_distinct_configs_defers_repeats():
    from repro.engine import batch_distinct_configs

    class A:
        pass

    class B:
        pass

    pairs = [(A, {"n": 1}), (B, None), (A, {"n": 2})]
    batches = list(batch_distinct_configs(pairs))
    assert [[index for index, _, _ in batch] for batch in batches] == [[0, 1], [2]]
    assert batches[0][0][2] == {"n": 1}
    assert batches[1][0][2] == {"n": 2}


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
    assert default_cache_dir() == tmp_path / "override"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro"


def test_hit_counts_survive_compaction(tmp_path):
    """Compaction folds the touch journal's totals into the entry records;
    the counter must read the same before and after the rewrite."""
    with ProofCache(tmp_path) as cache:
        cache.put_pass("a", {"n": 0})
    with ProofCache(tmp_path) as cache:
        for _ in range(3):
            cache.get_pass("a")
    with ProofCache(tmp_path) as cache:
        assert cache.hit_count("pass", "a") == 3
        cache.compact()
        assert cache.hit_count("pass", "a") == 3
    with ProofCache(tmp_path) as cache:
        assert cache.hit_count("pass", "a") == 3
        assert cache.accumulated_hits() == 3


def test_prune_reports_reclaimed_bytes_and_journals_evictions(tmp_path):
    from repro.telemetry.stats import load_evictions

    with ProofCache(tmp_path) as cache:
        for index in range(4):
            cache.put_pass(f"p{index}", {"payload": "x" * 50, "i": index})
        evicted = cache.prune(2)
        assert evicted == 2
        assert cache.stats.proof_bytes_reclaimed > 100   # two fat entries
        journaled = load_evictions(tmp_path)
        assert {entry["key"] for entry in journaled} == {"p0", "p1"}
        assert all(entry["tier"] == "pass" for entry in journaled)


def test_gc_deps_reports_reclaimed_bytes(tmp_path):
    with ProofCache(tmp_path) as cache:
        cache.put_deps("cfg-old", {"files": {"src/a.py": "h1"}})
        cache.put_deps("cfg-live", {"files": {"src/b.py": "h2"}})
        removed = cache.gc_deps({"cfg-live"})
        assert removed == 1
        assert cache.stats.dep_bytes_reclaimed > 0


def _subgoal(n=0):
    return {"proved": True, "method": "identical", "reason": "", "rules_used": [f"r{n}"]}


def test_subgoal_snapshot_only_live_entries(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_subgoal("s1", _subgoal(1))
        cache.put_subgoal("s2", _subgoal(2))
    with ProofCache(tmp_path, active_fingerprint="b" * 64) as stale:
        stale.put_subgoal("s3", _subgoal(3))
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        assert sorted(cache.subgoal_snapshot()) == ["s1", "s2"]


def test_reproving_under_new_toolchain_resets_hits(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("pk", {"verified": True})
        cache.get_pass("pk")
        cache.get_pass("pk")
        assert cache.hit_count("pass", "pk") == 2
        cache.put_pass("pk", {"verified": True})      # same fp: tally survives
        assert cache.hit_count("pass", "pk") == 2
    with ProofCache(tmp_path, active_fingerprint="b" * 64) as newer:
        newer.put_pass("pk", {"verified": True})      # new fp: tally resets
        assert newer.hit_count("pass", "pk") == 0


def test_prune_reaps_stale_fingerprints_first(tmp_path):
    with ProofCache(tmp_path, active_fingerprint="b" * 64) as old:
        old.put_pass("old", {"verified": True})
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("new", {"verified": True})
        assert cache.prune(10) == 0       # a stale record was never live
        assert cache.get_pass("new") is not None
    records = [json.loads(line) for line in
               (tmp_path / "proofs.jsonl").read_text().splitlines()]
    assert {record["key"] for record in records} == {"new"}   # compacted away


def test_summary_counts(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("pk", {"verified": True})
        cache.put_subgoal("sk", _subgoal())
        cache.get_pass("pk")
        summary = cache.summary()
    assert summary["backend"] == "jsonl"
    assert summary["path"] == str(tmp_path / "proofs.jsonl")
    assert summary["entries_live"] == 2
    assert summary["pass_entries"] == 1
    assert summary["subgoal_entries"] == 1
    assert summary["accumulated_hits"] == 1
    assert summary["corrupt_lines"] == summary["invalidated"] == 0


def test_summary_measures_payload_bytes(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("pk", {"payload": "x" * 100})
        cache.put_certificate("ck", {"cert": "y" * 50})
        summary = cache.summary()
        assert summary["payload_bytes"] > 100
        assert summary["cert_payload_bytes"] > 50
        assert summary["cert_entries"] == 1


def test_summary_counts_what_the_load_dropped(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("good", {"verified": True})
    stale = {"kind": "pass", "key": "old", "fp": "0" * 64, "value": {}}
    with open(tmp_path / "proofs.jsonl", "a", encoding="utf-8") as handle:
        handle.write("not json\n" + json.dumps(stale) + "\n")
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        summary = cache.summary()
    assert summary["corrupt_lines"] == 1
    assert summary["invalidated"] == summary["entries_stale"] == 1
    assert summary["entries_total"] == 2
    # The session that saw the damage compacted it away.
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        assert cache.summary()["corrupt_lines"] == 0


# --------------------------------------------------------------------------- #
# Torn writes: a writer killed mid-append
# --------------------------------------------------------------------------- #
TEAR_SEEDS = (1, 7, 23, 101, 4242)
_STORE_FILES = ("proofs.jsonl", "certs.jsonl", "deps.jsonl")


def _tear_last_record(path, seed):
    """Cut ``path`` inside its last record, leaving no final newline."""
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(data[:random.Random(seed).randrange(start + 1, len(data))])


def _unreadable_lines(directory):
    bad = 0
    for name in _STORE_FILES:
        for line in (directory / name).read_text().splitlines():
            try:
                json.loads(line)
            except json.JSONDecodeError:
                bad += 1
    return bad


@pytest.mark.parametrize("seed", TEAR_SEEDS)
def test_a_torn_last_line_does_not_swallow_the_next_record(tmp_path, seed):
    def deps(n):
        return {"schema": DEPS_SCHEMA_VERSION, "module": "repro.errors",
                "fingerprint": f"f{n}"}

    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        for n in range(2):
            cache.put_pass(f"p{n}", {"n": n})
            cache.put_certificate(f"c{n}", {"n": n})
            cache.put_deps(f"d{n}", deps(n))
    for name in _STORE_FILES:
        _tear_last_record(tmp_path / name, seed)
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("after", {"n": 2})
        cache.put_certificate("after", {"n": 2})
        cache.put_deps("after", deps(2))
    assert _unreadable_lines(tmp_path) == 0
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        assert cache.get_pass("after") == {"n": 2}
        assert cache.get_certificate("after") == {"n": 2}
        assert cache.get_deps("after") == deps(2)
        assert cache.get_pass("p0") == {"n": 0}
        assert cache.stats.corrupt_lines == 0


@pytest.mark.parametrize("seed", TEAR_SEEDS[:2])
def test_a_run_after_a_torn_write_matches_a_clean_run(tmp_path, seed):
    from repro.engine import verify_passes
    from repro.passes import CXCancellation, RemoveBarriers, Width

    classes = [CXCancellation, RemoveBarriers, Width]

    def verdicts(report):
        return [(r.pass_name, r.verified, len(r.subgoals)) for r in report.results]

    clean = verify_passes(classes, cache_dir=str(tmp_path / "clean"))
    store = tmp_path / "torn"
    verify_passes(classes, cache_dir=str(store))
    for name in _STORE_FILES:
        _tear_last_record(store / name, seed)
    assert verdicts(verify_passes(classes, cache_dir=str(store))) == verdicts(clean)
    assert _unreadable_lines(store) == 0
    warm = verify_passes(classes, cache_dir=str(store))
    assert verdicts(warm) == verdicts(clean)
    assert (warm.stats.cache_hits, warm.stats.cache_misses) == (len(classes), 0)


# --------------------------------------------------------------------------- #
# Import of the retired sqlite tier
# --------------------------------------------------------------------------- #
def test_migrate_carries_hit_counters_over(tmp_path, write_legacy_sqlite):
    """Hit totals and LRU order survive the import, and nothing proved
    under another toolchain comes across."""
    live = toolchain_fingerprint()
    write_legacy_sqlite(tmp_path, [
        ("pass", "hot", live, {"n": 0}, 5),
        ("pass", "stale", "b" * 64, {"n": 1}, 9),
        ("subgoal", "cold", live, _subgoal(), 0),
        ("pass", "recent", live, {"n": 2}, 0),
    ], certs=[("cold", live, {"cert": 1}, 3)],
        deps=[("ident", DEPS_SCHEMA_VERSION, {"schema": DEPS_SCHEMA_VERSION}),
              ("old", DEPS_SCHEMA_VERSION - 1, {"schema": 0})])
    before = (tmp_path / "proofs.sqlite").read_bytes()
    assert migrate_sqlite(tmp_path) == 3
    assert (tmp_path / "proofs.sqlite").read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "certs.jsonl", "deps.jsonl", "proofs.jsonl", "proofs.sqlite"]
    with ProofCache(tmp_path) as cache:
        assert cache.hit_count("pass", "hot") == 5
        assert cache.cert_hit_count("cold") == 3
        assert cache.get_pass("stale") is None
        assert "ident" in cache.deps_snapshot()
        assert "old" not in cache.deps_snapshot()
        assert cache.prune(2) == 1          # least recently used in sqlite
        assert cache.get_pass("hot") is None
        assert cache.has_subgoal("cold") and "recent" in cache


def test_existing_jsonl_entries_win_over_migrated(tmp_path, write_legacy_sqlite):
    with ProofCache(tmp_path) as cache:
        cache.put_pass("pk", {"source": "jsonl"})
        live = cache.active_fingerprint
    write_legacy_sqlite(tmp_path, [("pass", "pk", live, {"source": "sqlite"}, 0)])
    assert migrate_sqlite(tmp_path) == 0
    with ProofCache(tmp_path) as cache:
        assert cache.get_pass("pk") == {"source": "jsonl"}


def test_migrate_reads_rows_still_in_the_wal(tmp_path, write_legacy_sqlite):
    """A store whose writer died keeps rows in ``proofs.sqlite-wal``."""
    import sqlite3

    live = toolchain_fingerprint()
    write_legacy_sqlite(tmp_path, [("pass", "checkpointed", live, {"n": 0}, 0)])
    writer = sqlite3.connect(tmp_path / "proofs.sqlite")
    writer.execute("PRAGMA journal_mode=WAL")
    writer.execute("INSERT INTO proofs VALUES "
                   "('pass', 'in-wal', ?, '{\"n\": 1}', 0, 1, 0)", (live,))
    writer.commit()                   # committed to the WAL, not checkpointed
    try:
        assert (tmp_path / "proofs.sqlite-wal").stat().st_size > 0
        assert migrate_sqlite(tmp_path) == 2
    finally:
        writer.close()
    with ProofCache(tmp_path) as cache:
        assert cache.get_pass("in-wal") == {"n": 1}


def test_migrate_without_a_sqlite_store(tmp_path):
    assert migrate_sqlite(tmp_path) == 0
    assert list(tmp_path.iterdir()) == []
