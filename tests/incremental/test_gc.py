"""Dependency-index garbage collection, on both proof-cache backends."""

import pytest

from repro.cli import main
from repro.engine.cache import ProofCache
from repro.incremental.deps import DEPS_SCHEMA_VERSION
from repro.service.store import SqliteProofCache


def _entry(fingerprint):
    return {"schema": DEPS_SCHEMA_VERSION, "fingerprint": fingerprint}


def _seed(cache):
    cache.put_deps("live-1", _entry("f1"))
    cache.put_deps("live-2", _entry("f2"))
    cache.put_deps("gone-1", _entry("f3"))
    cache.put_deps("gone-2", _entry("f4"))


@pytest.mark.parametrize("backend", [ProofCache, SqliteProofCache])
def test_gc_removes_only_dead_entries(tmp_path, backend):
    with backend(tmp_path) as cache:
        _seed(cache)
        removed = cache.gc_deps({"live-1", "live-2"})
        assert removed == 2
        assert set(cache.deps_snapshot()) == {"live-1", "live-2"}
        assert cache.stats.deps_reclaimed == 2
    # Durable: a reopened cache sees only the survivors.
    with backend(tmp_path) as cache:
        assert set(cache.deps_snapshot()) == {"live-1", "live-2"}


@pytest.mark.parametrize("backend", [ProofCache, SqliteProofCache])
def test_gc_with_everything_live_is_a_noop(tmp_path, backend):
    with backend(tmp_path) as cache:
        _seed(cache)
        assert cache.gc_deps({"live-1", "live-2", "gone-1", "gone-2"}) == 0
        assert len(cache.deps_snapshot()) == 4


@pytest.mark.parametrize("backend_name", ["jsonl", "sqlite"])
def test_cli_cache_gc_keeps_suite_configurations(tmp_path, capsys, backend_name):
    cache_dir = str(tmp_path / "cache")
    # Verify two real passes: their dep entries are in the suite and must
    # survive; a fabricated entry must be reclaimed.
    assert main(["verify", "CXCancellation", "Depth", "--backend", backend_name,
                 "--cache-dir", cache_dir, "--format", "json"]) == 0
    capsys.readouterr()
    backend = ProofCache if backend_name == "jsonl" else SqliteProofCache
    with backend(cache_dir) as cache:
        cache.put_deps("abandoned-config", _entry("x"))
        before = len(cache.deps_snapshot())
    assert main(["cache", "gc", "--backend", backend_name,
                 "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "1 reclaimed" in out
    with backend(cache_dir) as cache:
        after = cache.deps_snapshot()
        assert len(after) == before - 1
        assert "abandoned-config" not in after


def test_sqlite_prune_reports_reclaimed_dep_rows(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    with SqliteProofCache(cache_dir) as cache:
        # A row under a foreign sidecar schema: invisible to readers,
        # reaped (and reported) by prune.
        with cache._lock:
            cache._conn.execute(
                "INSERT INTO deps (key, schema, value, updated_at) "
                "VALUES ('old', 9999, '{}', 0)")
        cache.put_pass("p", {"pass": "X"})
    assert main(["cache", "prune", "--max-entries", "10", "--backend", "sqlite",
                 "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "1 dep rows reclaimed" in out


def _stored_rows(cache):
    if isinstance(cache, ProofCache):
        return {key for key in cache._deps if key.startswith("module:")}
    return {key for (key,) in cache._conn.execute(
        "SELECT key FROM deps WHERE key LIKE 'module:%'")}


@pytest.mark.parametrize("backend", [ProofCache, SqliteProofCache])
def test_gc_keeps_exactly_the_module_rows_live_entries_reach(tmp_path, backend):
    from repro.engine.fingerprint import pass_fingerprint
    from repro.incremental.deps import build_dep_entry, module_row_records
    from repro.passes import Depth

    entry = build_dep_entry(Depth, None, pass_fingerprint(Depth))
    reachable = set(module_row_records([entry]))
    # A row for an older version of some file: no entry reaches it.
    stale_row = "module:" + "0" * 64
    with backend(tmp_path) as cache:
        cache.put_deps("live", entry)
        cache.put_deps(stale_row, {"imports": [], "schema": DEPS_SCHEMA_VERSION})
    with backend(tmp_path) as cache:
        assert _stored_rows(cache) == reachable | {stale_row}
        assert cache.gc_deps({"live"}) == 0
        assert cache.stats.dep_bytes_reclaimed > 0
    with backend(tmp_path) as cache:
        assert _stored_rows(cache) == reachable
        assert set(cache.deps_snapshot()) == {"live"}
