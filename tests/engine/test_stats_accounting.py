"""Per-run cache-stats accounting.

Regression guards: a long-lived (caller-provided) cache accumulates
counters across runs, but each ``verify_passes`` call must
report only what *it* contributed — hits, misses, and invalidations must not
leak from one run's stats block into the next.
"""

from repro.engine.cache import ProofCache
from repro.engine.driver import verify_passes
from repro.engine.fingerprint import pass_fingerprint, toolchain_fingerprint
from repro.passes import CXCancellation, Depth, Width


# --------------------------------------------------------------------------- #
# Invalidation / hit / miss counters reset between runs
# --------------------------------------------------------------------------- #
def test_per_run_stats_reset_on_long_lived_cache(tmp_path):
    # Seed the store with an entry proved under an older toolchain.
    key = pass_fingerprint(Depth)
    with ProofCache(tmp_path, active_fingerprint="stale-toolchain") as old:
        old.put_pass(key, {"bogus": True})

    with ProofCache(tmp_path) as cache:
        first = verify_passes([Depth], cache=cache).stats
        # The store drops the stale entry at load time, before the run: a
        # run never re-reports invalidations it did not itself observe.
        assert first.invalidated == 0
        assert first.cache_misses == 1
        assert first.cache_hits == 0

        second = verify_passes([Depth], cache=cache).stats
        assert second.invalidated == 0          # must not leak from run 1
        assert second.cache_hits == 1
        assert second.cache_misses == 0

        third = verify_passes([Depth, Width], cache=cache).stats
        assert third.invalidated == 0
        assert third.cache_hits == 1            # Depth warm
        assert third.cache_misses == 1          # Width cold


def test_own_jsonl_cache_reports_load_time_invalidations(tmp_path):
    key = pass_fingerprint(Depth)
    with ProofCache(tmp_path, active_fingerprint="stale-toolchain") as old:
        old.put_pass(key, {"bogus": True})
    # The engine opens (and therefore loads) the cache itself: the stale
    # entry it drops on load belongs to this run's report.
    stats = verify_passes([Depth], cache_dir=tmp_path).stats
    assert stats.invalidated == 1
    assert stats.cache_misses == 1


def test_incremental_runs_share_the_same_accounting(tmp_path):
    with ProofCache(tmp_path) as cache:
        verify_passes([Depth, Width], cache=cache)
        quiet = verify_passes([Depth, Width], cache=cache,
                              changed_paths=[]).stats
        assert quiet.cache_hits == 2
        assert quiet.cache_misses == 0
        assert quiet.invalidated == 0
        assert quiet.stale_passes == 0
        again = verify_passes([Depth, Width], cache=cache,
                              changed_paths=[]).stats
        assert again.cache_hits == 2            # not 4: per-run, not cumulative
        assert again.stale_passes == 0


def test_evicted_proof_with_fresh_deps_counts_one_miss(tmp_path):
    """Incremental probe + re-derived identical key must not double-count."""
    with ProofCache(tmp_path) as cache:
        verify_passes([Depth, Width], cache=cache)
        cache.prune(0)                          # evict every proof, keep deps
        stats = verify_passes([Depth, Width], cache=cache,
                              changed_paths=[]).stats
        assert stats.stale_passes == 2          # probes missed -> full path
        assert stats.cache_misses == 2          # one miss per pass, not two
        assert stats.cache_hits == 0
        assert stats.cache_hits + stats.cache_misses == stats.passes_total
