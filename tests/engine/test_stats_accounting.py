"""Per-run cache-stats accounting and EngineStats.merge algebra.

Regression guards for the PR 2 accounting fix: a long-lived (caller-provided)
cache accumulates counters across runs, but each ``verify_passes`` call must
report only what *it* contributed — hits, misses, and invalidations must not
leak from one run's stats block into the next.
"""

from repro.engine.cache import ProofCache
from repro.engine.driver import EngineStats, verify_passes
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


# --------------------------------------------------------------------------- #
# EngineStats.merge algebra
# --------------------------------------------------------------------------- #
def _clone(stats: EngineStats) -> EngineStats:
    return EngineStats.from_dict(stats.to_dict())


def _merge(a: EngineStats, b: EngineStats) -> EngineStats:
    return _clone(a).merge(_clone(b))


MIXED_BATCHES = [
    EngineStats(jobs=1, passes_total=10, cache_hits=10, cache_misses=0,
                subgoal_hits=3, wall_seconds=0.25),
    EngineStats(jobs=4, used_processes=True, passes_total=5, cache_hits=1,
                cache_misses=4, subgoal_misses=7, invalidated=2,
                wall_seconds=1.5),
    EngineStats(jobs=2, passes_total=3, cache_hits=0, cache_misses=3,
                subgoal_hits=1, subgoal_misses=2, wall_seconds=0.5,
                stale_passes=3),
    EngineStats(jobs=1, passes_total=0, wall_seconds=0.0),
    EngineStats(jobs=8, passes_total=47, cache_hits=40, cache_misses=7,
                invalidated=1, wall_seconds=2.0, stale_passes=7),
]


def test_merge_is_associative_on_mixed_batches():
    for i, a in enumerate(MIXED_BATCHES):
        for j, b in enumerate(MIXED_BATCHES):
            for k, c in enumerate(MIXED_BATCHES):
                left = _merge(_merge(a, b), c)
                right = _merge(a, _merge(b, c))
                assert left.to_dict() == right.to_dict(), (i, j, k)


def test_merge_totals_on_a_mixed_hit_miss_chain():
    total = MIXED_BATCHES[0]
    for other in MIXED_BATCHES[1:]:
        total = _merge(total, other)
    assert total.passes_total == sum(s.passes_total for s in MIXED_BATCHES)
    assert total.cache_hits == sum(s.cache_hits for s in MIXED_BATCHES)
    assert total.cache_misses == sum(s.cache_misses for s in MIXED_BATCHES)
    assert total.invalidated == sum(s.invalidated for s in MIXED_BATCHES)
    # None is the identity for stale_passes, not zero:
    assert total.stale_passes == 10
    assert total.jobs == 8
    assert total.used_processes is True


def test_merge_none_stale_is_identity():
    full = EngineStats(passes_total=2, stale_passes=None)
    incr = EngineStats(passes_total=1, stale_passes=0)
    assert _merge(full, full).stale_passes is None
    assert _merge(full, incr).stale_passes == 0
    assert _merge(incr, full).stale_passes == 0


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
