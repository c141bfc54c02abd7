"""The store the daemon serves is the JSONL proof cache direct runs use:
persistence, invalidation and eviction under an explicit fingerprint."""

from repro.engine.cache import ProofCache
from repro.engine.fingerprint import toolchain_fingerprint

FP = "a" * 64  # explicit fingerprint: store tests never need the real prover


def _subgoal(n=0):
    return {"proved": True, "method": "identical", "reason": "", "rules_used": [f"r{n}"]}


def test_in_memory_round_trip():
    cache = ProofCache(None, active_fingerprint=FP)
    assert cache.get_pass("k") is None
    cache.put_pass("k", {"verified": True})
    assert cache.get_pass("k") == {"verified": True}
    assert cache.stats.pass_hits == 1
    assert cache.stats.pass_misses == 1
    assert cache.path is None
    cache.close()


def test_persistence_across_instances(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("pk", {"verified": True})
        cache.put_subgoal("sk", _subgoal())
    reopened = ProofCache(tmp_path, active_fingerprint=FP)
    assert reopened.get_pass("pk") == {"verified": True}
    assert reopened.get_subgoal("sk")["proved"] is True
    assert reopened.has_subgoal("sk")
    assert len(reopened) == 2
    assert "pk" in reopened
    assert sorted(kind for kind, _, _ in reopened.entries()) == ["pass", "subgoal"]
    reopened.close()


def test_last_write_wins(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        for round_number in range(5):
            cache.put_pass("pk", {"round": round_number})
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        assert cache.get_pass("pk") == {"round": 4}
        assert len(cache) == 1


def test_entries_from_other_toolchains_are_invisible(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_pass("pk", {"verified": True})
    other = ProofCache(tmp_path, active_fingerprint="b" * 64)
    assert other.get_pass("pk") is None
    assert other.stats.invalidated == 1
    assert other.stats.pass_misses == 1
    assert len(other) == 0
    assert other.subgoal_snapshot() == {}
    other.close()


def test_default_fingerprint_is_the_toolchain(tmp_path):
    with ProofCache(tmp_path) as cache:
        assert cache.active_fingerprint == toolchain_fingerprint()


def test_touch_subgoals_refreshes_recency_and_hits(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        cache.put_subgoal("hot", _subgoal())
        cache.put_pass("p1", {"verified": True})
        cache.put_pass("p2", {"verified": True})
        cache.touch_subgoals(["hot", "unknown-key"])
        assert cache.hit_count("subgoal", "hot") == 1
        assert cache.prune(1) == 2
        assert cache.has_subgoal("hot")


def test_prune_is_least_recently_used(tmp_path):
    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        for index in range(5):
            cache.put_pass(f"p{index}", {"index": index})
        # Refresh p0 so p1 becomes the eviction victim.
        cache.get_pass("p0")
        evicted = cache.prune(3)
        assert evicted == 2
        assert cache.stats.evicted == 2
        assert cache.get_pass("p0") is not None
        assert cache.get_pass("p4") is not None
        assert cache.get_pass("p1") is None
        assert cache.get_pass("p2") is None


def test_prune_reports_reclaimed_bytes_per_tier(tmp_path):
    from repro.telemetry.stats import load_evictions

    with ProofCache(tmp_path, active_fingerprint=FP) as cache:
        for index in range(4):
            cache.put_pass(f"p{index}", {"payload": "x" * 50, "i": index})
        evicted = cache.prune(2)
        assert evicted == 2
        assert cache.stats.proof_bytes_reclaimed > 100
        journaled = load_evictions(tmp_path)
        assert {entry["key"] for entry in journaled} == {"p0", "p1"}
