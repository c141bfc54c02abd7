"""Proof-store analytics: the canonical aggregate, the eviction journal,
persistence, and the determinism promise across execution modes."""

import json

import pytest

from repro.telemetry import stats as store_stats
from repro.telemetry.stats import (
    HOT_KEY_LIMIT,
    StatsRecorder,
    append_evictions,
    canonical_bytes,
    load_evictions,
    load_store_stats,
    render_stats_table,
    store_stats_path,
)


# --------------------------------------------------------------------------- #
# Recorder: the canonical accounting rule
# --------------------------------------------------------------------------- #
def test_pass_tier_counts_hit_stale_miss():
    recorder = StatsRecorder()
    recorder.note_pass("h", "hit")
    recorder.note_pass("s", "stale")
    recorder.note_pass("m", "miss")
    recorder.note_pass(None, "hit")           # uncacheable pass: ignored
    tiers = recorder.canonical()["tiers"]["pass"]
    assert tiers == {"hits": 1, "misses": 1, "stale": 1,
                     "ratio": pytest.approx(1 / 3)}


def test_subgoal_rule_charges_proved_keys_one_miss():
    """A key the run proved itself cost one miss; every further access of
    it — and every access of a key served from the table — is a hit.
    This is the rule that makes the aggregate worker-count independent."""
    recorder = StatsRecorder()
    # Unit A proves k1 and reads k2 twice; unit B re-reads k1.
    recorder.note_unit(["k2", "k2"], ["k1"])
    recorder.note_unit(["k1"], [])
    tiers = recorder.canonical()["tiers"]["subgoal"]
    assert tiers["hits"] == 3                 # k2 twice + k1 re-read
    assert tiers["misses"] == 1               # k1's cold proof
    assert tiers["keys"] == 2
    assert tiers["ratio"] == pytest.approx(0.75)


def test_certificates_deduplicate_across_sources():
    recorder = StatsRecorder()
    recorder.note_certificates(["c1", "c2"])
    recorder.note_certificates(["c2", "c3"])  # idempotent set-union
    assert recorder.canonical()["tiers"]["certificate"]["stored"] == 3


def test_hot_keys_sorted_and_capped():
    recorder = StatsRecorder()
    for index in range(HOT_KEY_LIMIT + 20):
        recorder.note_unit([f"k{index:04d}"] * (2 if index == 7 else 1), [])
    rows = recorder.canonical()["hot_keys"]
    assert len(rows) == HOT_KEY_LIMIT
    assert rows[0]["key"] == "k0007"          # most accesses first
    assert rows[0]["accesses"] == 2
    tail = [row["key"] for row in rows[1:]]
    assert tail == sorted(tail)               # then deterministic key order


def test_canonical_is_independent_of_feed_order():
    one, other = StatsRecorder(), StatsRecorder()
    one.note_unit(["a"], ["b"])
    one.note_unit(["b"], [])
    one.note_pass("p", "hit")
    other.note_pass("p", "hit")
    other.note_unit(["b"], [])
    other.note_unit(["a"], ["b"])
    payload_one = {"canonical": one.canonical()}
    payload_other = {"canonical": other.canonical()}
    assert canonical_bytes(payload_one) == canonical_bytes(payload_other)


# --------------------------------------------------------------------------- #
# Eviction journal -> wasted-eviction counter
# --------------------------------------------------------------------------- #
def test_finalize_consumes_re_missed_journal_entries(tmp_path):
    append_evictions(tmp_path, [("subgoal", "gone"), ("subgoal", "unused"),
                                ("pass", "cold")])
    recorder = StatsRecorder(tmp_path)
    recorder.note_unit([], ["gone"])          # evicted, then re-proved
    recorder.note_pass("cold", "miss")        # evicted, then re-missed
    assert recorder.finalize() == 2
    assert recorder.canonical()["wasted_evictions"] == 2
    # Counted entries are consumed; the untouched one stays for later runs.
    assert load_evictions(tmp_path) == [{"tier": "subgoal", "key": "unused"}]
    # finalize() is idempotent — a second call must not double-count.
    assert recorder.finalize() == 2


def test_unreferenced_journal_entries_survive(tmp_path):
    append_evictions(tmp_path, [("subgoal", "maybe-later")])
    recorder = StatsRecorder(tmp_path)
    recorder.note_unit(["hot"], [])
    assert recorder.finalize() == 0
    assert load_evictions(tmp_path) == [{"tier": "subgoal",
                                         "key": "maybe-later"}]


# --------------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------------- #
def test_save_load_round_trip(tmp_path):
    recorder = StatsRecorder(tmp_path, backend="jsonl", workers=2)
    recorder.note_pass("p", "hit")
    recorder.note_io("pass", hit=True, seconds=0.001, nbytes=64)
    path = recorder.finalize_and_save()
    assert path == store_stats_path(tmp_path)
    payload = load_store_stats(tmp_path)
    assert payload["canonical"]["tiers"]["pass"]["hits"] == 1
    assert payload["local"]["backend"] == "jsonl"
    assert payload["local"]["workers"] == 2
    assert payload["local"]["io"]["pass"]["bytes"] == 64


def test_load_rejects_corrupt_and_foreign_schema(tmp_path):
    assert load_store_stats(tmp_path) is None
    with open(store_stats_path(tmp_path), "w", encoding="utf-8") as handle:
        handle.write("not json")
    assert load_store_stats(tmp_path) is None
    with open(store_stats_path(tmp_path), "w", encoding="utf-8") as handle:
        json.dump({"canonical": {"schema": -1}, "local": {}}, handle)
    assert load_store_stats(tmp_path) is None


def test_merge_io_folds_worker_deltas():
    recorder = StatsRecorder()
    recorder.merge_io("remote-subgoal", {"gets": 3, "hits": 2, "misses": 1,
                                         "seconds": 0.5, "bytes": 100})
    recorder.merge_io("remote-subgoal", {"gets": 1, "hits": 1, "misses": 0,
                                         "seconds": 0.25, "bytes": 20})
    recorder.merge_io("remote-subgoal", "garbage")        # ignored
    io = recorder.local()["io"]["remote-subgoal"]
    assert io == {"gets": 4, "hits": 3, "misses": 1,
                  "seconds": 0.75, "bytes": 120}


def test_render_table_mentions_every_surface(tmp_path):
    recorder = StatsRecorder(tmp_path, backend="jsonl", workers=None)
    recorder.note_pass("p", "stale")
    recorder.note_unit(["s"], [])
    recorder.note_io("subgoal", hit=True, nbytes=10)
    recorder.finalize_and_save()
    text = "\n".join(render_stats_table(load_store_stats(tmp_path)))
    assert "stale re-proved" in text
    assert "wasted evictions" in text
    assert "hot keys" in text
    assert "not canonical" in text            # local section is labelled


def test_set_enabled_round_trips():
    previous = store_stats.set_enabled(False)
    try:
        assert store_stats.enabled() is False
    finally:
        store_stats.set_enabled(previous)
    assert store_stats.enabled() is previous
