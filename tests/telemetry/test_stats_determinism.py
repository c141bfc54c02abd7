"""The store-analytics determinism promise, end to end.

``repro stats --format json`` prints the canonical aggregate as canonical
JSON, and the acceptance bar is *byte* identity: the same suite against
the same (fresh) cache must produce the same bytes whether it ran
in-process, on a worker pool, or distributed over ``repro work`` peers of
a loopback ``--cluster`` coordinator.
Queue-time attribution rides the same traces: every unit span carries a
``queue_wait`` attribute exactly once.
"""

import pytest

from repro.cluster import verify_passes_distributed
from repro.engine import verify_passes
from repro.passes import ALL_VERIFIED_PASSES
from repro.telemetry import trace as _trace
from repro.telemetry.analyze import (
    coverage_problems,
    load_trace,
    summarize_trace,
)
from repro.telemetry.stats import canonical_bytes, load_store_stats

SUBSET = list(ALL_VERIFIED_PASSES)[:6]


def _run(cache_dir, *, mode, peers=None):
    if mode == "seq":
        report = verify_passes(SUBSET, jobs=1, cache_dir=str(cache_dir))
    elif mode == "pool":
        report = verify_passes(SUBSET, jobs=2, cache_dir=str(cache_dir))
    else:
        with peers(cache_dir) as hostfile:
            report = verify_passes_distributed(
                SUBSET, hostfile=hostfile, cache_dir=str(cache_dir))
    payload = load_store_stats(cache_dir)
    assert payload is not None, f"{mode} wrote no store-stats.json"
    verdicts = [(r.pass_name, r.verified) for r in report.results]
    return canonical_bytes(payload), verdicts


def test_cold_aggregate_byte_identical_across_modes(tmp_path, cluster_peers):
    """The acceptance criterion itself: three cold runs (one per execution
    mode), one set of canonical bytes."""
    seen = {}
    for mode in ("seq", "pool", "cluster"):
        seen[mode] = _run(tmp_path / mode, mode=mode, peers=cluster_peers)
    blobs = {blob for blob, _ in seen.values()}
    verdict_sets = {tuple(verdicts) for _, verdicts in seen.values()}
    assert len(blobs) == 1, "canonical aggregates diverged across modes"
    assert len(verdict_sets) == 1


def test_warm_aggregate_byte_identical_at_any_worker_count(tmp_path,
                                                          cluster_peers):
    """Warm runs read everything from the store; hit accounting must agree
    between an in-process and a distributed pass over the same cache."""
    verify_passes(SUBSET, jobs=1, cache_dir=str(tmp_path))   # populate
    warm_seq, _ = _run(tmp_path, mode="seq")
    warm_cluster, _ = _run(tmp_path, mode="cluster", peers=cluster_peers)
    assert warm_seq == warm_cluster


def test_every_unit_span_carries_queue_wait_exactly_once(tmp_path,
                                                        cluster_peers):
    _trace.configure(str(tmp_path / "trace"), node="main")
    try:
        with cluster_peers(tmp_path / "cache") as hostfile:
            verify_passes_distributed(SUBSET, hostfile=hostfile,
                                      cache_dir=str(tmp_path / "cache"))
    finally:
        _trace.shutdown()
    records = load_trace(str(tmp_path / "trace"))
    summary = summarize_trace(records)
    assert coverage_problems(summary) == []
    unit_spans = [rec for rec in records
                  if rec.get("t") == "span" and rec.get("kind") == "unit"]
    assert len(unit_spans) == len(SUBSET)
    for span in unit_spans:
        wait = span["attrs"].get("queue_wait")
        assert isinstance(wait, (int, float)) and wait >= 0.0
    # Attribution survives into the summary: per-worker queue seconds sum
    # to the run's split, and every worker reports a utilisation share.
    workers = summary["workers"]
    assert workers
    assert summary["queue_seconds"] == pytest.approx(
        sum(entry["queue_seconds"] for entry in workers.values()), abs=1e-6)
    for entry in workers.values():
        assert entry["utilisation"] is None or 0.0 <= entry["utilisation"] <= 1.0


def test_sharded_requeue_paths_still_account_once(tmp_path, cluster_peers):
    """shard_threshold=0 forces the shard planner; aggregates must stay
    identical to the unsharded in-process run over the same suite."""
    with cluster_peers(tmp_path / "shard") as hostfile:
        sharded, verdicts_sharded = _run_sharded(tmp_path / "shard", hostfile)
    plain, verdicts_plain = _run(tmp_path / "plain", mode="seq")
    assert sharded == plain
    assert verdicts_sharded == verdicts_plain


def _run_sharded(cache_dir, hostfile):
    report = verify_passes_distributed(
        SUBSET, hostfile=hostfile, cache_dir=str(cache_dir), shard_threshold=0)
    payload = load_store_stats(cache_dir)
    assert payload is not None
    return canonical_bytes(payload), [(r.pass_name, r.verified)
                                      for r in report.results]
