"""The store-analytics determinism promise, end to end.

``repro stats --format json`` prints the canonical aggregate as canonical
JSON, and the acceptance bar is *byte* identity: the same suite against
the same (fresh) cache must produce the same bytes whether it ran
in-process or on a worker pool.
Queue-time attribution rides the same traces: every pooled pass span
carries a ``queue_wait`` attribute exactly once.
"""

import pytest

from repro.engine import verify_passes
from repro.passes import ALL_VERIFIED_PASSES
from repro.telemetry import trace as _trace
from repro.telemetry.analyze import load_trace, summarize_trace
from repro.telemetry.stats import canonical_bytes, load_store_stats

SUBSET = list(ALL_VERIFIED_PASSES)[:6]


def _run(cache_dir, *, mode):
    jobs = {"seq": 1, "pool": 2}[mode]
    report = verify_passes(SUBSET, jobs=jobs, cache_dir=str(cache_dir))
    payload = load_store_stats(cache_dir)
    assert payload is not None, f"{mode} wrote no store-stats.json"
    verdicts = [(r.pass_name, r.verified) for r in report.results]
    return canonical_bytes(payload), verdicts


def test_cold_aggregate_byte_identical_across_modes(tmp_path):
    """The acceptance criterion itself: two cold runs (one per execution
    mode), one set of canonical bytes."""
    seen = {}
    for mode in ("seq", "pool"):
        seen[mode] = _run(tmp_path / mode, mode=mode)
    blobs = {blob for blob, _ in seen.values()}
    verdict_sets = {tuple(verdicts) for _, verdicts in seen.values()}
    assert len(blobs) == 1, "canonical aggregates diverged across modes"
    assert len(verdict_sets) == 1


def test_warm_aggregate_byte_identical_at_any_worker_count(tmp_path):
    """Warm runs read everything from the store; hit accounting must agree
    between an in-process and a pooled pass over the same cache."""
    verify_passes(SUBSET, jobs=1, cache_dir=str(tmp_path))   # populate
    warm_seq, _ = _run(tmp_path, mode="seq")
    warm_pool, _ = _run(tmp_path, mode="pool")
    assert warm_seq == warm_pool


def test_every_pooled_pass_span_carries_queue_wait_exactly_once(tmp_path):
    _trace.configure(str(tmp_path / "trace"), node="main")
    try:
        verify_passes(SUBSET, jobs=2, cache_dir=str(tmp_path / "cache"))
    finally:
        _trace.shutdown()
    records = load_trace(str(tmp_path / "trace"))
    pass_spans = [rec for rec in records
                  if rec.get("t") == "span" and rec.get("kind") == "pass"]
    assert sorted(span["name"] for span in pass_spans) == sorted(
        cls.__name__ for cls in SUBSET)
    for span in pass_spans:
        wait = span["attrs"].get("queue_wait")
        assert isinstance(wait, (int, float)) and wait >= 0.0
    # Attribution survives into the summary: the pass spans' waits sum to
    # the run's queue/prove split.
    summary = summarize_trace(records)
    assert summary["queue_seconds"] == pytest.approx(
        sum(span["attrs"]["queue_wait"] for span in pass_spans), abs=1e-5)
