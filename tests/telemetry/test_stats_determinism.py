"""The store-analytics determinism promise, end to end.

``repro stats --format json`` prints the canonical aggregate as canonical
JSON, and the acceptance bar is *byte* identity: the same suite against
the same (fresh) cache must produce the same bytes on every run.
"""

from repro.engine import verify_passes
from repro.passes import ALL_VERIFIED_PASSES
from repro.telemetry.stats import canonical_bytes, load_store_stats

SUBSET = list(ALL_VERIFIED_PASSES)[:6]


def _run(cache_dir):
    report = verify_passes(SUBSET, cache_dir=str(cache_dir))
    payload = load_store_stats(cache_dir)
    assert payload is not None, f"{cache_dir} holds no store-stats.json"
    verdicts = [(r.pass_name, r.verified) for r in report.results]
    return canonical_bytes(payload), verdicts


def test_cold_aggregate_byte_identical_across_modes(tmp_path):
    """The acceptance criterion itself: two cold in-process runs on two
    fresh stores, one set of canonical bytes."""
    runs = [_run(tmp_path / name) for name in ("first", "second")]
    assert len({blob for blob, _ in runs}) == 1, "canonical aggregates diverged"
    assert len({tuple(verdicts) for _, verdicts in runs}) == 1


def test_warm_aggregate_byte_identical_at_any_worker_count(tmp_path):
    """Warm runs read everything from the store; two of them over the same
    cache account the same hits."""
    verify_passes(SUBSET, cache_dir=str(tmp_path))   # populate
    warm_first, _ = _run(tmp_path)
    warm_second, _ = _run(tmp_path)
    assert warm_first == warm_second
