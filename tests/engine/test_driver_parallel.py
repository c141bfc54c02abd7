"""The batch driver: cache behaviour, one executor at any ``--jobs``, and
the fuzz campaign's worker pool."""

import pickle

import pytest

from repro.engine import ProofCache, WorkerPool, verify_passes
from repro.engine.driver import payload_to_result, result_to_payload
from repro.engine.fingerprint import canonical_rule_names
from repro.passes import (
    BuggyOptimize1qGates,
    CXCancellation,
    Depth,
    RemoveBarriers,
    SwapCancellation,
    Width,
)
from repro.verify.verifier import verify_pass

SMALL_SUITE = [CXCancellation, Width, RemoveBarriers, Depth, SwapCancellation]


def _summary(result):
    return (
        result.pass_name,
        result.verified,
        result.supported,
        result.num_subgoals,
        result.paths_explored,
        tuple(result.failure_reasons),
    )


def test_cold_run_is_all_misses_then_warm_run_all_hits(tmp_path):
    cold = verify_passes(SMALL_SUITE, cache_dir=tmp_path)
    assert cold.stats.cache_hits == 0
    assert cold.stats.cache_misses == len(SMALL_SUITE)
    warm = verify_passes(SMALL_SUITE, cache_dir=tmp_path)
    assert warm.stats.cache_hits == len(SMALL_SUITE)
    assert warm.stats.cache_misses == 0
    assert [_summary(r) for r in cold.results] == [_summary(r) for r in warm.results]
    assert all(result.from_cache for result in warm.results)
    assert not any(result.from_cache for result in cold.results)


def test_cached_results_match_direct_verification(tmp_path):
    verify_passes(SMALL_SUITE, cache_dir=tmp_path)
    warm = verify_passes(SMALL_SUITE, cache_dir=tmp_path)
    for pass_class, cached in zip(SMALL_SUITE, warm.results):
        direct = verify_pass(pass_class)
        assert _summary(cached) == _summary(direct)
        # Rule names embed per-run symbolic uids; the engine reports them
        # under each subgoal's canonical renaming, which must survive the
        # cache round trip exactly.
        canonical = {
            name
            for outcome in direct.subgoals
            for name in canonical_rule_names(outcome.subgoal,
                                             outcome.result.rules_used)
        }
        assert list(cached.rules_used) == sorted(canonical)
        if direct.analysis is not None:
            assert cached.analysis.lines_of_code == direct.analysis.lines_of_code
            assert cached.analysis.templates_used == direct.analysis.templates_used


def test_failing_pass_round_trips_through_cache(tmp_path):
    cold = verify_passes([BuggyOptimize1qGates], cache_dir=tmp_path)
    warm = verify_passes([BuggyOptimize1qGates], cache_dir=tmp_path)
    assert warm.stats.cache_hits == 1
    for report in (cold, warm):
        (result,) = report.results
        assert result.supported and not result.verified
        assert result.failure_reasons
    cold_ce, warm_ce = cold.results[0].counterexample, warm.results[0].counterexample
    if cold_ce is not None:
        assert warm_ce is not None
        assert warm_ce.kind == cold_ce.kind
        assert warm_ce.confirmed == cold_ce.confirmed


def test_result_payload_round_trip():
    result = verify_pass(CXCancellation)
    rebuilt = payload_to_result(result_to_payload(result))
    assert _summary(rebuilt) == _summary(result)
    assert rebuilt.summary().split("(")[0] == result.summary().split("(")[0]


def test_subgoal_reuse_across_related_passes(tmp_path):
    # A cache primed by one pass lets a *different* (never-cached) pass
    # reuse the subgoals they share — here the analysis passes, whose
    # "circuit unchanged" obligation is canonically identical.
    cache = ProofCache(tmp_path)
    verify_passes([Width], cache=cache)
    report = verify_passes([Depth], cache=cache)
    assert report.stats.cache_hits == 0  # different pass: no whole-pass hit
    assert report.stats.subgoal_hits > 0
    cache.close()


def test_subgoal_memoisation_within_verify_one():
    from repro.engine.driver import _verify_one

    table = {}
    _, acct = _verify_one(CXCancellation, None, False, table)
    assert acct.misses == len(acct.new_subgoals) > 0
    assert acct.hit_keys == []
    # Every freshly proved subgoal carries a certificate payload.
    assert sorted(acct.new_certificates) == sorted(acct.new_subgoals)
    # Re-verifying the same pass against the warm table discharges every
    # subgoal from memory (this is what a changed-but-similar pass hits).
    _, second = _verify_one(CXCancellation, None, False, table)
    assert second.misses == 0
    assert second.new_subgoals == {}
    assert second.hits == acct.hits + acct.misses
    assert sorted(second.hit_keys) == sorted(acct.new_subgoals)


def test_stats_are_per_run_for_shared_cache(tmp_path):
    cache = ProofCache(tmp_path)
    first = verify_passes(SMALL_SUITE, cache=cache)
    second = verify_passes(SMALL_SUITE, cache=cache)
    assert first.stats.cache_misses == len(SMALL_SUITE)
    assert second.stats.cache_hits == len(SMALL_SUITE)
    assert second.stats.cache_misses == 0
    cache.close()


def test_engine_stats_dict_field_order():
    report = verify_passes([Width], use_cache=False)
    keys = list(report.stats.to_dict().keys())
    assert keys[:4] == ["cache_hits", "cache_misses", "jobs", "wall_seconds"]


# --------------------------------------------------------------------------- #
# Scheduler (the executor of ``repro fuzz --workers``)
# --------------------------------------------------------------------------- #
def _square(value):
    return value * value


def test_parallel_map_preserves_order():
    """The fuzz campaign merges its batches in the order the pool returns."""
    values = list(range(20))
    assert WorkerPool(4).map(_square, values) == [v * v for v in values]


def test_worker_pool_falls_back_in_process_for_unpicklable_work():
    pool = WorkerPool(jobs=4)
    closure = lambda v: v + 1  # noqa: E731 - deliberately unpicklable
    with pytest.raises(Exception):
        pickle.dumps(closure)
    assert pool.map(closure, [1, 2, 3]) == [2, 3, 4]
    assert pool.used_processes is False


def test_jobs_one_never_spawns_processes():
    pool = WorkerPool(jobs=1)
    assert pool.map(_square, [3, 4]) == [9, 16]
    assert pool.used_processes is False


#: Run ``repro verify`` in a fresh interpreter; print its exit code, its
#: report and whether it loaded the worker pool.
_VERIFY_AND_LIST_POOL = """
import contextlib, io, json, sys
import repro.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "report": json.loads(out.getvalue()),
                  "pool": [name for name in ("multiprocessing",
                                             "repro.engine.scheduler")
                           if name in sys.modules]}))
"""


def _cold_json_report(cache_dir, *flags):
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    completed = subprocess.run(
        [sys.executable, "-c", _VERIFY_AND_LIST_POOL, "verify", "--all",
         "--format", "json", "--cache-dir", str(cache_dir), *flags],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    run = json.loads(completed.stdout)
    assert run["code"] == 0
    report = run["report"]
    # What may differ between runs of equal work: times and the store's
    # path.
    report["summary"].pop("total_seconds")
    report["engine"].pop("wall_seconds")
    report["engine"].pop("cache_dir")
    for row in report["results"]:
        row.pop("time_seconds")
    return report, run["pool"]


def test_json_report_does_not_depend_on_the_worker_count(tmp_path):
    """Every run proves in-process: a cold report at any ``--jobs`` (or
    ``--workers``) is the ``--jobs 1`` report, engine block included, and
    the run loads no worker pool."""
    sequential, pool = _cold_json_report(tmp_path / "j1", "--jobs", "1")
    assert pool == []
    assert any(row["rules_used"] for row in sequential["results"])
    engine = sequential["engine"]
    assert (engine["jobs"], engine["used_processes"]) == (1, False)
    for flags in (("--jobs", "2"), ("--workers", "2"), ("--jobs", "0")):
        report, pool = _cold_json_report(tmp_path / "-".join(flags), *flags)
        assert pool == [], flags
        assert report == sequential, flags
