"""Distributed runs vs the single-process engine: identical results.

The satellite contract: two workers on disjoint shards produce
byte-identical reports to a single-process run — ordering, hit/miss
accounting, ``stale_passes`` — and a pass split into subgoal units merges
to the same verdict as its unsplit proof.  The workers are ``repro work``
peers of a loopback ``--cluster`` coordinator (the ``cluster_peers``
fixture).
"""

import json

import pytest

from repro.cli import main
from repro.cluster import verify_passes_distributed
from repro.engine import verify_passes
from repro.passes import ALL_VERIFIED_PASSES
from repro.verify.report import to_json

SUBSET = list(ALL_VERIFIED_PASSES)[:8]


def _verdicts(report):
    return [(r.pass_name, r.verified, r.num_subgoals, r.paths_explored,
             list(r.failure_reasons)) for r in report.results]


def test_cold_distributed_matches_single_process(tmp_path, cluster_peers):
    single = verify_passes(SUBSET, jobs=1, cache_dir=str(tmp_path / "a"))
    with cluster_peers(tmp_path / "b") as hostfile:
        distributed = verify_passes_distributed(
            SUBSET, hostfile=hostfile, cache_dir=str(tmp_path / "b"))
    assert _verdicts(single) == _verdicts(distributed)
    assert distributed.stats.cache_misses == len(SUBSET)
    assert distributed.stats.cluster["units_total"] == len(SUBSET)


def test_warm_reports_are_byte_identical(tmp_path, cluster_peers):
    """After a cold cluster run, warm cluster and warm single-process runs
    render byte-identical reports from the same store."""
    cache_dir = str(tmp_path / "shared")
    with cluster_peers(cache_dir) as hostfile:
        verify_passes_distributed(SUBSET, hostfile=hostfile,
                                  cache_dir=cache_dir)

    warm_single = verify_passes(SUBSET, jobs=1, cache_dir=cache_dir)
    with cluster_peers(cache_dir) as hostfile:
        warm_cluster = verify_passes_distributed(SUBSET, hostfile=hostfile,
                                                 cache_dir=cache_dir)
    # Results: byte-identical JSON (cached results carry time 0.0).
    assert to_json(warm_single.results) == to_json(warm_cluster.results)
    # Accounting: same hits/misses/subgoal counters either way.
    for field in ("cache_hits", "cache_misses", "subgoal_hits",
                  "subgoal_misses", "passes_total", "stale_passes"):
        assert getattr(warm_single.stats, field) == \
            getattr(warm_cluster.stats, field), field
    assert warm_cluster.stats.cache_hits == len(SUBSET)
    assert warm_cluster.stats.cluster["units_total"] == 0


def test_sharded_pass_merges_to_unsplit_verdict(tmp_path, cluster_peers):
    """Force-split everything: merged shard verdicts equal whole proofs."""
    single = verify_passes(SUBSET, jobs=1, cache_dir=str(tmp_path / "a"))
    with cluster_peers(tmp_path / "b") as hostfile:
        sharded = verify_passes_distributed(
            SUBSET, hostfile=hostfile, cache_dir=str(tmp_path / "b"),
            shard_threshold=0)
    assert sharded.stats.cluster["split_passes"] >= 1
    assert sharded.stats.cluster["units_total"] > len(SUBSET)
    assert _verdicts(single) == _verdicts(sharded)
    # The merged payloads were cached: a warm run serves them unchanged.
    warm = verify_passes(SUBSET, jobs=1, cache_dir=str(tmp_path / "b"))
    assert _verdicts(warm) == _verdicts(single)
    assert warm.stats.cache_hits == len(SUBSET)


def test_incremental_scoped_cluster_run(tmp_path, cluster_peers):
    """changed_paths=[] on a warm store: nothing stale, everything served."""
    cache_dir = str(tmp_path / "shared")
    with cluster_peers(cache_dir) as hostfile:
        verify_passes_distributed(SUBSET, hostfile=hostfile,
                                  cache_dir=cache_dir)
    with cluster_peers(cache_dir) as hostfile:
        report = verify_passes_distributed(
            SUBSET, hostfile=hostfile, cache_dir=cache_dir, changed_paths=[])
    assert report.stats.stale_passes == 0
    assert report.stats.cache_hits == len(SUBSET)
    assert report.stats.cluster["units_total"] == 0
    # And the single-process incremental run agrees on the accounting.
    local = verify_passes(SUBSET, jobs=1, cache_dir=cache_dir,
                          changed_paths=[])
    assert local.stats.stale_passes == 0
    assert local.stats.cache_hits == len(SUBSET)


def test_recorded_timings_drive_splitting_on_the_next_cold_run(
        tmp_path, cluster_peers):
    from repro.cluster.plan import load_timings

    cache_dir = str(tmp_path / "shared")
    with cluster_peers(cache_dir) as hostfile:
        verify_passes_distributed(SUBSET, hostfile=hostfile,
                                  cache_dir=cache_dir)
    timings = load_timings(cache_dir)
    assert len(timings) == len(SUBSET)
    assert all(seconds >= 0 for seconds in timings.values())


def test_cli_verify_workers_round_trip(tmp_path, capsys, cluster_peers):
    cache_dir = str(tmp_path / "cache")
    with cluster_peers(cache_dir) as hostfile:
        code = main(["verify", "CXCancellation", "Depth", "--cluster",
                     hostfile, "--cache-dir", cache_dir, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["all_verified"] is True
    assert payload["engine"]["cluster"]["units_total"] == 2

    with cluster_peers(cache_dir) as hostfile:
        code = main(["verify", "CXCancellation", "Depth", "--cluster",
                     hostfile, "--cache-dir", cache_dir, "--format", "json"])
    assert code == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["engine"]["cache_hits"] == 2
    assert warm["engine"]["cache_misses"] == 0


def test_cli_text_report_shows_cluster_line(tmp_path, capsys, cluster_peers):
    with cluster_peers(tmp_path / "cache") as hostfile:
        code = main(["verify", "Depth", "--cluster", hostfile,
                     "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    out = capsys.readouterr().out
    assert "cluster:" in out


def test_cli_cluster_and_daemon_are_mutually_exclusive(tmp_path, capsys):
    code = main(["verify", "Depth", "--cluster", str(tmp_path / "hostfile"),
                 "--daemon", "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_cli_shard_flags_need_cluster(tmp_path, capsys):
    for flags in (["--shard-threshold", "0"], ["--shard-count", "3"]):
        code = main(["verify", "Depth", "CXCancellation", "--jobs", "2",
                     *flags, "--cache-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--cluster" in err and len(err.splitlines()) == 1


def test_cli_work_without_coordinator_fails_cleanly(tmp_path, capsys):
    code = main(["work", "--cache-dir", str(tmp_path), "--wait", "0.2"])
    assert code == 1
    assert "no coordinator found" in capsys.readouterr().err
