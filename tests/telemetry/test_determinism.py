"""Trace determinism and exactly-once cluster coverage.

Two identical sequential runs must produce equal span trees modulo
timestamps and ids, and a merged cluster trace must cover every planned
unit exactly once — including under steal and requeue, where the same
unit can legitimately be proved twice but only one result is accepted.
"""

import pytest

from repro.cluster import verify_passes_distributed
from repro.cluster.coordinator import UnitScheduler
from repro.cluster.plan import WorkUnit
from repro.engine import verify_passes
from repro.passes import ALL_VERIFIED_PASSES
from repro.telemetry import trace as _trace
from repro.telemetry.analyze import (
    canonical_tree,
    coverage_problems,
    load_trace,
    summarize_trace,
)

SUBSET = list(ALL_VERIFIED_PASSES)[:6]


def _traced_run(directory, cache_dir, **kwargs):
    _trace.configure(str(directory), node="main")
    try:
        report = verify_passes(SUBSET, jobs=1, cache_dir=str(cache_dir),
                               **kwargs)
    finally:
        _trace.shutdown()
    return report


def test_identical_warm_runs_have_equal_span_trees(tmp_path):
    cache_dir = tmp_path / "cache"
    verify_passes(SUBSET, jobs=1, cache_dir=str(cache_dir))  # populate

    first = _traced_run(tmp_path / "t1", cache_dir)
    second = _traced_run(tmp_path / "t2", cache_dir)
    verdicts = lambda report: [(r.pass_name, r.verified)
                               for r in report.results]
    assert verdicts(first) == verdicts(second)

    tree_a = canonical_tree(load_trace(str(tmp_path / "t1")))
    tree_b = canonical_tree(load_trace(str(tmp_path / "t2")))
    assert tree_a == tree_b
    assert tree_a  # non-empty: the warm run did emit records


def test_identical_cold_runs_have_equal_span_trees(tmp_path):
    first = _traced_run(tmp_path / "t1", tmp_path / "c1")
    second = _traced_run(tmp_path / "t2", tmp_path / "c2")
    tree_a = canonical_tree(load_trace(str(tmp_path / "t1")))
    tree_b = canonical_tree(load_trace(str(tmp_path / "t2")))
    assert tree_a == tree_b
    # The cold tree carries one pass span per verified pass.
    names = {span["name"] for span in _flatten(tree_a)
             if span["kind"] == "pass"}
    assert names == {cls.__name__ for cls in SUBSET}
    assert first.stats.cache_misses == len(SUBSET)
    assert second.stats.cache_misses == len(SUBSET)


def _flatten(tree):
    for node in tree:
        yield node
        yield from _flatten(node["children"])


# --------------------------------------------------------------------- #
# Cluster coverage
# --------------------------------------------------------------------- #

def test_cold_cluster_trace_covers_every_unit_exactly_once(tmp_path,
                                                          cluster_peers):
    _trace.configure(str(tmp_path / "trace"), node="main")
    try:
        with cluster_peers(tmp_path / "cache") as hostfile:
            report = verify_passes_distributed(
                SUBSET, hostfile=hostfile, cache_dir=str(tmp_path / "cache"))
    finally:
        _trace.shutdown()
    assert report.stats.cluster["units_total"] == len(SUBSET)

    summary = summarize_trace(load_trace(str(tmp_path / "trace")))
    assert len(summary["planned_units"]) == len(SUBSET)
    assert coverage_problems(summary) == []
    assert sum(entry["units"] for entry in summary["workers"].values()) \
        == len(SUBSET)


def test_sharded_cluster_trace_covers_every_unit_exactly_once(tmp_path,
                                                             cluster_peers):
    _trace.configure(str(tmp_path / "trace"), node="main")
    try:
        with cluster_peers(tmp_path / "cache") as hostfile:
            report = verify_passes_distributed(
                SUBSET[:3], hostfile=hostfile,
                cache_dir=str(tmp_path / "cache"), shard_threshold=0)
    finally:
        _trace.shutdown()
    assert report.stats.cluster["split_passes"] >= 1

    summary = summarize_trace(load_trace(str(tmp_path / "trace")))
    assert len(summary["planned_units"]) \
        == report.stats.cluster["units_total"]
    assert coverage_problems(summary) == []


def _units(count):
    return [WorkUnit(unit_id=f"u{i}", index=i, kind="pass",
                     spec={"name": "X", "coupling": None}, key=f"u{i}")
            for i in range(count)]


def test_scheduler_accepts_a_stolen_unit_exactly_once():
    """Steal + duplicate completion: one accept, one duplicate event."""
    tracer = _trace.Tracer(None, node="main")
    scheduler = UnitScheduler(_units(1), steal_after=0.0, tracer=tracer)

    kind, slow = scheduler.lease("worker-1")
    assert kind == "unit"
    kind, stolen = scheduler.lease("worker-2")  # steal_after=0: steals it
    assert kind == "unit" and stolen.unit_id == slow.unit_id
    assert scheduler.stolen == 1

    result = {"unit_id": stolen.unit_id, "ok": True, "payload": {}}
    assert scheduler.complete(stolen.unit_id, result) is True
    assert scheduler.complete(stolen.unit_id, result) is False  # duplicate

    names = [rec["name"] for rec in tracer.records]
    assert names.count("cluster.steal") == 1
    assert names.count("cluster.duplicate") == 1
    assert names.count("cluster.lease") == 1


def test_scheduler_traces_requeue_on_connection_loss():
    tracer = _trace.Tracer(None, node="main")
    scheduler = UnitScheduler(_units(1), tracer=tracer)
    kind, unit = scheduler.lease("worker-1")
    assert kind == "unit"
    scheduler.release("worker-1")
    requeues = [rec for rec in tracer.records
                if rec["name"] == "cluster.requeue"]
    assert len(requeues) == 1
    assert requeues[0]["attrs"]["reason"] == "connection-lost"
    # The unit goes back out to the next worker.
    kind, again = scheduler.lease("worker-2")
    assert kind == "unit" and again.unit_id == unit.unit_id


def test_scheduler_traces_retry_and_terminal_failure():
    tracer = _trace.Tracer(None, node="main")
    scheduler = UnitScheduler(_units(1), max_attempts=2, tracer=tracer)
    for attempt in range(2):
        kind, unit = scheduler.lease("worker-1")
        assert kind == "unit"
        scheduler.complete(unit.unit_id,
                           {"unit_id": unit.unit_id, "ok": False,
                            "error": "boom"})
    names = [rec["name"] for rec in tracer.records]
    assert names.count("cluster.requeue") == 1
    assert names.count("cluster.failed") == 1
