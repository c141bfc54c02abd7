"""Trace determinism and exactly-once pooled coverage.

Two identical sequential runs must produce equal span trees modulo
timestamps and ids, and a trace merged from worker-pool span batches must
carry every pending pass exactly once.
"""

from repro.engine import verify_passes
from repro.passes import ALL_VERIFIED_PASSES
from repro.telemetry import trace as _trace
from repro.telemetry.analyze import canonical_tree, load_trace, summarize_trace

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
# Pooled coverage
# --------------------------------------------------------------------- #

def test_pooled_cold_trace_covers_every_pass_exactly_once(tmp_path):
    _trace.configure(str(tmp_path / "trace"), node="main")
    try:
        report = verify_passes(SUBSET, jobs=2,
                               cache_dir=str(tmp_path / "cache"))
    finally:
        _trace.shutdown()
    assert report.stats.cache_misses == len(SUBSET)
    records = load_trace(str(tmp_path / "trace"))
    summary = summarize_trace(records)
    names = sorted(item["name"] for item in summary["passes"])
    assert names == sorted(cls.__name__ for cls in SUBSET)
    # The absorbed pass spans hang under the map that ran them.
    spans = [record for record in records if record["t"] == "span"]
    (pool_map,) = [span for span in spans if span["name"] == "scheduler.map"]
    assert {span["parent"] for span in spans if span["kind"] == "pass"} == \
        {pool_map["id"]}
