"""Trace determinism and exactly-once coverage.

Two identical runs must produce equal span trees modulo timestamps and
ids, and a cold trace must carry every pending pass exactly once, at any
``--jobs``.
"""

from repro.engine import verify_passes
from repro.passes import ALL_VERIFIED_PASSES
from repro.telemetry import trace as _trace
from repro.telemetry.analyze import canonical_tree, load_trace, summarize_trace

SUBSET = list(ALL_VERIFIED_PASSES)[:6]


def _traced_run(directory, cache_dir, **kwargs):
    _trace.configure(str(directory), node="main")
    try:
        report = verify_passes(SUBSET, cache_dir=str(cache_dir), **kwargs)
    finally:
        _trace.shutdown()
    return report


def test_identical_warm_runs_have_equal_span_trees(tmp_path):
    cache_dir = tmp_path / "cache"
    verify_passes(SUBSET, cache_dir=str(cache_dir))  # populate

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
# Coverage at any --jobs
# --------------------------------------------------------------------- #

def test_pooled_cold_trace_covers_every_pass_exactly_once(tmp_path, capsys):
    """A run that asks for ``--jobs 2`` proves in-process: its trace holds
    each pass span once, written straight to the sink, under no pool
    map."""
    from repro.cli import main

    names = [cls.__name__ for cls in SUBSET]
    assert main(["verify", *names, "--jobs", "2", "--no-history",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--trace", str(tmp_path / "trace")]) == 0
    capsys.readouterr()
    records = load_trace(str(tmp_path / "trace"))
    summary = summarize_trace(records)
    assert sorted(item["name"] for item in summary["passes"]) == sorted(names)
    spans = [record for record in records if record["t"] == "span"]
    assert [span for span in spans if span["kind"] == "scheduler"] == []
    assert {span["parent"] for span in spans if span["kind"] == "pass"} == {None}
