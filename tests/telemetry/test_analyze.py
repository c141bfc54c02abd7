"""Trace analysis: loading, summarising, profiling, export."""

import json

import pytest

from repro.telemetry import trace as _trace
from repro.telemetry.analyze import (
    canonical_tree,
    export_chrome,
    load_trace,
    profile_records,
    render_profile,
    render_summary,
    render_tree,
    summarize_trace,
)
from repro.telemetry.trace import TRACE_SCHEMA_VERSION, trace_filename


def _trace_dir_with(tmp_path, build):
    """Run ``build(tracer)`` against a real sink and return the directory."""
    tracer = _trace.configure(str(tmp_path), node="main")
    try:
        build(tracer)
    finally:
        _trace.shutdown()
    return str(tmp_path)


# --------------------------------------------------------------------- #
# load_trace
# --------------------------------------------------------------------- #

def test_load_trace_round_trips_records(tmp_path):
    directory = _trace_dir_with(tmp_path, lambda t: t.event("x", kind="cache"))
    records = load_trace(directory)
    assert [rec["name"] for rec in records] == ["x"]


def test_load_trace_requires_trace_files(tmp_path):
    with pytest.raises(ValueError, match="no trace files"):
        load_trace(str(tmp_path))


def test_load_trace_rejects_newer_schema(tmp_path):
    path = tmp_path / trace_filename("main")
    path.write_text(json.dumps({"t": "meta",
                                "schema": TRACE_SCHEMA_VERSION + 1}) + "\n")
    with pytest.raises(ValueError, match="newer"):
        load_trace(str(tmp_path))


def test_load_trace_skips_torn_tail_lines(tmp_path):
    path = tmp_path / trace_filename("main")
    path.write_text(
        json.dumps({"t": "meta", "schema": TRACE_SCHEMA_VERSION}) + "\n"
        + json.dumps({"t": "event", "id": 1, "name": "ok"}) + "\n"
        + '{"t": "event", "id": 2, "name": "torn'  # crash mid-write
    )
    assert [rec["name"] for rec in load_trace(str(tmp_path))] == ["ok"]


def test_load_trace_reads_rotated_generations_oldest_first(tmp_path):
    live = tmp_path / trace_filename("main")
    meta = json.dumps({"t": "meta", "schema": TRACE_SCHEMA_VERSION})
    (tmp_path / f"{live.name}.1").write_text(
        meta + "\n" + json.dumps({"t": "event", "id": 1, "name": "old"}) + "\n")
    live.write_text(
        meta + "\n" + json.dumps({"t": "event", "id": 2, "name": "new"}) + "\n")
    assert [rec["name"] for rec in load_trace(str(tmp_path))] == ["old", "new"]


# --------------------------------------------------------------------- #
# summarize_trace
# --------------------------------------------------------------------- #

def test_summarize_trace_counts_cache_events():
    records = [
        {"t": "event", "id": 1, "parent": None, "name": "pass.cache",
         "kind": "cache", "ts": 0.0, "node": "main",
         "attrs": {"outcome": "hit"}},
        {"t": "event", "id": 2, "parent": None, "name": "pass.cache",
         "kind": "cache", "ts": 0.0, "node": "main",
         "attrs": {"outcome": "miss"}},
        {"t": "event", "id": 3, "parent": None, "name": "pass.cache",
         "kind": "cache", "ts": 0.0, "node": "main",
         "attrs": {"outcome": "hit"}},
    ]
    summary = summarize_trace(records)
    assert summary["cache"] == {"pass.cache.hit": 2, "pass.cache.miss": 1}


def test_render_summary_and_tree_are_textual(tmp_path):
    def build(tracer):
        with tracer.span("ApplyLayout", kind="pass", solver="auto"):
            tracer.event("pass.cache", kind="cache", outcome="miss",
                         target="ApplyLayout")
        # Two runs' import scans: each event counts its own.
        tracer.event("deps.scan", kind="deps", skeleton=3, whole_file=1)
        tracer.event("deps.scan", kind="deps", skeleton=2, whole_file=0)

    records = load_trace(_trace_dir_with(tmp_path, build))
    summary = summarize_trace(records)
    assert summary["scans"] == {"skeleton": 5, "whole_file": 1}
    text = "\n".join(render_summary(summary))
    assert "ApplyLayout" in text
    assert "pass.cache.miss" in text
    assert "import scans: 5 skeleton, 1 whole-file" in text
    tree = "\n".join(render_tree(records))
    assert "ApplyLayout" in tree


# --------------------------------------------------------------------- #
# profile / export / canonical form
# --------------------------------------------------------------------- #

def test_profile_self_time_subtracts_children():
    records = [
        {"t": "span", "id": 2, "parent": 1, "name": "inner", "kind": "subgoal",
         "start": 0.0, "dur": 0.25, "node": "main", "attrs": {}},
        {"t": "span", "id": 1, "parent": None, "name": "Outer", "kind": "pass",
         "start": 0.0, "dur": 1.0, "node": "main", "attrs": {}},
    ]
    profile = profile_records(records)
    assert profile["groups"]["pass"]["self_seconds"] == pytest.approx(0.75)
    assert profile["groups"]["subgoal"]["self_seconds"] == pytest.approx(0.25)
    assert profile["total_self_seconds"] == pytest.approx(1.0)
    text = "\n".join(render_profile(profile))
    assert "pass" in text and "self(s)" in text


def test_export_chrome_shape(tmp_path):
    def build(tracer):
        with tracer.span("Work", kind="pass"):
            tracer.event("hit", kind="cache")

    records = load_trace(_trace_dir_with(tmp_path, build))
    payload = export_chrome(records)
    phases = sorted(event["ph"] for event in payload["traceEvents"])
    assert phases == ["X", "i"]
    for event in payload["traceEvents"]:
        assert event["pid"] == 1  # single node
    assert payload["metadata"]["schema"] == TRACE_SCHEMA_VERSION
    assert payload["metadata"]["nodes"] == {"1": "main"}


def test_canonical_tree_drops_ids_timestamps_and_volatile_attrs():
    def run(extra):
        tracer = _trace.Tracer(None, node="main")
        with tracer.span("run", kind="run", wall=extra):
            with tracer.span("P", kind="pass", wall_seconds=extra):
                tracer.event("hit", kind="cache", outcome="hit")
        return tracer.records

    assert canonical_tree(run(1.0)) == canonical_tree(run(2.0))
    tree = canonical_tree(run(1.0))
    assert tree[0]["name"] == "run"
    assert tree[0]["children"][0]["children"][0]["attrs"] == {"outcome": "hit"}
