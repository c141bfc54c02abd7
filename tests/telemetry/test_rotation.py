"""Trace-sink rotation boundaries: absorbed batches must survive rotation.

The JSONL sink rotates ``trace-<node>.jsonl`` at a byte cap, and a
``--jobs N`` run absorbs the worker pool's span batches into that stream
mid-run.  The dangerous case is a batch whose records land either side of
a rotation: the reader must stitch the rotated generations back together
oldest-first, keep parent links intact, and count every pass exactly once
— losing a pass span to rotation would make the summary lie.
"""

from collections import Counter

import pytest

from repro.telemetry.analyze import load_trace, summarize_trace
from repro.telemetry.trace import TraceWriter, Tracer


def _pool_batch(passes):
    """Collect a pool-task-shaped span batch in a separate collector
    tracer, as ``--jobs N`` tasks ship them inside their results."""
    collector = Tracer(node="pool")
    for name in passes:
        with collector.span(name, kind="pass", queue_wait=0.001):
            with collector.span("subgoal.prove", kind="subgoal",
                                key=f"k-{name}"):
                pass
    return collector.drain()


def _assert_links_intact(records):
    """Every absorbed subgoal span hangs under the pass span it ran in."""
    spans = {rec["id"]: rec for rec in records if rec.get("t") == "span"}
    for rec in spans.values():
        if rec["kind"] == "subgoal":
            parent = spans[rec["parent"]]
            assert parent["kind"] == "pass"
            assert rec["attrs"]["key"] == f"k-{parent['name']}"


@pytest.mark.parametrize("max_bytes", [256, 700])
def test_absorbed_batches_span_rotated_files(tmp_path, max_bytes):
    passes = [f"Pass{index:02d}" for index in range(12)]
    writer = TraceWriter(str(tmp_path), node="main",
                         max_bytes=max_bytes, max_files=50)
    tracer = Tracer(writer, node="main")
    # Two absorbed batches with a flush between them, so records from one
    # batch straddle at least one rotation boundary at these byte caps.
    tracer.absorb(_pool_batch(passes[:6]))
    writer.flush()
    tracer.absorb(_pool_batch(passes[6:]))
    writer.close()

    files = sorted(tmp_path.glob("trace-*.jsonl*"))
    assert len(files) > 1, "cap did not force a rotation; lower max_bytes"

    records = load_trace(str(tmp_path))
    _assert_links_intact(records)
    summary = summarize_trace(records)
    counts = Counter(item["name"] for item in summary["passes"])
    assert counts == {name: 1 for name in passes}
    assert summary["queue_seconds"] == pytest.approx(0.012)


def test_rotation_drops_oldest_beyond_max_files(tmp_path):
    writer = TraceWriter(str(tmp_path), node="main",
                         max_bytes=200, max_files=2)
    tracer = Tracer(writer, node="main")
    for index in range(40):
        tracer.event("tick", index=index)
    writer.close()
    files = sorted(path.name for path in tmp_path.glob("trace-*.jsonl*"))
    assert files == ["trace-main.jsonl", "trace-main.jsonl.1",
                     "trace-main.jsonl.2"]
    # The reader stitches what survived, oldest first, without raising.
    records = load_trace(str(tmp_path))
    ticks = [rec["attrs"]["index"] for rec in records
             if rec.get("name") == "tick"]
    assert ticks == sorted(ticks)
    assert ticks[-1] == 39  # the newest records are always present


def test_torn_line_at_rotation_boundary_is_skipped(tmp_path):
    writer = TraceWriter(str(tmp_path), node="main",
                         max_bytes=100000, max_files=3)
    tracer = Tracer(writer, node="main")
    tracer.absorb(_pool_batch(["Pass00"]))
    writer.close()
    live = tmp_path / "trace-main.jsonl"
    with open(live, "a", encoding="utf-8") as handle:
        handle.write('{"t": "span", "id": 99, "name": "torn')  # no newline
    records = load_trace(str(tmp_path))
    _assert_links_intact(records)
    summary = summarize_trace(records)
    assert [item["name"] for item in summary["passes"]] == ["Pass00"]
