"""Trace-sink rotation boundaries: span batches must survive rotation.

The JSONL sink rotates ``trace-<node>.jsonl`` at a byte cap while a run
writes its pass and subgoal spans.  The dangerous case is a batch whose
records land either side of a rotation: the reader must stitch the
rotated generations back together oldest-first, keep parent links intact,
and count every pass exactly once — losing a pass span to rotation would
make the summary lie.
"""

from collections import Counter

import pytest

from repro.telemetry.analyze import load_trace, summarize_trace
from repro.telemetry.trace import TraceWriter, Tracer


def _write_passes(tracer, passes):
    """Write one pass span per name, each holding one subgoal span, the
    shape a cold verification writes."""
    for name in passes:
        with tracer.span(name, kind="pass"):
            with tracer.span("subgoal.prove", kind="subgoal",
                             key=f"k-{name}"):
                pass


def _assert_links_intact(records):
    """Every subgoal span hangs under the pass span it ran in."""
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
    # Two batches with a flush between them, so records from one batch
    # straddle at least one rotation boundary at these byte caps.
    _write_passes(tracer, passes[:6])
    writer.flush()
    _write_passes(tracer, passes[6:])
    writer.close()

    files = sorted(tmp_path.glob("trace-*.jsonl*"))
    assert len(files) > 1, "cap did not force a rotation; lower max_bytes"

    records = load_trace(str(tmp_path))
    _assert_links_intact(records)
    summary = summarize_trace(records)
    counts = Counter(item["name"] for item in summary["passes"])
    assert counts == {name: 1 for name in passes}


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
    _write_passes(tracer, ["Pass00"])
    writer.close()
    live = tmp_path / "trace-main.jsonl"
    with open(live, "a", encoding="utf-8") as handle:
        handle.write('{"t": "span", "id": 99, "name": "torn')  # no newline
    records = load_trace(str(tmp_path))
    _assert_links_intact(records)
    summary = summarize_trace(records)
    assert [item["name"] for item in summary["passes"]] == ["Pass00"]
