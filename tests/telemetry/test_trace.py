"""Core tracing API: spans, events, sinks, rotation."""

import json
import os

import pytest

from repro.telemetry import trace as _trace
from repro.telemetry.trace import (
    TRACE_SCHEMA_VERSION,
    Tracer,
    TraceWriter,
    trace_filename,
)


def _read_records(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# --------------------------------------------------------------------- #
# Tracer structure
# --------------------------------------------------------------------- #

def test_span_nesting_and_parenting():
    tracer = Tracer(None, node="t")
    with tracer.span("outer", kind="run"):
        with tracer.span("inner", kind="pass"):
            tracer.event("hit", kind="cache")
    records = tracer.records
    # Spans are written on completion: children precede parents.
    assert [rec["t"] for rec in records] == ["event", "span", "span"]
    event, inner, outer = records
    assert inner["name"] == "inner" and outer["name"] == "outer"
    assert inner["parent"] == outer["id"]
    assert event["parent"] == inner["id"]
    assert outer["parent"] is None
    assert tracer.spans_emitted == 2 and tracer.events_emitted == 1


def test_span_handle_attrs_mutate_until_close():
    tracer = Tracer(None, node="t")
    with tracer.span("work", kind="pass", fixed=1) as handle:
        handle.attrs["late"] = "annotation"
    (span,) = tracer.records
    assert span["attrs"] == {"fixed": 1, "late": "annotation"}
    assert span["dur"] >= 0.0


def test_sibling_spans_share_a_parent():
    tracer = Tracer(None, node="t")
    with tracer.span("outer") :
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    a, b, outer = tracer.records
    assert a["parent"] == outer["id"] == b["parent"]


# --------------------------------------------------------------------- #
# Module-global switch
# --------------------------------------------------------------------- #

def test_current_is_none_by_default():
    assert _trace.current() is None


def test_configure_and_shutdown_round_trip(tmp_path):
    tracer = _trace.configure(str(tmp_path), node="main")
    assert _trace.current() is tracer
    with tracer.span("work", kind="run"):
        pass
    summary = _trace.shutdown()
    assert _trace.current() is None
    assert summary["spans"] == 1
    assert summary["directory"] == str(tmp_path)
    records = _read_records(tmp_path / trace_filename("main"))
    assert records[0]["t"] == "meta"
    assert records[0]["schema"] == TRACE_SCHEMA_VERSION
    assert records[1]["name"] == "work"


def test_tracing_context_manager_restores_previous(tmp_path):
    with _trace.tracing(str(tmp_path / "a"), node="outer") as outer:
        with _trace.tracing(str(tmp_path / "b"), node="inner") as inner:
            assert _trace.current() is inner
        assert _trace.current() is outer
    assert _trace.current() is None


def test_disabled_tracing_writes_nothing(tmp_path):
    """With no tracer configured, instrumented code creates no files."""
    from repro.engine import verify_passes
    from repro.passes import ALL_VERIFIED_PASSES

    cache_dir = tmp_path / "cache"
    verify_passes(ALL_VERIFIED_PASSES[:2], cache_dir=str(cache_dir))
    trace_files = [path for path in cache_dir.rglob("*")
                   if path.name.startswith("trace-")]
    assert trace_files == []
    assert _trace.current() is None


# --------------------------------------------------------------------- #
# Writer: deferred serialisation and rotation
# --------------------------------------------------------------------- #

def test_writer_defers_serialisation_until_flush(tmp_path):
    writer = TraceWriter(str(tmp_path), node="n")
    writer.write({"t": "event", "id": 1, "name": "x"})
    assert not os.path.exists(writer.path)  # nothing on disk yet
    writer.flush()
    records = _read_records(writer.path)
    assert [rec["t"] for rec in records] == ["meta", "event"]
    writer.close()


def test_writer_close_drains_pending(tmp_path):
    writer = TraceWriter(str(tmp_path), node="n")
    for index in range(5):
        writer.write({"t": "event", "id": index})
    writer.close()
    assert len(_read_records(writer.path)) == 6  # meta + 5
    assert writer.records_written == 5


def test_rotation_shifts_generations(tmp_path):
    writer = TraceWriter(str(tmp_path), node="n", max_bytes=200, max_files=2)
    for index in range(60):
        writer.write({"t": "event", "id": index, "name": "padding-padding"})
        writer.flush()  # force per-record serialisation to exercise the cap
    writer.close()
    live = tmp_path / trace_filename("n")
    assert live.exists()
    assert (tmp_path / f"{trace_filename('n')}.1").exists()
    # No generation beyond max_files survives.
    assert not (tmp_path / f"{trace_filename('n')}.3").exists()
    # Every file (re)starts with a meta line.
    for path in sorted(tmp_path.iterdir()):
        assert _read_records(path)[0]["t"] == "meta"


def test_pending_limit_forces_a_drain(tmp_path):
    writer = TraceWriter(str(tmp_path), node="n")
    for index in range(_trace._PENDING_LIMIT):
        writer.write({"t": "event", "id": index})
    assert os.path.exists(writer.path)  # the limit drained without flush()
    writer.close()
    assert len(_read_records(writer.path)) == _trace._PENDING_LIMIT + 1


def test_prefork_flush_empties_the_buffer(tmp_path):
    tracer = _trace.configure(str(tmp_path), node="main")
    tracer.event("before-fork", kind="cache")
    _trace._flush_before_fork()
    # The record is on disk, so a forked child inherits an empty buffer.
    names = [rec.get("name")
             for rec in _read_records(tmp_path / trace_filename("main"))]
    assert "before-fork" in names
    _trace.shutdown()


def test_trace_filename_sanitises_node_names():
    assert trace_filename("host/0:1") == "trace-host-0-1.jsonl"
    assert trace_filename("worker_2.a") == "trace-worker_2.a.jsonl"


def test_keep_mode_retains_records_alongside_the_sink(tmp_path):
    tracer = _trace.configure(str(tmp_path), node="main", keep=True)
    with tracer.span("work", kind="run"):
        pass
    assert [rec["name"] for rec in tracer.records] == ["work"]
    _trace.shutdown()
