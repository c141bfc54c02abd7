"""CLI surfaces: ``verify --trace/--profile``, ``repro trace``, bench."""

import json

import pytest

from repro.cli import main
from repro.telemetry import trace as _trace


def _verify(tmp_path, *extra):
    return main(["verify", "ApplyLayout", "CXCancellation",
                 "--cache-dir", str(tmp_path / "cache"), *extra])


def test_verify_trace_writes_files_and_reports_to_stderr(tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    assert _verify(tmp_path, "--trace", str(trace_dir)) == 0
    captured = capsys.readouterr()
    # The stdout report is byte-compared elsewhere; telemetry stays on stderr.
    assert "trace:" not in captured.out
    assert "trace:" in captured.err
    assert "repro trace summary" in captured.err
    assert list(trace_dir.glob("trace-*.jsonl"))
    assert _trace.current() is None  # verify shut its tracer down


def test_verify_profile_prints_self_time_table(tmp_path, capsys):
    assert _verify(tmp_path, "--profile") == 0
    captured = capsys.readouterr()
    assert "profile:" in captured.err
    assert "self(s)" in captured.err
    assert "profile:" not in captured.out


def test_trace_summary_lists_passes(tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    _verify(tmp_path, "--trace", str(trace_dir))
    capsys.readouterr()
    assert main(["trace", "summary", str(trace_dir)]) == 0
    out = capsys.readouterr().out
    assert "trace summary:" in out
    assert "ApplyLayout" in out
    assert "CXCancellation" in out


def test_trace_summary_on_missing_directory_is_no_data_not_a_crash(
        tmp_path, capsys):
    # "Nothing here" (missing, empty, or rotated away) is exit 1 with one
    # line on stderr; exit 2 stays reserved for unreadable trace data.
    assert main(["trace", "summary", str(tmp_path / "nope")]) == 1
    assert "no trace to summary" in capsys.readouterr().err


def test_trace_show_and_export_on_empty_directory_exit_one(tmp_path, capsys):
    empty = tmp_path / "rotated-away"
    empty.mkdir()
    assert main(["trace", "show", str(empty)]) == 1
    assert "no trace to show" in capsys.readouterr().err
    assert main(["trace", "export", str(empty)]) == 1
    assert "no trace to export" in capsys.readouterr().err


def test_trace_summary_on_unreadable_data_still_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "trace-main.jsonl").write_text(
        '{"t": "meta", "schema": 999999, "node": "main"}\n')
    assert main(["trace", "summary", str(bad)]) == 2
    assert "cannot load trace" in capsys.readouterr().err


def test_pooled_trace_summary_lists_every_pass(tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    assert main(["verify", "ApplyLayout", "CXCancellation", "BasicSwap",
                 "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
                 "--trace", str(trace_dir)]) == 0
    capsys.readouterr()
    assert main(["trace", "summary", str(trace_dir)]) == 0
    out = capsys.readouterr().out
    for name in ("ApplyLayout", "CXCancellation", "BasicSwap"):
        assert out.count(f"  {name} ") == 1, name
    # --jobs 2 proves in-process: no pool, so no queue wait to split off.
    assert "queue/prove split:" not in out


def test_trace_show_renders_the_span_tree(tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    _verify(tmp_path, "--trace", str(trace_dir))
    capsys.readouterr()
    assert main(["trace", "show", str(trace_dir), "--depth", "2"]) == 0
    assert "ApplyLayout" in capsys.readouterr().out


def test_trace_export_emits_chrome_json(tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    _verify(tmp_path, "--trace", str(trace_dir))
    output = tmp_path / "chrome.json"
    capsys.readouterr()
    assert main(["trace", "export", str(trace_dir),
                 "--output", str(output)]) == 0
    payload = json.loads(output.read_text())
    assert payload["traceEvents"]
    names = {event["name"] for event in payload["traceEvents"]}
    assert "ApplyLayout" in names


def test_traced_verdicts_match_untraced(tmp_path, capsys):
    """--trace must not steer the run: warm results and cache accounting
    are identical between a traced and an untraced run (the engine block's
    wall clock is the only thing allowed to differ)."""
    _verify(tmp_path, "--format", "json")  # cold, populates cache
    capsys.readouterr()
    _verify(tmp_path, "--format", "json")
    plain = json.loads(capsys.readouterr().out)
    _verify(tmp_path, "--format", "json", "--trace", str(tmp_path / "t"))
    traced = json.loads(capsys.readouterr().out)
    assert plain["results"] == traced["results"]
    assert plain["summary"] == traced["summary"]
    for key in ("cache_hits", "cache_misses", "passes_total"):
        assert plain["engine"][key] == traced["engine"][key], key


def test_bench_telemetry_smoke(tmp_path, capsys, monkeypatch):
    """One-repeat bench on a tiny suite: verdicts identical, JSON recorded."""
    from repro.passes import ALL_VERIFIED_PASSES
    import repro.bench.telemetry as bench

    monkeypatch.setattr(
        bench, "_suite",
        lambda pass_classes=None: list(ALL_VERIFIED_PASSES)[:2])
    record = tmp_path / "bench.json"
    assert bench.main(["--repeats", "1", "--record", str(record)]) == 0
    payload = json.loads(record.read_text())
    assert payload["verdicts_identical"] is True
    assert payload["passes"] == 2
    assert payload["records_per_warm_run"]["events"] > 0
    out = capsys.readouterr().out
    assert "overhead" in out


def test_cache_prune_reports_cert_accounting(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    main(["verify", "ApplyLayout", "--cache-dir", str(cache_dir)])
    capsys.readouterr()
    assert main(["cache", "prune", "--max-entries", "1",
                 "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "orphaned certificates dropped" in out


def test_status_reports_certificate_tier(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    main(["verify", "ApplyLayout", "--cache-dir", str(cache_dir)])
    capsys.readouterr()
    assert main(["status", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "certificates:" in out
