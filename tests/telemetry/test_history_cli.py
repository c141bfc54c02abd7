"""CLI surfaces: ``repro trace diff`` and ``repro history``."""

import json

from repro.cli import main
from repro.telemetry.history import TelemetryHistory, history_path


def _verify(tmp_path, *extra):
    return main(["verify", "ApplyLayout", "CXCancellation",
                 "--cache-dir", str(tmp_path / "cache"), *extra])


# --------------------------------------------------------------------- #
# trace diff
# --------------------------------------------------------------------- #

def test_trace_diff_identical_warm_runs_is_clean(tmp_path, capsys):
    _verify(tmp_path)  # cold, populates the cache
    _verify(tmp_path, "--trace", str(tmp_path / "a"))
    _verify(tmp_path, "--trace", str(tmp_path / "b"))
    capsys.readouterr()
    assert main(["trace", "diff", str(tmp_path / "a"),
                 str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "trace diff:" in out
    assert "no significant regression" in out


def test_trace_diff_json_payload(tmp_path, capsys):
    _verify(tmp_path, "--trace", str(tmp_path / "a"))
    _verify(tmp_path, "--trace", str(tmp_path / "b"))
    capsys.readouterr()
    assert main(["trace", "diff", str(tmp_path / "a"), str(tmp_path / "b"),
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for key in ("passes", "subgoals", "methods", "solvers", "cache",
                "regressions", "total_delta_seconds"):
        assert key in payload


def test_trace_diff_missing_side_exits_one(tmp_path, capsys):
    _verify(tmp_path, "--trace", str(tmp_path / "a"))
    capsys.readouterr()
    assert main(["trace", "diff", str(tmp_path / "a"),
                 str(tmp_path / "nope")]) == 1
    assert "no trace to diff" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# history
# --------------------------------------------------------------------- #

def test_traced_verify_auto_records_into_history(tmp_path, capsys):
    assert _verify(tmp_path, "--trace", str(tmp_path / "t")) == 0
    captured = capsys.readouterr()
    assert "history: recorded run #1" in captured.err
    assert "history" not in captured.out  # telemetry stays off stdout
    assert history_path(tmp_path / "cache").exists()
    with TelemetryHistory(tmp_path / "cache") as history:
        runs = history.runs()
    assert len(runs) == 1
    assert runs[0]["passes"] == 2
    names = {entry["name"] for entry in runs[0]["summary"]["passes"]}
    assert names == {"ApplyLayout", "CXCancellation"}


def test_no_history_flag_skips_the_record(tmp_path, capsys):
    assert _verify(tmp_path, "--trace", str(tmp_path / "t"),
                   "--no-history") == 0
    assert "history:" not in capsys.readouterr().err
    assert not history_path(tmp_path / "cache").exists()


def test_untraced_verify_records_nothing(tmp_path, capsys):
    assert _verify(tmp_path) == 0
    capsys.readouterr()
    assert not history_path(tmp_path / "cache").exists()


def test_history_list_show_and_prune(tmp_path, capsys):
    _verify(tmp_path, "--trace", str(tmp_path / "a"))
    _verify(tmp_path, "--trace", str(tmp_path / "b"))
    cache = str(tmp_path / "cache")
    capsys.readouterr()

    assert main(["history", "list", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "2 recorded runs" in out

    assert main(["history", "show", "latest", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "run #2" in out and "trace summary:" in out

    assert main(["history", "show", "7", "--cache-dir", cache]) == 1
    assert "no run" in capsys.readouterr().err

    assert main(["history", "list", "--cache-dir", cache,
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["store"]["runs"] == 2
    assert len(payload["runs"]) == 2
    assert "summary" not in payload["runs"][0]  # headline listing only

    assert main(["history", "prune", "--max-runs", "1",
                 "--cache-dir", cache]) == 0
    assert "dropped 1 runs, 1 kept" in capsys.readouterr().out


def test_history_regressions_clean_between_identical_runs(tmp_path, capsys):
    _verify(tmp_path)  # warm the cache first
    _verify(tmp_path, "--trace", str(tmp_path / "a"))
    _verify(tmp_path, "--trace", str(tmp_path / "b"))
    capsys.readouterr()
    assert main(["history", "regressions",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "no pass regressed" in capsys.readouterr().out


def test_history_commands_without_a_store_exit_one(tmp_path, capsys):
    for argv in (["history", "list"], ["history", "show", "latest"],
                 ["history", "regressions"]):
        assert main(argv + ["--cache-dir", str(tmp_path / "empty")]) == 1
        assert "no run history" in capsys.readouterr().err
