"""CLI surfaces: ``repro trace diff``, ``repro history``, ``repro top``."""

import json

from repro.cli import main
from repro.cluster.status import RunStatusBoard
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


# --------------------------------------------------------------------- #
# top
# --------------------------------------------------------------------- #

def test_top_once_without_a_run_exits_one(tmp_path, capsys):
    assert main(["top", "--once", "--cache-dir", str(tmp_path)]) == 1
    assert "no run status" in capsys.readouterr().err


def test_top_rejects_a_nonpositive_interval(tmp_path, capsys):
    assert main(["top", "--cache-dir", str(tmp_path),
                 "--interval", "0"]) == 2
    assert "--interval" in capsys.readouterr().err


def test_top_once_renders_worker_rows(tmp_path, capsys):
    board = RunStatusBoard(tmp_path, 10, node="vm-1")
    board.heartbeat("worker-1-peer", {"inflight": "unit-03", "units_done": 2,
                                      "prove_seconds": 0.5,
                                      "rss_bytes": 64 << 20})
    board.note_result("worker-1-peer", prove_seconds=0.1,
                      transport_seconds=0.02)
    board.set_progress(units_done=3, failures=0, stolen=1, retried=0)
    board.finish()
    assert main(["top", "--once", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "run done" in out and "3/10 units" in out and "1 stolen" in out
    assert "worker-1-peer" in out
    assert "64MiB" in out


def test_top_once_after_a_real_workers_run(tmp_path, capsys, cluster_peers):
    cache = tmp_path / "cache"
    with cluster_peers(cache) as hostfile:
        assert main(["verify", "ApplyLayout", "CXCancellation", "BasicSwap",
                     "--cluster", hostfile, "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    # The board outlives the run exactly so this cannot race a short run.
    assert main(["top", "--once", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "run done" in out
    assert "worker-1-" in out or "worker-2-" in out or "coordinator" in out
