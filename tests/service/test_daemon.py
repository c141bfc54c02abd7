"""The resident daemon: wire protocol, warm serving, CLI integration."""

import json
import threading

import pytest

from repro.cli import main
from repro.passes import ALL_VERIFIED_PASSES
from repro.service.client import DaemonClient, connect
from repro.service.daemon import ProofDaemon, VerificationService
from repro.service.protocol import DaemonEndpoint, make_pass_spec, read_state


@pytest.fixture
def daemon(tmp_path):
    """A live daemon over the proof store in ``tmp_path``, torn down after."""
    service = VerificationService(cache_dir=tmp_path)
    server = ProofDaemon(service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.close()


def _specs(classes):
    from repro.bench.table2 import pass_kwargs_for

    return [make_pass_spec(cls, pass_kwargs_for(cls)) for cls in classes]


def test_state_file_discovery(daemon, tmp_path):
    endpoint = read_state(tmp_path)
    assert endpoint is not None
    assert endpoint.port == daemon.endpoint.port
    assert endpoint.token == daemon.endpoint.token
    client = connect(tmp_path)
    assert client is not None
    status = client.status()
    assert status["backend"] == "jsonl"
    assert status["store"]["backend"] == "jsonl"
    assert status["known_passes"] >= len(ALL_VERIFIED_PASSES)


def test_cold_then_warm_requests(daemon, tmp_path):
    client = connect(tmp_path)
    classes = ALL_VERIFIED_PASSES[:5]
    results, stats = client.verify_specs(_specs(classes))
    assert [r.pass_name for r in results] == [c.__name__ for c in classes]
    assert all(r.verified for r in results)
    assert stats.cache_misses == len(classes)
    assert stats.backend == "jsonl"
    assert stats.daemon["requests_served"] == 1

    results, stats = client.verify_specs(_specs(classes))
    assert all(r.verified and r.from_cache for r in results)
    assert stats.cache_hits == len(classes)
    assert stats.cache_misses == 0
    assert stats.daemon["requests_served"] == 2
    assert "daemon:" in stats.daemon_line()


def test_request_batching_splits_http_requests(daemon, tmp_path):
    client = connect(tmp_path)
    classes = ALL_VERIFIED_PASSES[:6]
    results, stats = client.verify_specs(_specs(classes), batch_size=2)
    assert len(results) == 6
    assert all(r.verified for r in results)
    assert stats.passes_total == 6
    assert stats.daemon["requests_served"] == 3   # 6 passes / batches of 2


def test_bad_token_is_rejected(daemon, tmp_path):
    endpoint = read_state(tmp_path)
    intruder = DaemonClient(DaemonEndpoint(
        host=endpoint.host, port=endpoint.port, token="wrong",
        pid=endpoint.pid, backend=endpoint.backend, cache_dir=endpoint.cache_dir,
    ))
    from repro.service.client import DaemonUnavailable

    with pytest.raises(DaemonUnavailable):
        intruder.status()


def test_non_ascii_token_is_rejected_not_crashed(daemon, tmp_path):
    """An attacker-controlled header must yield a clean 401, even when it is
    not ASCII (which would make a naive compare_digest raise)."""
    import http.client

    endpoint = read_state(tmp_path)
    connection = http.client.HTTPConnection(endpoint.host, endpoint.port, timeout=10)
    try:
        connection.request("GET", "/status",
                           headers={"X-Repro-Token": "\xa4\xff badtoken"})
        response = connection.getresponse()
        assert response.status == 401
        response.read()
    finally:
        connection.close()


def test_unknown_pass_is_a_protocol_error(daemon, tmp_path):
    from repro.service.protocol import ProtocolError

    client = connect(tmp_path)
    with pytest.raises(ProtocolError):
        client.verify_specs([{"name": "NotARealPass", "coupling": None}])


def test_empty_request_is_a_protocol_error(daemon, tmp_path):
    from repro.service.protocol import ProtocolError

    client = connect(tmp_path)
    with pytest.raises(ProtocolError):
        client.verify_specs([])


def test_cli_verify_daemon_round_trip(daemon, tmp_path, capsys):
    cache_dir = str(tmp_path)
    assert main(["verify", "CXCancellation", "Width", "--daemon",
                 "--cache-dir", cache_dir, "--format", "json"]) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["engine"]["daemon"]["requests_served"] == 1
    assert cold["engine"]["backend"] == "jsonl"
    assert main(["verify", "CXCancellation", "Width", "--daemon",
                 "--cache-dir", cache_dir, "--format", "json"]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["engine"]["cache_hits"] == 2
    assert warm["engine"]["cache_misses"] == 0
    assert warm["summary"]["all_verified"] is True


def test_cli_text_report_shows_daemon_line(daemon, tmp_path, capsys):
    assert main(["verify", "Width", "--daemon", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "engine:" in out
    assert "daemon: 127.0.0.1:" in out


def test_cli_status_against_live_daemon(daemon, tmp_path, capsys):
    assert main(["status", "--cache-dir", str(tmp_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == "jsonl"
    assert payload["store"]["backend"] == "jsonl"
    assert payload["store"]["corrupt_lines"] == 0


def test_warm_daemon_hit_rate_matches_warm_jsonl(daemon, tmp_path, capsys):
    """Acceptance: ``verify --all`` against a warm daemon serves at least the
    hit rate of the in-process warm JSONL path."""
    jsonl_dir = str(tmp_path / "jsonl-tier")
    for _ in range(2):
        assert main(["verify", "--all", "--cache-dir", jsonl_dir,
                     "--format", "json"]) == 0
        jsonl_warm = json.loads(capsys.readouterr().out)
    assert jsonl_warm["engine"]["backend"] == "jsonl"
    jsonl_rate = jsonl_warm["engine"]["cache_hits"] / jsonl_warm["engine"]["passes_total"]

    for _ in range(2):
        assert main(["verify", "--all", "--daemon", "--cache-dir", str(tmp_path),
                     "--format", "json"]) == 0
        daemon_warm = json.loads(capsys.readouterr().out)
    assert daemon_warm["engine"]["daemon"] is not None
    daemon_rate = daemon_warm["engine"]["cache_hits"] / daemon_warm["engine"]["passes_total"]

    assert jsonl_rate == 1.0               # the PR 1 baseline is fully warm
    assert daemon_rate >= jsonl_rate       # the daemon is no colder
    # And identical verdicts either way.
    jsonl_verdicts = [(r["pass"], r["verified"]) for r in jsonl_warm["results"]]
    daemon_verdicts = [(r["pass"], r["verified"]) for r in daemon_warm["results"]]
    assert jsonl_verdicts == daemon_verdicts


def test_daemon_and_direct_runs_share_one_store(daemon, tmp_path, capsys):
    """A direct run on the daemon's cache directory is warm after a daemon
    run: both read and write the one JSONL store."""
    cache_dir = str(tmp_path)
    assert main(["verify", "CXCancellation", "Width", "--daemon",
                 "--cache-dir", cache_dir, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["engine"]["daemon"] is not None
    assert main(["verify", "CXCancellation", "Width",
                 "--cache-dir", cache_dir, "--format", "json"]) == 0
    direct = json.loads(capsys.readouterr().out)["engine"]
    assert direct["daemon"] is None
    assert (direct["cache_hits"], direct["cache_misses"]) == (2, 0)


def test_no_cache_never_goes_to_the_daemon(daemon, tmp_path, capsys):
    """--no-cache demands a stateless re-proof; the daemon exists to serve
    its cache, so such runs stay in-process."""
    cache_dir = str(tmp_path)
    assert main(["verify", "Width", "--daemon", "--cache-dir", cache_dir,
                 "--format", "json"]) == 0
    capsys.readouterr()                  # warm the shared store
    assert main(["verify", "Width", "--daemon", "--no-cache",
                 "--cache-dir", cache_dir, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"]["daemon"] is None
    assert payload["engine"]["cache_hits"] == 0
    assert payload["engine"]["cache_misses"] == 1
    assert payload["engine"]["cache_dir"] is None


def test_rolling_restart_keeps_the_newer_state_file(tmp_path):
    """Closing an old daemon must not erase a newer daemon's discovery file."""
    old_service = VerificationService(cache_dir=tmp_path)
    old_server = ProofDaemon(old_service)
    new_service = VerificationService(cache_dir=tmp_path)
    new_server = ProofDaemon(new_service)   # overwrites daemon.json
    try:
        old_server.close()                  # must leave the new file alone
        state = read_state(tmp_path)
        assert state is not None
        assert state.token == new_server.token
    finally:
        new_server.close()
    assert read_state(tmp_path) is None     # the owner's close does remove it


def test_sigterm_cleans_up_the_state_file(tmp_path):
    """`kill <pid>` — the documented stop — must remove daemon.json."""
    import os
    import signal
    import subprocess
    import sys
    import time
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--cache-dir", str(tmp_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )
    try:
        for _ in range(100):
            if read_state(tmp_path) is not None:
                break
            time.sleep(0.2)
        assert read_state(tmp_path) is not None
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
        assert read_state(tmp_path) is None
    finally:
        if process.poll() is None:
            process.kill()


def test_shutdown_endpoint_stops_the_server(tmp_path):
    service = VerificationService(cache_dir=tmp_path)
    server = ProofDaemon(service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    client = connect(tmp_path)
    assert client.shutdown() == {"ok": True}
    thread.join(timeout=10)
    assert not thread.is_alive()
    server.close()
    assert read_state(tmp_path) is None
