"""Client-side behaviour: discovery, fallback, and the wire pass specs."""

import pytest

from repro.coupling.devices import linear_device
from repro.passes import ALL_VERIFIED_PASSES
from repro.service.client import connect, verify_with_fallback
from repro.service.protocol import (
    DaemonEndpoint,
    ProtocolError,
    make_pass_spec,
    pass_registry,
    read_state,
    resolve_pass_spec,
    write_state,
)


def test_connect_without_state_file(tmp_path):
    assert connect(tmp_path) is None


def test_connect_with_stale_state_file(tmp_path):
    # A daemon that died without cleanup: state file points at a dead port.
    write_state(tmp_path, DaemonEndpoint(
        host="127.0.0.1", port=1, token="t", pid=999999,
        backend="jsonl", cache_dir=str(tmp_path),
    ))
    assert connect(tmp_path) is None


def test_connect_with_non_http_responder(tmp_path):
    """A stale endpoint whose port got reused by a non-HTTP service must read
    as "no daemon", not crash the client."""
    import socket
    import threading

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def garbage_server():
        conn, _ = listener.accept()
        conn.recv(1024)
        conn.sendall(b"definitely not http\n")
        conn.close()

    thread = threading.Thread(target=garbage_server, daemon=True)
    thread.start()
    write_state(tmp_path, DaemonEndpoint(
        host="127.0.0.1", port=port, token="t", pid=1,
        backend="jsonl", cache_dir=str(tmp_path),
    ))
    try:
        assert connect(tmp_path, timeout=5) is None
    finally:
        listener.close()


def test_fallback_runs_in_process(tmp_path):
    classes = ALL_VERIFIED_PASSES[:2]
    report = verify_with_fallback(classes, cache_dir=str(tmp_path / "cache"))
    assert [r.pass_name for r in report.results] == [c.__name__ for c in classes]
    assert all(r.verified for r in report.results)
    assert report.stats.daemon is None             # nobody served it remotely
    assert report.stats.backend == "jsonl"
    # The fallback still warmed the shared store.
    warm = verify_with_fallback(classes, cache_dir=str(tmp_path / "cache"))
    assert warm.stats.cache_hits == len(classes)


def test_cli_daemon_flag_falls_back_silently(tmp_path, capsys):
    from repro.cli import main

    import json

    assert main(["verify", "Width", "--daemon",
                 "--cache-dir", str(tmp_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["all_verified"] is True
    assert payload["engine"]["daemon"] is None


# --------------------------------------------------------------------------- #
# Pass specs
# --------------------------------------------------------------------------- #
def test_pass_spec_round_trip_plain():
    registry = pass_registry()
    cls = registry["CXCancellation"]
    spec = make_pass_spec(cls, None)
    assert spec == {"name": "CXCancellation", "coupling": None}
    resolved_cls, kwargs = resolve_pass_spec(spec, registry)
    assert resolved_cls is cls
    assert kwargs is None


def test_pass_spec_round_trip_coupling():
    registry = pass_registry()
    cls = registry["BasicSwap"]
    coupling = linear_device(4)
    spec = make_pass_spec(cls, {"coupling": coupling})
    resolved_cls, kwargs = resolve_pass_spec(spec, registry)
    assert resolved_cls is cls
    rebuilt = kwargs["coupling"]
    assert rebuilt.num_qubits == coupling.num_qubits
    assert sorted(rebuilt.edges) == sorted(coupling.edges)


def test_fallback_after_daemon_death_keeps_the_store_warm(tmp_path):
    """A dead daemon's clients inherit the warmth it banked: the in-process
    fallback reads the very store the daemon wrote."""
    from repro.engine import verify_passes
    from repro.service.daemon import VerificationService

    classes = ALL_VERIFIED_PASSES[:2]
    service = VerificationService(cache_dir=tmp_path)
    verify_passes(classes, cache=service.cache)   # the proofs the daemon banked
    service.close()
    # State file of a daemon that died without cleanup (kill -9).
    write_state(tmp_path, DaemonEndpoint(
        host="127.0.0.1", port=1, token="t", pid=999999,
        backend="jsonl", cache_dir=str(tmp_path),
    ))
    warm = verify_with_fallback(classes, cache_dir=str(tmp_path))
    assert warm.stats.backend == "jsonl"
    assert warm.stats.cache_hits == len(classes)
    assert warm.stats.cache_misses == 0
    assert warm.stats.daemon is None


def test_pass_spec_rejects_coupling_pass_without_coupling():
    """The daemon must never silently substitute its default device for a
    coupling pass the caller configured with kwargs=None."""
    registry = pass_registry()
    with pytest.raises(ProtocolError):
        make_pass_spec(registry["BasicSwap"], None)


def test_pass_spec_rejects_unshippable_kwargs():
    registry = pass_registry()
    with pytest.raises(ProtocolError):
        make_pass_spec(registry["CXCancellation"], {"mystery": object()})


def test_resolve_rejects_unknown_pass():
    with pytest.raises(ProtocolError):
        resolve_pass_spec({"name": "Nope", "coupling": None}, pass_registry())


def test_state_file_round_trip(tmp_path):
    endpoint = DaemonEndpoint(host="127.0.0.1", port=4242, token="secret",
                              pid=123, backend="jsonl", cache_dir=str(tmp_path))
    write_state(tmp_path, endpoint)
    loaded = read_state(tmp_path)
    assert loaded == endpoint
    state = (tmp_path / "daemon.json")
    assert state.stat().st_mode & 0o777 == 0o600


def test_state_file_version_mismatch_is_ignored(tmp_path):
    import json

    endpoint = DaemonEndpoint(host="127.0.0.1", port=4242, token="secret",
                              pid=123, backend="jsonl", cache_dir=str(tmp_path))
    write_state(tmp_path, endpoint)
    payload = json.loads((tmp_path / "daemon.json").read_text())
    payload["protocol_version"] = 999
    (tmp_path / "daemon.json").write_text(json.dumps(payload))
    assert read_state(tmp_path) is None


# --------------------------------------------------------------------------- #
# PassManager integration
# --------------------------------------------------------------------------- #
def test_passmanager_verify_daemon_without_daemon(tmp_path):
    """verify_daemon=True with no daemon running quietly verifies locally."""
    from repro.passes import CXCancellation
    from repro.qasm import parse_qasm
    from repro.transpiler.passmanager import PassManager

    manager = PassManager(
        [CXCancellation()], verify_first=True, verify_daemon=True,
        verify_cache_dir=str(tmp_path),
    )
    circuit = parse_qasm(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        "cx q[0],q[1];\ncx q[0],q[1];\n"
    )
    compiled = manager.run(circuit)
    assert compiled.size() == 0            # the pair cancelled
    # The local fallback populated the shared store.
    from repro.engine import ProofCache

    with ProofCache(tmp_path) as store:
        assert store.summary()["pass_entries"] >= 1
