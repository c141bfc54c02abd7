"""The solver choice travels the daemon wire (protocol v3)."""

import threading

import pytest

from repro.passes import CXCancellation, Depth
from repro.service.client import DaemonClient, verify_with_fallback
from repro.service.daemon import ProofDaemon, VerificationService
from repro.service.protocol import ProtocolError, make_pass_spec


@pytest.fixture()
def daemon(tmp_path):
    service = VerificationService(cache_dir=tmp_path)
    server = ProofDaemon(service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.close()


def test_daemon_discharges_with_the_requested_solver(daemon):
    client = DaemonClient(daemon.endpoint)
    specs = [make_pass_spec(cls, None) for cls in (CXCancellation, Depth)]
    results, stats = client.verify_specs(specs, solver="bounded")
    assert stats.solver == "bounded"
    assert all(result.verified for result in results)
    # Same passes under the default solver: separate cache keys, same verdicts.
    results_builtin, stats_builtin = client.verify_specs(specs)
    assert stats_builtin.solver == "builtin"
    assert stats_builtin.cache_misses == 2
    # And a warm repeat per solver is served from the shared store.
    _, warm = client.verify_specs(specs, solver="bounded")
    assert warm.cache_hits == 2


def test_unusable_solver_is_a_protocol_error(daemon):
    client = DaemonClient(daemon.endpoint)
    specs = [make_pass_spec(Depth, None)]
    with pytest.raises(ProtocolError):
        client.verify_specs(specs, solver="no-such-backend")


def test_verify_with_fallback_threads_the_solver(daemon, tmp_path):
    report = verify_with_fallback([Depth], cache_dir=str(tmp_path),
                                  solver="bounded")
    assert report.stats.daemon is not None
    assert report.stats.solver == "bounded"
    # No daemon (fresh dir): the in-process fallback keeps the choice.
    fallback = verify_with_fallback([Depth], cache_dir=str(tmp_path / "none"),
                                    solver="bounded")
    assert fallback.stats.daemon is None
    assert fallback.stats.solver == "bounded"
