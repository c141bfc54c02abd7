"""Coordinator self-leasing and mid-unit remote subgoal reads (PR 4 follow-ups)."""

import threading

import pytest

from repro.cluster import verify_passes_distributed
from repro.cluster.store import RemoteProofStore, is_store_op, serve_store_op
from repro.cluster.transport import Listener, connect
from repro.cluster.worker import execute_unit, make_store_fallback
from repro.engine import verify_passes
from repro.engine.cache import ProofCache
from repro.engine.driver import _verify_one, default_pass_kwargs
from repro.engine.fingerprint import pass_fingerprint
from repro.passes import ALL_VERIFIED_PASSES
from repro.service.protocol import make_pass_spec, pass_registry

SUBSET = list(ALL_VERIFIED_PASSES)[:6]


# --------------------------------------------------------------------------- #
# Self-leasing
# --------------------------------------------------------------------------- #
def test_coordinator_proves_units_itself_when_no_worker_comes(
        tmp_path, cluster_peers):
    """With no workers at all, the coordinator drains the plan by
    self-leasing; the proved units appear in EngineStats.cluster."""
    single = verify_passes(SUBSET, jobs=1, cache_dir=str(tmp_path / "a"))
    with cluster_peers(tmp_path / "b", count=0) as hostfile:
        report = verify_passes_distributed(
            SUBSET, hostfile=hostfile, cache_dir=str(tmp_path / "b"),
            worker_wait=2.0)
    cluster = report.stats.cluster
    assert cluster["coordinator_units"] == len(SUBSET)
    assert cluster["remote_units"] == 0
    assert cluster["local_units"] == 0  # nothing left for the fallback
    verdicts = [(r.pass_name, r.verified, r.num_subgoals) for r in report.results]
    expected = [(r.pass_name, r.verified, r.num_subgoals) for r in single.results]
    assert verdicts == expected
    # Self-leased proofs land in the shared store like any worker's would.
    warm = verify_passes(SUBSET, jobs=1, cache_dir=str(tmp_path / "b"))
    assert warm.stats.cache_hits == len(SUBSET)


def test_self_leasing_can_be_disabled(tmp_path, cluster_peers):
    with cluster_peers(tmp_path, count=0) as hostfile:
        report = verify_passes_distributed(
            SUBSET, hostfile=hostfile, cache_dir=str(tmp_path),
            worker_wait=0.3, self_lease=False)
    cluster = report.stats.cluster
    assert cluster["coordinator_units"] == 0
    assert cluster["local_units"] == len(SUBSET)  # the in-process fallback
    assert all(r.verified for r in report.results)


def test_cluster_line_reports_self_leased_units():
    from repro.engine.driver import EngineStats

    stats = EngineStats()
    stats.cluster = {"workers": 0, "units_total": 6, "split_passes": 0,
                     "coordinator_units": 6, "remote_subgoal_hits": 3}
    line = stats.cluster_line()
    assert "6 self-leased" in line
    assert "3 subgoals fetched mid-unit" in line


# --------------------------------------------------------------------------- #
# Mid-unit remote subgoal reads
# --------------------------------------------------------------------------- #
def _serve_store(listener, cache):
    def server():
        conn = listener.accept(timeout=10)
        while True:
            message = conn.recv()
            if message is None:
                break
            assert is_store_op(message)
            conn.send(serve_store_op(cache, message, allow_writes=False))
    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    return thread


def test_worker_skips_reproving_via_the_warm_certificate_store(tmp_path):
    """A worker whose local snapshot is empty resolves already-proved
    subgoals mid-unit from the coordinator's warm store tier instead of
    re-proving them."""
    pass_class = SUBSET[0]
    kwargs = default_pass_kwargs(pass_class)
    # Warm the coordinator-side store: subgoal + certificate tiers.
    cache = ProofCache(tmp_path)
    _, warm_acct = _verify_one(pass_class, kwargs, False, {})
    for key, value in warm_acct.new_subgoals.items():
        cache.put_subgoal(key, value)
    for key, value in warm_acct.new_certificates.items():
        cache.put_certificate(key, value)
    assert warm_acct.misses > 0

    unit = {
        "unit_id": "u1",
        "kind": "pass",
        "spec": make_pass_spec(pass_class, kwargs),
        "key": pass_fingerprint(pass_class, kwargs),
        "solver": "builtin",
        "shard_index": 0,
        "shard_count": 1,
        "counterexample_search": False,
    }
    with Listener(f"unix:{tmp_path}/store.sock") as listener:
        thread = _serve_store(listener, cache)
        connection = connect(listener.address, timeout=10)
        store = RemoteProofStore(connection)
        # The mid-unit case: the worker's handshake snapshot is stale/empty.
        reply = execute_unit(unit, pass_registry(), {}, store=store)
        connection.close()
        thread.join(timeout=5)
    assert reply["ok"]
    assert reply["subgoal_remote_hits"] >= 1
    assert reply["subgoal_misses"] == 0          # nothing was re-proved
    assert reply["new_subgoals"] == {}           # the store already had it all
    assert reply["payload"]["verified"]
    cache.close()


def test_stateless_cluster_run_survives_mid_unit_probes(tmp_path,
                                                       cluster_peers):
    """--no-cache cluster runs have no store to serve: mid-unit probes get
    a graceful error reply (workers re-prove locally), never a dead
    handler thread."""
    from repro.cluster.store import serve_store_op

    reply = serve_store_op(None, {"op": "store.get_subgoal", "args": ["k"]})
    assert "no proof store" in reply["error"]
    # A cacheless coordinator advertises itself in the default cache dir.
    with cluster_peers() as hostfile:
        report = verify_passes_distributed(SUBSET[:3], hostfile=hostfile,
                                           use_cache=False)
    assert all(result.verified for result in report.results)
    assert report.stats.cache_dir is None


def test_store_fallback_swallows_transport_errors(tmp_path):
    with Listener(f"unix:{tmp_path}/s.sock") as listener:
        def server():
            conn = listener.accept(timeout=10)
            conn.recv()
            conn.close()  # die mid-call

        thread = threading.Thread(target=server, daemon=True)
        thread.start()
        connection = connect(listener.address, timeout=10)
        fallback = make_store_fallback(RemoteProofStore(connection))
        assert fallback("some-key") is None  # degraded, not raised
        connection.close()
        thread.join(timeout=5)
    assert make_store_fallback(None) is None
