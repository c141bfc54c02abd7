"""Transports: framing, token auth, discovery, the remote store tier."""

import threading

import pytest

from repro.cluster.store import RemoteProofStore, serve_store_op, is_store_op
from repro.cluster.transport import (
    ClusterEndpoint,
    Listener,
    TransportError,
    client_hello,
    connect,
    parse_address,
    read_cluster_state,
    remove_cluster_state,
    server_handshake,
    token_path,
    write_cluster_state,
)
from repro.engine.cache import ProofCache


def test_parse_address_forms():
    assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
    assert parse_address("127.0.0.1:7200") == ("tcp", ("127.0.0.1", 7200))
    with pytest.raises(TransportError):
        parse_address("no-port-here")
    with pytest.raises(TransportError):
        parse_address("unix:")
    with pytest.raises(TransportError):
        parse_address("host:notaport")


@pytest.mark.parametrize("family", ["unix", "tcp"])
def test_framed_round_trip(tmp_path, family):
    address = (f"unix:{tmp_path}/t.sock" if family == "unix"
               else "127.0.0.1:0")
    with Listener(address) as listener:
        received = {}

        def server():
            conn = listener.accept(timeout=5)
            received["msg"] = conn.recv()
            conn.send({"op": "echo", "big": received["msg"]["big"]})
            conn.close()

        thread = threading.Thread(target=server, daemon=True)
        thread.start()
        client = connect(listener.address, timeout=5)
        # A frame big enough to span several socket reads.
        client.send({"op": "hi", "big": "x" * 3_000_000})
        reply = client.recv()
        client.close()
        thread.join(timeout=5)
    assert received["msg"]["op"] == "hi"
    assert reply["op"] == "echo" and len(reply["big"]) == 3_000_000


def test_handshake_rejects_bad_token(tmp_path):
    with Listener(f"unix:{tmp_path}/t.sock") as listener:
        outcome = {}

        def server():
            conn = listener.accept(timeout=5)
            outcome["hello"] = server_handshake(conn, "right-token")

        thread = threading.Thread(target=server, daemon=True)
        thread.start()
        client = connect(listener.address, timeout=5)
        with pytest.raises(TransportError):
            client_hello(client, "wrong-token")
        thread.join(timeout=5)
        assert outcome["hello"] is None


def test_handshake_accepts_and_carries_extra(tmp_path):
    with Listener(f"unix:{tmp_path}/t.sock") as listener:
        def server():
            conn = listener.accept(timeout=5)
            server_handshake(conn, "tok", welcome_extra={"toolchain": "abc"})
            conn.close()

        thread = threading.Thread(target=server, daemon=True)
        thread.start()
        client = connect(listener.address, timeout=5)
        welcome = client_hello(client, "tok", host="testhost")
        client.close()
        thread.join(timeout=5)
    assert welcome["toolchain"] == "abc"


def test_cluster_state_round_trip(tmp_path):
    endpoint = ClusterEndpoint(address="127.0.0.1:7200", token="secret", pid=42)
    write_cluster_state(tmp_path, endpoint)
    state = read_cluster_state(tmp_path)
    assert state.address == "127.0.0.1:7200"
    assert state.token == "secret"
    assert token_path(tmp_path).read_text().strip() == "secret"
    # Another coordinator's token must not remove the newer state.
    remove_cluster_state(tmp_path, token="stale-token")
    assert read_cluster_state(tmp_path) is not None
    remove_cluster_state(tmp_path, token="secret")
    assert read_cluster_state(tmp_path) is None


def test_remote_store_against_live_cache(tmp_path):
    """The networked store tier round-trips every operation it advertises."""
    cache = ProofCache(tmp_path)
    cache.put_subgoal("sg1", {"proved": True, "method": "m", "reason": "",
                              "rules_used": []})
    with Listener(f"unix:{tmp_path}/store.sock") as listener:
        def server():
            conn = listener.accept(timeout=5)
            while True:
                message = conn.recv()
                if message is None:
                    break
                assert is_store_op(message)
                conn.send(serve_store_op(cache, message))

        thread = threading.Thread(target=server, daemon=True)
        thread.start()
        client = connect(listener.address, timeout=5)
        store = RemoteProofStore(client)

        assert store.get_pass(None) is None
        assert store.get_pass("missing") is None
        store.put_pass("p1", {"pass": "X", "verified": True})
        assert store.get_pass("p1")["pass"] == "X"
        assert store.has_subgoal("sg1") and not store.has_subgoal("sg2")
        store.put_subgoal("sg2", {"proved": False, "method": "m", "reason": "r",
                                  "rules_used": []})
        assert store.get_subgoal("sg2")["proved"] is False
        snapshot = store.subgoal_snapshot()
        assert set(snapshot) == {"sg1", "sg2"}
        store.touch_subgoals(["sg1"])
        store.put_deps("ident", {"schema": 2, "fingerprint": "f"})
        assert store.get_deps("ident")["fingerprint"] == "f"
        assert "ident" in store.deps_snapshot()
        assert store.stats.pass_hits == 1 and store.stats.pass_misses == 2
        client.close()
        thread.join(timeout=5)
    # The writes really landed in the backing store.
    assert cache.get_pass("p1") is not None
    assert cache.hit_count("subgoal", "sg1") >= 1
    cache.close()


def test_serve_store_op_reports_errors_without_dying(tmp_path):
    cache = ProofCache(tmp_path)
    reply = serve_store_op(cache, {"op": "store.get_pass", "args": []})  # missing arg
    assert reply["op"] == "store.reply"
    assert "error" in reply
    cache.close()


def test_read_only_store_rejects_writes_but_serves_reads(tmp_path):
    """The coordinator-facing mode: content writes rejected, reads fine."""
    cache = ProofCache(tmp_path)
    cache.put_pass("p", {"pass": "X"})
    denied = serve_store_op(
        cache, {"op": "store.put_pass", "args": ["q", {"pass": "Y"}]},
        allow_writes=False)
    assert "read-only" in denied["error"]
    assert cache.get_pass("q") is None
    served = serve_store_op(cache, {"op": "store.get_pass", "args": ["p"]},
                            allow_writes=False)
    assert served["value"]["pass"] == "X"
    # Recency touches are not content writes.
    touched = serve_store_op(cache, {"op": "store.touch_subgoals", "args": [[]]},
                             allow_writes=False)
    assert "error" not in touched
    cache.close()


def test_remote_store_io_counters_reset_per_unit(tmp_path):
    """Workers reset the per-tier io counters before each unit and ship
    the non-empty delta on the result message; the tier names and reset
    semantics here are what the coordinator's merge relies on."""
    cache = ProofCache(tmp_path)
    cache.put_pass("warm", {"verified": True})
    with Listener(f"unix:{tmp_path}/store.sock") as listener:
        def server():
            conn = listener.accept(timeout=5)
            while True:
                message = conn.recv()
                if message is None:
                    break
                conn.send(serve_store_op(cache, message))

        thread = threading.Thread(target=server, daemon=True)
        thread.start()
        client = connect(listener.address, timeout=5)
        store = RemoteProofStore(client)

        assert store.io_totals() == {}
        store.get_pass("warm")
        store.get_pass("cold-miss")
        store.get_subgoal("nothing")
        io = store.io_totals()
        assert io["pass"]["gets"] == 2
        assert io["pass"]["hits"] == 1 and io["pass"]["misses"] == 1
        assert io["pass"]["bytes"] > 0            # the hit was measured
        assert io["pass"]["seconds"] > 0.0
        assert io["subgoal"] == {"gets": 1, "hits": 0, "misses": 1,
                                 "seconds": io["subgoal"]["seconds"],
                                 "bytes": 0}
        # Totals are a snapshot, not a live view.
        io["pass"]["gets"] = 999
        assert store.io_totals()["pass"]["gets"] == 2
        store.reset_io()
        assert store.io_totals() == {}
        client.close()
        thread.join(timeout=5)
    cache.close()
