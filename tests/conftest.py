"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import contextlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import repro
from repro.circuit import Gate, QCircuit
from repro.circuit.random import DEFAULT_GATE_POOL


@pytest.fixture(autouse=True)
def _isolated_proof_cache(tmp_path, monkeypatch):
    """Keep the verification engine's default proof cache out of $HOME."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "proof-cache"))


@pytest.fixture
def cluster_peers(tmp_path):
    """Start ``repro work`` peers for a loopback ``--cluster`` run.

    ``with cluster_peers(cache_dir, count) as hostfile:`` yields a hostfile
    listening on an ephemeral loopback port, with ``count`` peers waiting
    to find the coordinator through ``cache_dir/cluster.json`` (the
    default cache directory when ``cache_dir`` is None).  Peers are fresh
    interpreters, never forks of this process, which may hold threads.  A
    warm run opens no listener, so teardown terminates the peers instead
    of letting them wait out ``--wait``.
    """
    hostfile = tmp_path / "hostfile"
    hostfile.write_text("listen 127.0.0.1:0\n")
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))

    @contextlib.contextmanager
    def start(cache_dir=None, count=2):
        directory = cache_dir or os.environ["REPRO_CACHE_DIR"]
        peers = [subprocess.Popen(
            [sys.executable, "-m", "repro", "work", "--cache-dir",
             str(directory), "--wait", "60"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for _ in range(count)]
        try:
            yield str(hostfile)
        finally:
            for peer in peers:
                peer.terminate()
            for peer in peers:
                peer.wait(timeout=30)

    return start


#: The table layout of the retired sqlite proof tier (schema v3).
_LEGACY_SQLITE_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE proofs (
    kind TEXT NOT NULL, key TEXT NOT NULL, fp TEXT NOT NULL,
    value TEXT NOT NULL, created_at REAL NOT NULL,
    last_used_at REAL NOT NULL, hits INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (kind, key));
CREATE TABLE deps (
    key TEXT PRIMARY KEY, schema INTEGER NOT NULL, value TEXT NOT NULL,
    updated_at REAL NOT NULL);
CREATE TABLE certs (
    key TEXT NOT NULL PRIMARY KEY, fp TEXT NOT NULL, value TEXT NOT NULL,
    updated_at REAL NOT NULL, last_used_at REAL NOT NULL DEFAULT 0,
    hits INTEGER NOT NULL DEFAULT 0);
INSERT INTO meta VALUES ('schema_version', '3');
"""


@pytest.fixture
def write_legacy_sqlite():
    """Write ``proofs.sqlite`` the way the retired sqlite tier laid it out.

    ``write(directory, proofs, certs=(), deps=())`` takes proof rows
    ``(kind, key, fp, value, hits)`` and certificate rows
    ``(key, fp, value, hits)``, each least recently used first, and deps
    rows ``(key, schema, value)``.
    """
    import json
    import sqlite3

    def write(directory, proofs, certs=(), deps=()):
        connection = sqlite3.connect(Path(directory) / "proofs.sqlite")
        connection.executescript(_LEGACY_SQLITE_SCHEMA)
        connection.executemany(
            "INSERT INTO proofs VALUES (?, ?, ?, ?, 0, ?, ?)",
            [(kind, key, fp, json.dumps(value, sort_keys=True), used, hits)
             for used, (kind, key, fp, value, hits) in enumerate(proofs)])
        connection.executemany(
            "INSERT INTO certs VALUES (?, ?, ?, 0, ?, ?)",
            [(key, fp, json.dumps(value, sort_keys=True), used, hits)
             for used, (key, fp, value, hits) in enumerate(certs)])
        connection.executemany(
            "INSERT INTO deps VALUES (?, ?, ?, 0)",
            [(key, schema, json.dumps(value, sort_keys=True))
             for key, schema, value in deps])
        connection.commit()
        connection.close()

    return write


@pytest.fixture
def bell_circuit() -> QCircuit:
    circuit = QCircuit(2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


@pytest.fixture
def ghz3() -> QCircuit:
    from repro.circuit import ghz_circuit

    return ghz_circuit(3)


# --------------------------------------------------------------------------- #
# Hypothesis strategies
# --------------------------------------------------------------------------- #
def gate_strategy(num_qubits: int = 4):
    """Strategy producing random well-formed gates over ``num_qubits`` qubits."""

    def build(entry, qubit_seed, angle_seed):
        name, arity, num_params = entry
        qubits = []
        available = list(range(num_qubits))
        for i in range(arity):
            qubits.append(available.pop(qubit_seed[i] % len(available)))
        params = tuple((angle_seed[i] % 628) / 100.0 for i in range(num_params))
        return Gate(name, qubits, params)

    pool = [entry for entry in DEFAULT_GATE_POOL if entry[1] <= num_qubits]
    return st.builds(
        build,
        st.sampled_from(pool),
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=2),
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=3, max_size=3),
    )


def circuit_strategy(num_qubits: int = 4, max_gates: int = 12):
    """Strategy producing random circuits (small enough for the matrix oracle)."""

    def build(gates):
        circuit = QCircuit(num_qubits)
        for gate in gates:
            circuit.append(gate)
        return circuit

    return st.builds(build, st.lists(gate_strategy(num_qubits), max_size=max_gates))
