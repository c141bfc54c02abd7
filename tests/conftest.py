"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import math

import pytest
from hypothesis import strategies as st

from repro.circuit import Gate, QCircuit
from repro.circuit.random import DEFAULT_GATE_POOL


@pytest.fixture(autouse=True)
def _isolated_proof_cache(tmp_path, monkeypatch):
    """Keep the verification engine's default proof cache out of $HOME."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "proof-cache"))


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
