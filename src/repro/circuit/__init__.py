"""Gate-list circuit IR: gates, the standard gate library, and ``QCircuit``.

The names below are imported on first use.
"""

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.circuit.gate import Gate, gates_commute_trivially, normalize_angle, total_qubits
    from repro.circuit.gates import (
        IBM_NATIVE_BASIS,
        TRANSITIVE_COMMUTATION_GATE_SET,
        GateSpec,
        decompose_to_basis,
        gate_matrix,
        gate_spec,
        inverse_gate,
        is_diagonal_gate,
        is_known_gate,
        is_self_inverse,
        known_gate_names,
        register_gate,
    )
    from repro.circuit.circuit import QCircuit, ghz_circuit
    from repro.circuit.random import random_circuit, random_clifford_circuit

__getattr__ = lazy_exports(__name__, {
    "repro.circuit.gate": ("Gate", "gates_commute_trivially", "normalize_angle", "total_qubits"),
    "repro.circuit.gates": (
        "IBM_NATIVE_BASIS",
        "TRANSITIVE_COMMUTATION_GATE_SET",
        "GateSpec",
        "decompose_to_basis",
        "gate_matrix",
        "gate_spec",
        "inverse_gate",
        "is_diagonal_gate",
        "is_known_gate",
        "is_self_inverse",
        "known_gate_names",
        "register_gate",
    ),
    "repro.circuit.circuit": ("QCircuit", "ghz_circuit"),
    "repro.circuit.random": ("random_circuit", "random_clifford_circuit"),
})

__all__ = [
    "Gate",
    "GateSpec",
    "QCircuit",
    "IBM_NATIVE_BASIS",
    "TRANSITIVE_COMMUTATION_GATE_SET",
    "decompose_to_basis",
    "gate_matrix",
    "gate_spec",
    "gates_commute_trivially",
    "ghz_circuit",
    "inverse_gate",
    "is_diagonal_gate",
    "is_known_gate",
    "is_self_inverse",
    "known_gate_names",
    "normalize_angle",
    "random_circuit",
    "random_clifford_circuit",
    "register_gate",
    "total_qubits",
]
