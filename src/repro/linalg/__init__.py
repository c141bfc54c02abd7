"""Dense-matrix denotational semantics and rotation algebra.

The names below are imported on first use.
"""

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.linalg.quaternion import Quaternion, compose_zyz
    from repro.linalg.unitary import (
        MAX_DENSE_QUBITS,
        allclose_up_to_global_phase,
        apply_gate_to_state,
        circuit_apply,
        circuit_unitary,
        circuits_equivalent,
        circuits_equivalent_under_relabelling,
        circuits_equivalent_up_to_permutation,
        gate_unitary_on_register,
        global_phase_between,
        permutation_unitary,
        statevector,
        unitary_distance,
    )

__getattr__ = lazy_exports(__name__, {
    "repro.linalg.quaternion": ("Quaternion", "compose_zyz"),
    "repro.linalg.unitary": (
        "MAX_DENSE_QUBITS",
        "allclose_up_to_global_phase",
        "apply_gate_to_state",
        "circuit_apply",
        "circuit_unitary",
        "circuits_equivalent",
        "circuits_equivalent_under_relabelling",
        "circuits_equivalent_up_to_permutation",
        "gate_unitary_on_register",
        "global_phase_between",
        "permutation_unitary",
        "statevector",
        "unitary_distance",
    ),
})

__all__ = [
    "MAX_DENSE_QUBITS",
    "Quaternion",
    "allclose_up_to_global_phase",
    "apply_gate_to_state",
    "circuit_apply",
    "circuit_unitary",
    "circuits_equivalent",
    "circuits_equivalent_under_relabelling",
    "circuits_equivalent_up_to_permutation",
    "compose_zyz",
    "gate_unitary_on_register",
    "global_phase_between",
    "permutation_unitary",
    "statevector",
    "unitary_distance",
]
