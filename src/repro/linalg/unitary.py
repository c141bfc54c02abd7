"""Denotational semantics of quantum circuits (Figure 3 of the paper).

A circuit over ``n`` qubits denotes a ``2^n x 2^n`` unitary.  The semantics of
``skip`` is the identity, a gate denotes its unitary tensored with the
identity on untouched qubits, and sequential composition denotes matrix
multiplication.  These functions are exponential in qubit count and are used
only for testing, rewrite-rule soundness checking (the role the Coq/QWire
proofs play in the paper), and counterexample validation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.circuit.circuit import QCircuit
from repro.circuit.gate import Gate
from repro.circuit.gates import gate_matrix
from repro.errors import CircuitError

if TYPE_CHECKING:
    import numpy as np

#: Largest register for which we will build dense unitaries.
MAX_DENSE_QUBITS = 12


def _check_size(num_qubits: int) -> None:
    if num_qubits > MAX_DENSE_QUBITS:
        raise CircuitError(
            f"refusing to build a dense unitary on {num_qubits} qubits "
            f"(limit is {MAX_DENSE_QUBITS}); this is exactly the blow-up the "
            "symbolic rewrite rules avoid"
        )


def apply_gate_to_state(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply one gate to a statevector of ``num_qubits`` qubits.

    The statevector uses the big-endian qubit convention: qubit 0 is the most
    significant axis after reshaping to a rank-``num_qubits`` tensor.
    """
    import numpy as np

    if gate.is_barrier():
        return state
    if gate.is_measurement() or gate.is_reset() or gate.condition is not None:
        raise CircuitError(
            f"gate {gate.name} is not a unitary operation; unitary semantics "
            "only covers the purely unitary fragment"
        )
    operands = gate.q_controls + gate.qubits
    matrix = gate_matrix(gate)
    k = len(operands)
    tensor = state.reshape([2] * num_qubits)
    tensor = np.moveaxis(tensor, operands, range(k))
    tensor = tensor.reshape(2**k, -1)
    tensor = matrix @ tensor
    tensor = tensor.reshape([2] * num_qubits)
    tensor = np.moveaxis(tensor, range(k), operands)
    return tensor.reshape(-1)


def gate_unitary_on_register(gate: Gate, num_qubits: int) -> np.ndarray:
    """Embed a gate's unitary into the full ``2^n``-dimensional register space."""
    import numpy as np

    _check_size(num_qubits)
    dim = 2**num_qubits
    columns = np.empty((dim, dim), dtype=complex)
    for basis_index in range(dim):
        basis_state = np.zeros(dim, dtype=complex)
        basis_state[basis_index] = 1.0
        columns[:, basis_index] = apply_gate_to_state(basis_state, gate, num_qubits)
    return columns


def circuit_apply(circuit: QCircuit, state: np.ndarray) -> np.ndarray:
    """Apply every (unitary) gate of ``circuit`` to a statevector."""
    for gate in circuit:
        state = apply_gate_to_state(state, gate, circuit.num_qubits)
    return state


def circuit_unitary(circuit: QCircuit, num_qubits: Optional[int] = None) -> np.ndarray:
    """Dense unitary of a circuit (the paper's denotational semantics)."""
    import numpy as np

    n = circuit.num_qubits if num_qubits is None else num_qubits
    _check_size(n)
    dim = 2**n
    unitary = np.eye(dim, dtype=complex)
    for gate in circuit:
        if gate.is_barrier():
            continue
        unitary = gate_unitary_on_register(gate, n) @ unitary
    return unitary


def statevector(circuit: QCircuit) -> np.ndarray:
    """Final state of running ``circuit`` on the all-zero state."""
    import numpy as np

    _check_size(circuit.num_qubits)
    state = np.zeros(2**circuit.num_qubits, dtype=complex)
    state[0] = 1.0
    return circuit_apply(circuit, state)


def global_phase_between(a: np.ndarray, b: np.ndarray) -> Optional[complex]:
    """Return the phase ``e^{i t}`` with ``a ~= e^{i t} b``, or ``None``."""
    import numpy as np

    flat_a = a.reshape(-1)
    flat_b = b.reshape(-1)
    idx = int(np.argmax(np.abs(flat_b)))
    if abs(flat_b[idx]) < 1e-12:
        return 1.0 if np.allclose(flat_a, 0.0) else None
    phase = flat_a[idx] / flat_b[idx]
    magnitude = abs(phase)
    if abs(magnitude - 1.0) > 1e-8:
        return None
    return phase


def allclose_up_to_global_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> bool:
    """True when two matrices/vectors are equal up to a single global phase."""
    import numpy as np

    if a.shape != b.shape:
        return False
    phase = global_phase_between(a, b)
    if phase is None:
        return False
    return bool(np.allclose(a, phase * b, atol=atol))


def _active_qubits(circuit: QCircuit) -> set:
    """Qubits touched by at least one operation of ``circuit``."""
    active: set = set()
    for gate in circuit:
        if gate.is_barrier():
            continue
        active.update(gate.all_qubits)
    return active


def _compact_onto_active(
    left: QCircuit, right: QCircuit
) -> Optional[tuple]:
    """Remap both circuits onto their joint active-qubit subset.

    Idle wires contribute an identity tensor factor to both sides, so they can
    be dropped without changing equivalence.  Returns ``None`` when the joint
    support is still too large for the dense oracle.
    """
    active = sorted(_active_qubits(left) | _active_qubits(right))
    if len(active) > MAX_DENSE_QUBITS:
        return None
    relabel = {old: new for new, old in enumerate(active)}
    compact_n = max(len(active), 1)

    def remap(circuit: QCircuit) -> QCircuit:
        compact = QCircuit(compact_n, circuit.num_clbits)
        for gate in circuit:
            if gate.is_barrier():
                continue
            compact.append(gate.remap_qubits(lambda q: relabel[q]))
        return compact

    return remap(left), remap(right), compact_n


def circuits_equivalent(
    left: QCircuit,
    right: QCircuit,
    up_to_global_phase: bool = True,
    atol: float = 1e-8,
) -> bool:
    """Dense-matrix equivalence check for two circuits.

    Both circuits are evaluated over a register large enough for either.  This
    is the ground-truth oracle the symbolic engine is validated against; it is
    exponential and only usable for small circuits.  Circuits on wide
    registers are accepted as long as their joint active-qubit support fits in
    :data:`MAX_DENSE_QUBITS` (idle wires carry the identity and are dropped).
    """
    import numpy as np

    n = max(left.num_qubits, right.num_qubits)
    if n > MAX_DENSE_QUBITS:
        compact = _compact_onto_active(left, right)
        if compact is None:
            _check_size(n)
        left, right, n = compact
    u_left = circuit_unitary(left, n)
    u_right = circuit_unitary(right, n)
    if up_to_global_phase:
        return allclose_up_to_global_phase(u_left, u_right, atol=atol)
    return bool(np.allclose(u_left, u_right, atol=atol))


def permutation_unitary(permutation: Sequence[int], num_qubits: int) -> np.ndarray:
    """Unitary that relocates the state of qubit ``i`` to qubit ``permutation[i]``."""
    import numpy as np

    _check_size(num_qubits)
    perm = list(permutation) + list(range(len(permutation), num_qubits))
    if sorted(perm) != list(range(num_qubits)):
        raise CircuitError(f"{permutation!r} is not a permutation of {num_qubits} qubits")
    dim = 2**num_qubits
    matrix = np.zeros((dim, dim), dtype=complex)
    for source in range(dim):
        bits = [(source >> (num_qubits - 1 - i)) & 1 for i in range(num_qubits)]
        new_bits = [0] * num_qubits
        for i, bit in enumerate(bits):
            new_bits[perm[i]] = bit
        target = 0
        for bit in new_bits:
            target = (target << 1) | bit
        matrix[target, source] = 1.0
    return matrix


def circuits_equivalent_up_to_permutation(
    left: QCircuit,
    right: QCircuit,
    permutation: Sequence[int],
    atol: float = 1e-8,
) -> bool:
    """Check ``right`` equals ``left`` followed by a relabelling of qubits.

    ``permutation[i] = j`` means that what the original circuit left on qubit
    ``i`` ends up on qubit ``j`` after the routed circuit (the net effect of
    the inserted swap gates).  This is the proof obligation for routing passes.
    """
    n = max(left.num_qubits, right.num_qubits, len(permutation))
    u_left = permutation_unitary(permutation, n) @ circuit_unitary(left, n)
    u_right = circuit_unitary(right, n)
    return allclose_up_to_global_phase(u_left, u_right, atol=atol)


def circuits_equivalent_under_relabelling(
    left: QCircuit,
    right: QCircuit,
    permutation: Sequence[int],
    atol: float = 1e-8,
) -> bool:
    """Check ``right`` is ``left`` with every qubit ``i`` relabelled to ``permutation[i]``.

    This is the proof obligation for layout-application passes: relabelling a
    circuit's wires conjugates its unitary by the corresponding permutation
    operator, ``U_right = P U_left P^\\dagger``.
    """
    n = max(left.num_qubits, right.num_qubits, len(permutation))
    p = permutation_unitary(permutation, n)
    u_left = circuit_unitary(left, n)
    u_right = circuit_unitary(right, n)
    return allclose_up_to_global_phase(p @ u_left @ p.conj().T, u_right, atol=atol)


def unitary_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Phase-insensitive operator distance used in counterexample reports."""
    import numpy as np

    phase = global_phase_between(a, b)
    if phase is None:
        phase = 1.0
    return float(np.linalg.norm(a - phase * b, ord="fro"))
