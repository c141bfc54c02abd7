"""Sequence-level equivalence checking for quantum circuits.

This module is the computational core of the reproduction's circuit
equivalence engine.  Instead of comparing exponential-size unitaries, two
circuits are compared by bringing both to a *normal form* under the rewrite
rules of Section 5:

* **cancellation** of adjacent inverse pairs (CX;CX, H;H, S;Sdg, ...),
* **rotation merging** of adjacent same-axis rotations on the same qubit,
* **commutation-aware reordering**: adjacent commuting gates are sorted into
  a canonical order (a Foata-style normal form of the trace monoid induced by
  the commutation relation), which also lets cancellation partners meet.

Routing passes are handled by :func:`equivalent_up_to_swaps`, which removes
swap gates by relabelling the wires that follow them (the swap rules of
Figure 7) and returns the induced permutation.

Every rewrite performed here corresponds to a rule whose soundness is checked
against the dense-matrix semantics in :mod:`repro.symbolic.soundness` and the
test suite, mirroring the paper's once-and-for-all Coq proofs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.gate import Gate, normalize_angle
from repro.circuit.gates import inverse_gate, is_known_gate, is_self_inverse
from repro.symbolic.commutation import gates_commute

#: Rotation gates mergeable when adjacent on the same qubit and axis.
_MERGEABLE_ROTATIONS = {"rz", "rx", "ry", "u1", "rzz", "rxx", "cu1", "crz"}

#: Diagonal gates that can be dropped immediately before a measurement.
_DIAGONAL_BEFORE_MEASURE = {"z", "s", "sdg", "t", "tdg", "rz", "u1", "id"}


class EquivalenceReport:
    """Outcome of an equivalence check, with enough detail for diagnostics."""

    def __init__(self, equivalent: bool, reason: str = "",
                 normal_form_left: Tuple[Gate, ...] = (),
                 normal_form_right: Tuple[Gate, ...] = (),
                 permutation: Optional[Tuple[int, ...]] = None) -> None:
        self.equivalent = equivalent
        self.reason = reason
        self.normal_form_left = normal_form_left
        self.normal_form_right = normal_form_right
        self.permutation = permutation

    def __bool__(self) -> bool:
        return self.equivalent


# --------------------------------------------------------------------------- #
# Local rewrite steps
# --------------------------------------------------------------------------- #
def _is_identity_rotation(gate: Gate) -> bool:
    return gate.name in _MERGEABLE_ROTATIONS and all(
        abs(normalize_angle(p)) < 1e-10 for p in gate.params
    )


def cancels_with(first: Gate, second: Gate) -> bool:
    """True when ``first ; second`` is the identity (a cancellation rule)."""
    if first.is_directive() or second.is_directive():
        return False
    if first.is_conditioned() or second.is_conditioned():
        return False
    if first.qubits != second.qubits:
        return False
    if first.name == second.name and is_self_inverse(first.name) and not first.params:
        return True
    if not is_known_gate(first.name) or not is_known_gate(second.name):
        return False
    try:
        inverse = inverse_gate(first)
    except Exception:  # pragma: no cover - gates without an inverse rule
        return False
    if inverse.name != second.name or inverse.qubits != second.qubits:
        return False
    return all(
        abs(normalize_angle(a - b)) < 1e-10
        for a, b in zip(inverse.params, second.params)
    ) and len(inverse.params) == len(second.params)


def merge_rotations(first: Gate, second: Gate) -> Optional[Gate]:
    """Merge two adjacent same-axis rotations into one (or ``None``)."""
    if first.is_conditioned() or second.is_conditioned():
        return None
    if first.name != second.name or first.qubits != second.qubits:
        return None
    if first.name not in _MERGEABLE_ROTATIONS or len(first.params) != 1:
        return None
    angle = normalize_angle(first.params[0] + second.params[0])
    return first.replace(params=(angle,))


def _sort_key(gate: Gate) -> tuple:
    return (gate.name, gate.qubits, tuple(round(p, 10) for p in gate.params),
            gate.clbits, gate.condition or (), gate.q_controls)


# --------------------------------------------------------------------------- #
# Normalisation
# --------------------------------------------------------------------------- #
def normal_form(
    gates: Sequence[Gate],
    drop_barriers: bool = True,
    max_passes: int = 200,
) -> List[Gate]:
    """Bring a gate list to the engine's canonical form.

    The result is equivalent to the input (every step is a verified rewrite)
    and two equivalent circuits built from the supported fragment normalise to
    the same list in the vast majority of cases; the check is sound but not
    complete, exactly like the paper's rule set.
    """
    working: List[Gate] = [
        g for g in gates if not (drop_barriers and g.is_barrier())
    ]
    working = [g for g in working if not _is_identity_rotation(g) and g.name != "id"]

    for _ in range(max_passes):
        changed = False

        # Cancellation / merging: for each gate, scan forward across gates it
        # commutes with, looking for a partner.
        index = 0
        while index < len(working):
            gate = working[index]
            probe = index + 1
            while probe < len(working):
                other = working[probe]
                if cancels_with(gate, other):
                    del working[probe]
                    del working[index]
                    changed = True
                    index -= 1
                    break
                merged = merge_rotations(gate, other)
                if merged is not None:
                    del working[probe]
                    if _is_identity_rotation(merged):
                        del working[index]
                        index -= 1
                    else:
                        working[index] = merged
                    changed = True
                    break
                if gates_commute(gate, other):
                    probe += 1
                    continue
                break
            index += 1

        # Canonical ordering: bubble adjacent commuting gates into sorted order.
        for position in range(len(working) - 1):
            left, right = working[position], working[position + 1]
            if gates_commute(left, right) and _sort_key(right) < _sort_key(left):
                working[position], working[position + 1] = right, left
                changed = True

        if not changed:
            break
    return working


# --------------------------------------------------------------------------- #
# Equivalence checks
# --------------------------------------------------------------------------- #
def equivalent(
    left: Sequence[Gate],
    right: Sequence[Gate],
    ignore_final_measurements: bool = False,
    assume_zero_initial_state: bool = False,
) -> EquivalenceReport:
    """Check two gate lists are semantically equivalent.

    ``ignore_final_measurements`` treats trailing measurements as removable
    (the ``RemoveFinalMeasurements`` obligation); ``assume_zero_initial_state``
    allows dropping reset operations that are the first operation on their
    wire (the ``RemoveResetInZeroState`` obligation).
    """
    left_gates = list(left)
    right_gates = list(right)
    if ignore_final_measurements:
        left_gates = strip_final_measurements(left_gates)
        right_gates = strip_final_measurements(right_gates)
    if assume_zero_initial_state:
        left_gates = strip_initial_resets(left_gates)
        right_gates = strip_initial_resets(right_gates)
    normal_left = normal_form(left_gates)
    normal_right = normal_form(right_gates)
    same = normal_left == normal_right
    reason = "identical normal forms" if same else "normal forms differ"
    return EquivalenceReport(same, reason, tuple(normal_left), tuple(normal_right))


def strip_final_measurements(gates: Sequence[Gate]) -> List[Gate]:
    """Remove measurements (and barriers) with no later operation on their qubit."""
    kept = list(gates)
    blocked: set = set()
    result: List[Gate] = []
    for gate in reversed(kept):
        if gate.is_barrier():
            continue
        if gate.is_measurement() and not (set(gate.qubits) & blocked):
            continue
        blocked.update(gate.all_qubits)
        result.append(gate)
    return list(reversed(result))


def strip_initial_resets(gates: Sequence[Gate]) -> List[Gate]:
    """Remove reset operations that are the first operation on their qubit."""
    touched: set = set()
    result: List[Gate] = []
    for gate in gates:
        if gate.is_reset() and gate.qubits[0] not in touched and gate.condition is None:
            continue
        touched.update(gate.all_qubits)
        result.append(gate)
    return result


def strip_diagonal_before_measure(gates: Sequence[Gate]) -> List[Gate]:
    """Remove 1-qubit diagonal gates whose only later use is a measurement.

    This is the semantic justification of ``RemoveDiagonalGatesBeforeMeasure``:
    a Z-basis measurement is insensitive to diagonal phases.
    """
    gates = list(gates)
    removable: set = set()
    future_use: Dict[int, str] = {}
    for index in range(len(gates) - 1, -1, -1):
        gate = gates[index]
        if gate.is_barrier():
            continue
        if gate.is_measurement():
            future_use[gate.qubits[0]] = "measure"
            continue
        if (
            gate.name in _DIAGONAL_BEFORE_MEASURE
            and not gate.is_conditioned()
            and future_use.get(gate.qubits[0]) == "measure"
        ):
            removable.add(index)
            continue
        for qubit in gate.all_qubits:
            future_use[qubit] = "gate"
    return [g for i, g in enumerate(gates) if i not in removable]


def equivalent_up_to_measurement(left: Sequence[Gate], right: Sequence[Gate]) -> EquivalenceReport:
    """Equivalence where diagonal gates feeding only measurements are ignored."""
    return equivalent(strip_diagonal_before_measure(left), strip_diagonal_before_measure(right))


def remove_swaps_by_relabelling(
    gates: Sequence[Gate], num_qubits: int
) -> Tuple[List[Gate], List[int]]:
    """Eliminate swap gates by relabelling later wires (the swap rules).

    Returns the swap-free gate list (over the original logical labels) and the
    permutation ``perm`` with ``perm[logical] = final physical position``.
    """
    # mapping[physical] = logical qubit currently stored there.
    mapping = list(range(num_qubits))
    rewritten: List[Gate] = []
    for gate in gates:
        if gate.is_swap_gate() and not gate.is_conditioned():
            a, b = gate.qubits
            mapping[a], mapping[b] = mapping[b], mapping[a]
            continue
        rewritten.append(gate.remap_qubits(lambda q: mapping[q]))
    permutation = [0] * num_qubits
    for physical, logical in enumerate(mapping):
        permutation[logical] = physical
    return rewritten, permutation


def equivalent_up_to_swaps(
    original: Sequence[Gate],
    routed: Sequence[Gate],
    num_qubits: int,
    initial_layout: Optional[Sequence[int]] = None,
) -> EquivalenceReport:
    """Routing-pass obligation: ``routed`` equals ``original`` up to swaps.

    ``initial_layout``, when given, maps logical qubit ``l`` of the original
    circuit to physical qubit ``initial_layout[l]`` of the routed circuit
    (the layout-selection step of Figure 4).

    Swap gates already present in the original circuit are handled uniformly:
    both sides are brought to a swap-free form by wire relabelling, and the
    reported permutation is the *relative* permutation ``perm`` such that
    ``routed`` is equivalent to ``original`` followed by relocating the
    content of qubit ``i`` to qubit ``perm[i]``.
    """
    layout = list(initial_layout) if initial_layout is not None else list(range(num_qubits))
    # Express the original circuit on physical wires first.
    original_physical = [g.remap_qubits(lambda q: layout[q]) for g in original]
    original_rewritten, perm_original = remove_swaps_by_relabelling(
        original_physical, num_qubits
    )
    routed_rewritten, perm_routed = remove_swaps_by_relabelling(routed, num_qubits)
    report = equivalent(original_rewritten, routed_rewritten)
    # routed = P_r . routed'  and  original = P_o . original'.  When the swap
    # free forms coincide, routed = (P_r . P_o^-1) . original, i.e. the content
    # of qubit perm_original[i] moves to perm_routed[i].
    relative = [0] * num_qubits
    for logical in range(num_qubits):
        relative[perm_original[logical]] = perm_routed[logical]
    return EquivalenceReport(
        report.equivalent,
        report.reason,
        report.normal_form_left,
        report.normal_form_right,
        permutation=tuple(relative),
    )


def conforms_to_coupling(gates: Sequence[Gate], coupling) -> bool:
    """Check every 2-qubit interaction is allowed by the coupling map."""
    for gate in gates:
        if gate.is_directive():
            continue
        qubits = gate.all_qubits
        if len(qubits) == 2 and not coupling.connected(qubits[0], qubits[1]):
            return False
        if len(qubits) > 2:
            return False
    return True
