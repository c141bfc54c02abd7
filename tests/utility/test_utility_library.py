"""Tests for the verified utility library (concrete behaviour vs. its specs)."""

import math

import pytest
from hypothesis import given, settings

from repro.circuit import Gate, QCircuit, random_circuit
from repro.coupling import Layout, ibm_16q, linear_device
from repro.errors import CircuitError
from repro.linalg import circuits_equivalent
from repro.utility.circuit_ops import (
    collect_1q_runs,
    final_ops_on_qubits,
    first_gate_on_qubit,
    gates_on_qubit,
    next_gate,
)
from repro.utility.coupling_ops import is_adjacent, shortest_path, swap_path, total_distance
from repro.utility.merge import merge_1q_gates
from repro.utility.analysis_ops import allocate_ancillas, apply_layout, check_gate_direction, check_map
from repro.utility.layout_selection import (
    layout_2q_distance_score,
    select_csp_layout,
    select_dense_layout,
    select_noise_adaptive_layout,
    select_sabre_layout,
    select_trivial_layout,
)
from repro.utility.transforms import (
    absorb_diagonal_before_measure,
    consolidate_block,
    drop_final_measurement,
    drop_initial_reset,
    expand_gate,
    next_cancellation_partner,
    reverse_direction,
)

from tests.conftest import circuit_strategy


# --------------------------------------------------------------------------- #
# next_gate and friends (the Section 3 specification, checked concretely)
# --------------------------------------------------------------------------- #
def test_next_gate_specification_clauses():
    circuit = QCircuit(3)
    circuit.cx(0, 1)   # 0
    circuit.h(2)       # 1 (does not share a qubit)
    circuit.x(1)       # 2 (shares qubit 1)
    index = next_gate(circuit, 0)
    assert index == 2
    assert index > 0
    for between in range(1, index):
        assert not circuit[between].shares_qubit(circuit[0])
    assert circuit[index].shares_qubit(circuit[0])


def test_next_gate_returns_none_when_no_match():
    circuit = QCircuit(3)
    circuit.cx(0, 1)
    circuit.h(2)
    assert next_gate(circuit, 0) is None


@settings(max_examples=30, deadline=None)
@given(circuit_strategy(num_qubits=4, max_gates=12))
def test_next_gate_spec_holds_on_random_circuits(circuit):
    if circuit.size() == 0:
        return
    result = next_gate(circuit, 0)
    if result is None:
        for later in range(1, circuit.size()):
            assert not circuit[later].shares_qubit(circuit[0])
    else:
        assert 0 < result < circuit.size()
        assert circuit[result].shares_qubit(circuit[0])
        for between in range(1, result):
            assert not circuit[between].shares_qubit(circuit[0])


def test_gates_on_qubit_and_first_gate():
    circuit = QCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.x(1)
    assert gates_on_qubit(circuit, 1) == [1, 2]
    assert first_gate_on_qubit(circuit, 1) == 1
    assert first_gate_on_qubit(circuit, 0) == 0


def test_final_ops_on_qubits():
    circuit = QCircuit(2, 2)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.x(1)
    assert final_ops_on_qubits(circuit) == [1, 2]


def test_collect_1q_runs_groups_consecutive_gates():
    circuit = QCircuit(2)
    circuit.u1(0.1, 0)
    circuit.u2(0.2, 0.3, 0)
    circuit.cx(0, 1)
    circuit.u3(0.4, 0.5, 0.6, 0)
    runs = collect_1q_runs(circuit, ("u1", "u2", "u3"))
    assert runs == [[0, 1], [3]]


# --------------------------------------------------------------------------- #
# merge_1q_gates (Section 7.1)
# --------------------------------------------------------------------------- #
def test_merge_1q_gates_is_equivalent_to_the_run():
    run = [Gate("u1", (0,), (0.3,)), Gate("u2", (0,), (0.5, 0.7)), Gate("u3", (0,), (0.2, 0.4, 0.6))]
    merged = merge_1q_gates(run)
    assert len(merged) == 1 and merged[0].name == "u3"
    assert circuits_equivalent(QCircuit(1, gates=run), QCircuit(1, gates=merged))


def test_merge_1q_gates_identity_run_collapses_to_nothing():
    run = [Gate("u1", (0,), (0.4,)), Gate("u1", (0,), (-0.4,))]
    assert merge_1q_gates(run) == []


def test_merge_1q_gates_refuses_conditioned_gates():
    with pytest.raises(CircuitError):
        merge_1q_gates([Gate("u1", (0,), (0.3,)).c_if(0, 1), Gate("u3", (0,), (0.1, 0.2, 0.3))])


def test_merge_1q_gates_refuses_multi_qubit_runs():
    with pytest.raises(CircuitError):
        merge_1q_gates([Gate("u1", (0,), (0.3,)), Gate("u1", (1,), (0.2,))])


@settings(max_examples=30, deadline=None)
@given(circuit_strategy(num_qubits=1, max_gates=6))
def test_merge_arbitrary_single_qubit_u_runs(circuit):
    run = [g for g in circuit if g.name in ("u1", "u2", "u3", "rz")]
    if not run:
        return
    merged = merge_1q_gates(run)
    assert circuits_equivalent(QCircuit(1, gates=run), QCircuit(1, gates=merged))


def test_merge_1q_gates_handles_rx_and_ry():
    """Regression: rx/ry runs crashed the merge (found by the fuzzer).

    ``Optimize1qGatesDecomposition`` collects rx/ry into runs, so the
    merge must know their Euler angles: rx(t) = u3(t, -pi/2, pi/2) and
    ry(t) = u3(t, 0, 0) up to global phase.
    """
    run = [Gate("rx", (0,), (0.9,)), Gate("ry", (0,), (1.3,)),
           Gate("u2", (0,), (0.2, 0.4))]
    merged = merge_1q_gates(run)
    assert len(merged) == 1 and merged[0].name == "u3"
    assert circuits_equivalent(QCircuit(1, gates=run), QCircuit(1, gates=merged))


@settings(max_examples=30, deadline=None)
@given(circuit_strategy(num_qubits=1, max_gates=6))
def test_merge_arbitrary_rotation_runs(circuit):
    run = [g for g in circuit if g.name in ("rx", "ry", "rz", "u1", "u2", "u3")]
    if not run:
        return
    merged = merge_1q_gates(run)
    assert circuits_equivalent(QCircuit(1, gates=run), QCircuit(1, gates=merged))


def test_optimize_1q_decomposition_no_longer_crashes_on_rx_ry():
    from repro.passes import Optimize1qGatesDecomposition

    circuit = QCircuit(1)
    circuit.rx(0.7, 0)
    circuit.ry(1.1, 0)
    circuit.rz(0.3, 0)
    output = Optimize1qGatesDecomposition()(circuit.copy())
    assert circuits_equivalent(circuit, output)
    assert len(output.gates) == 1


# --------------------------------------------------------------------------- #
# Coupling helpers
# --------------------------------------------------------------------------- #
def test_swap_path_brings_qubits_adjacent():
    cm = linear_device(6)
    swaps = swap_path(cm, 0, 4)
    layout = Layout.trivial(6)
    for edge in swaps:
        assert cm.connected(*edge)
        layout.swap(*edge)
    assert cm.connected(layout.physical(0), layout.physical(4))


def test_total_distance_and_adjacency():
    cm = linear_device(4)
    layout = Layout.trivial(4)
    assert total_distance(cm, layout, [(0, 3), (1, 2)]) == 4
    assert is_adjacent(cm, layout, 1, 2)
    assert not is_adjacent(cm, layout, 0, 3)
    assert shortest_path(cm, 0, 3) == [0, 1, 2, 3]


# --------------------------------------------------------------------------- #
# Transform utilities
# --------------------------------------------------------------------------- #
def test_expand_gate_equivalence_and_condition_safety():
    expanded = expand_gate(Gate("swap", (0, 1)))
    assert circuits_equivalent(QCircuit(2, gates=[Gate("swap", (0, 1))]), QCircuit(2, gates=expanded))
    conditioned = Gate("swap", (0, 1)).c_if(0, 1)
    assert expand_gate(conditioned) == [conditioned]


def test_reverse_direction_conjugates_with_hadamards():
    cm = ibm_16q()
    # Edge (1, 0) exists but (0, 1) does not, so cx 0,1 must be reversed.
    gate = Gate("cx", (0, 1))
    replaced = reverse_direction(gate, cm)
    assert [g.name for g in replaced] == ["h", "h", "cx", "h", "h"]
    assert circuits_equivalent(QCircuit(2, gates=[gate]), QCircuit(2, gates=replaced))
    # A correctly-directed CX is untouched.
    assert reverse_direction(Gate("cx", (1, 0)), cm) == [Gate("cx", (1, 0))]


def test_absorb_diagonal_before_measure_concrete():
    circuit = QCircuit(1, 1)
    circuit.t(0)
    circuit.measure(0, 0)
    assert absorb_diagonal_before_measure(circuit, 0, 1)
    hadamard = QCircuit(1, 1)
    hadamard.h(0)
    hadamard.measure(0, 0)
    assert not absorb_diagonal_before_measure(hadamard, 0, 1)


def test_drop_final_measurement_concrete():
    circuit = QCircuit(1, 1)
    circuit.h(0)
    circuit.measure(0, 0)
    assert drop_final_measurement(circuit, 1)
    not_final = QCircuit(1, 1)
    not_final.measure(0, 0)
    not_final.x(0)
    assert not drop_final_measurement(not_final, 0)


def test_drop_initial_reset_concrete():
    output = QCircuit(2)
    assert drop_initial_reset(output, Gate("reset", (0,)))
    output.h(0)
    assert not drop_initial_reset(output, Gate("reset", (0,)))
    assert not drop_initial_reset(QCircuit(2), Gate("reset", (0,)).c_if(0, 1))


def test_next_cancellation_partner_concrete():
    circuit = QCircuit(2)
    circuit.z(0)
    circuit.x(1)
    circuit.cx(0, 1)
    circuit.z(0)
    # z(0) commutes with x(1) but NOT with... actually z commutes with cx control,
    # so the partner is found and the cancellation is legitimate.
    assert next_cancellation_partner(circuit, 0) == 3
    blocked = QCircuit(2)
    blocked.x(1)
    blocked.cz(0, 1)
    blocked.x(1)
    assert next_cancellation_partner(blocked, 0) is None


def test_consolidate_block_concrete():
    block = [Gate("cx", (0, 1)), Gate("cx", (0, 1)), Gate("u1", (0,), (0.3,)), Gate("u1", (0,), (0.2,))]
    consolidated = consolidate_block(block)
    assert circuits_equivalent(QCircuit(2, gates=block), QCircuit(2, gates=consolidated))
    assert len(consolidated) < len(block)


# --------------------------------------------------------------------------- #
# Layout selection and analysis utilities
# --------------------------------------------------------------------------- #
def test_layout_selectors_produce_valid_layouts():
    cm = ibm_16q()
    circuit = random_circuit(6, 30, seed=2)
    for selector in (select_trivial_layout, select_dense_layout, select_sabre_layout,
                     select_noise_adaptive_layout):
        layout = selector(circuit, cm) if selector is not select_trivial_layout else selector(circuit)
        assert layout is not None
        physicals = [layout.physical(q) for q in range(circuit.num_qubits)]
        assert len(set(physicals)) == circuit.num_qubits
        assert all(0 <= p < cm.num_qubits for p in physicals)


def test_csp_layout_finds_perfect_embedding_when_one_exists():
    cm = linear_device(4)
    circuit = QCircuit(3)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    layout = select_csp_layout(circuit, cm)
    assert layout is not None
    assert layout_2q_distance_score(circuit, cm, layout) == 0
    # A triangle cannot be embedded in a line.
    triangle = QCircuit(3)
    triangle.cx(0, 1)
    triangle.cx(1, 2)
    triangle.cx(0, 2)
    assert select_csp_layout(triangle, linear_device(3)) is None


def test_check_map_and_direction():
    cm = linear_device(3)
    good = QCircuit(3)
    good.cx(0, 1)
    assert check_map(good, cm) is True
    bad = QCircuit(3)
    bad.cx(0, 2)
    assert check_map(bad, cm) is False
    directed = ibm_16q()
    assert check_gate_direction(QCircuit(16, gates=[Gate("cx", (1, 0))]), directed) is True
    assert check_gate_direction(QCircuit(16, gates=[Gate("cx", (0, 1))]), directed) is False


def test_apply_layout_and_allocate_ancillas():
    circuit = QCircuit(2)
    circuit.cx(0, 1)
    layout = Layout({0: 2, 1: 0})
    remapped = apply_layout(circuit, layout)
    assert remapped[0].qubits == (2, 0)
    cm = linear_device(5)
    enlarged = allocate_ancillas(circuit, cm)
    assert enlarged.num_qubits == 5
    assert list(enlarged.gates) == list(circuit.gates)
