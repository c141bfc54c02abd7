"""Tests for the verifier core: session, templates, discharge, driver."""

import pytest

from repro.circuit import Gate, QCircuit
from repro.coupling import linear_device
from repro.errors import TranspilerError, UnsupportedPassError
from repro.verify import (
    Fact,
    GeneralPass,
    PathExplorer,
    Subgoal,
    SymCircuit,
    VerificationSession,
    analyze_pass,
    iterate_all_gates,
    verify_pass,
    while_gate_remaining,
)
from repro.verify import facts as F
from repro.verify.discharge import discharge
from repro.verify.symvalues import SymGate


# --------------------------------------------------------------------------- #
# Session and path exploration
# --------------------------------------------------------------------------- #
def test_path_explorer_enumerates_all_branches():
    session = VerificationSession()
    explorer = PathExplorer(session)

    def runner():
        gate = session.fresh_gate()
        outcome = []
        if gate.is_cx_gate():
            outcome.append("cx")
        elif gate.is_barrier():
            outcome.append("barrier")
        else:
            outcome.append("other")
        return outcome

    records = explorer.explore(runner)
    results = {tuple(record.result) for record in records}
    assert results == {("cx",), ("barrier",), ("other",)}


def test_decided_facts_are_consistent_within_a_path():
    session = VerificationSession()
    explorer = PathExplorer(session)

    def runner():
        gate = session.fresh_gate()
        first = bool(gate.is_cx_gate())
        second = bool(gate.is_cx_gate())
        return first == second

    records = explorer.explore(runner)
    assert all(record.result for record in records)


def test_name_knowledge_propagates_to_classification_facts():
    session = VerificationSession()
    explorer = PathExplorer(session)

    def runner():
        gate = session.fresh_gate()
        if gate.is_cx_gate():
            # These must be answered without new forks.
            return (bool(gate.is_two_qubit()), bool(gate.is_directive()), bool(gate.is_self_inverse()))
        return None

    records = explorer.explore(runner)
    cx_paths = [record for record in records if record.result is not None]
    assert cx_paths and all(record.result == (True, False, True) for record in cx_paths)
    # Only one decision (the is_cx fork) should have been recorded on that path.
    assert all(len(record.decisions) == 1 for record in cx_paths)


def test_session_knows_does_not_fork():
    session = VerificationSession()
    session.begin_path(())
    gate = session.fresh_gate()
    assert session.knows(Fact(F.IS_CX, (gate.uid,))) is None
    session.assume(Fact(F.IS_CX, (gate.uid,)))
    assert session.knows(Fact(F.IS_CX, (gate.uid,))) is True
    assert session.knows(Fact(F.IS_BARRIER, (gate.uid,))) is False
    session.end_path()


# --------------------------------------------------------------------------- #
# Loop templates (concrete behaviour)
# --------------------------------------------------------------------------- #
def test_iterate_all_gates_concrete():
    circuit = QCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)

    def body(output, gate):
        output.append(gate)
        if gate.name == "h":
            output.append(Gate("x", (0,)))

    result = iterate_all_gates(circuit, body)
    assert [g.name for g in result] == ["h", "x", "cx"]


def test_while_gate_remaining_concrete_and_progress_guard():
    circuit = QCircuit(1)
    circuit.x(0)
    circuit.x(0)

    def body(output, remain):
        output.append(remain[0])
        remain.delete(0)

    result = while_gate_remaining(circuit, body)
    assert result.size() == 2

    def stuck_body(output, remain):
        pass

    with pytest.raises(TranspilerError):
        while_gate_remaining(circuit, stuck_body)


# --------------------------------------------------------------------------- #
# Discharge
# --------------------------------------------------------------------------- #
def test_discharge_identical_and_concrete_sequences():
    goal = Subgoal("equivalence", "same", lhs=(Gate("h", (0,)),), rhs=(Gate("h", (0,)),))
    assert discharge(goal).proved
    cancel = Subgoal(
        "equivalence", "cx pair",
        lhs=(),
        rhs=(Gate("cx", (0, 1)), Gate("cx", (0, 1))),
    )
    assert discharge(cancel).proved
    wrong = Subgoal("equivalence", "different", lhs=(Gate("x", (0,)),), rhs=(Gate("h", (0,)),))
    assert not discharge(wrong).proved


def test_discharge_termination_and_unchanged():
    assert discharge(Subgoal("termination", "ok", metadata={"deleted": 1})).proved
    assert not discharge(Subgoal("termination", "stuck", metadata={"deleted": 0})).proved
    assert discharge(Subgoal("unchanged", "same", lhs=("a",), rhs=("a",))).proved
    assert not discharge(Subgoal("unchanged", "diff", lhs=("a",), rhs=("b",))).proved


def test_discharge_symbolic_cancellation_requires_justification():
    """Two symbolic gates only cancel when the facts say they are the same CX."""
    session = VerificationSession()
    session.begin_path(())
    first, second = session.fresh_gate(), session.fresh_gate()
    justified = Subgoal(
        "equivalence", "cancel", lhs=(), rhs=(first, second),
        path_facts=(
            (Fact(F.IS_CX, (first.uid,)), True),
            (Fact(F.IS_CX, (second.uid,)), True),
            (Fact(F.SAME_QUBITS, (first.uid, second.uid)), True),
        ),
    )
    assert discharge(justified).proved
    unjustified = Subgoal(
        "equivalence", "cancel", lhs=(), rhs=(first, second),
        path_facts=((Fact(F.IS_CX, (first.uid,)), True),),
    )
    assert not discharge(unjustified).proved
    session.end_path()


# --------------------------------------------------------------------------- #
# Preprocessor
# --------------------------------------------------------------------------- #
def test_analyze_pass_reports_templates_and_branches():
    from repro.passes import CXCancellation, Width
    from repro.passes.unsupported import StochasticSwap

    analysis = analyze_pass(CXCancellation)
    assert analysis.supported
    assert "while_gate_remaining" in analysis.templates_used
    assert "next_gate" in analysis.utilities_used
    assert analysis.branch_count >= 2
    assert analysis.lines_of_code > 5

    trivial = analyze_pass(Width)
    assert trivial.supported and trivial.branch_count == 0

    unsupported = analyze_pass(StochasticSwap)
    assert not unsupported.supported


def test_raw_loops_without_templates_are_rejected():
    class RawLoopPass(GeneralPass):
        def run(self, circuit):
            total = 0
            while total < 10:
                total += 1
            return circuit

    result = verify_pass(RawLoopPass)
    assert not result.supported


# --------------------------------------------------------------------------- #
# verify_pass end to end
# --------------------------------------------------------------------------- #
def test_verify_pass_accepts_the_identity_pass():
    class IdentityPass(GeneralPass):
        def run(self, circuit):
            return circuit

    result = verify_pass(IdentityPass)
    assert result.verified
    assert result.num_subgoals == 1


def test_verify_pass_rejects_a_gate_dropping_pass():
    class DropEverything(GeneralPass):
        def run(self, circuit):
            def body(output, remain):
                remain.delete(0)

            return while_gate_remaining(circuit, body)

    result = verify_pass(DropEverything)
    assert result.supported and not result.verified
    assert any("equivalence" in reason for reason in result.failure_reasons)


def test_verify_pass_rejects_a_gate_injecting_pass():
    class InjectHadamard(GeneralPass):
        def run(self, circuit):
            def body(output, gate):
                output.append(gate)
                output.append(Gate("h", (0,)))

            return iterate_all_gates(circuit, body)

    result = verify_pass(InjectHadamard)
    assert not result.verified


def test_verify_pass_unsupported_report_matches_paper_breakdown():
    from repro.passes import UNSUPPORTED_PASSES

    results = [verify_pass(cls) for cls in UNSUPPORTED_PASSES]
    assert len(results) == 12
    assert all(not result.supported for result in results)
