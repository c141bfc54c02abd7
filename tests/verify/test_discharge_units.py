"""Unit tests for the subgoal discharge engine (Section 6's back end)."""

import pytest

from repro.circuit import Gate
from repro.verify import Fact, Subgoal, VerificationSession
from repro.verify import facts as F
from repro.verify.discharge import discharge


@pytest.fixture
def session():
    return VerificationSession()


def _subgoal(kind, lhs=(), rhs=(), path_facts=(), metadata=None, description="test"):
    return Subgoal(
        kind=kind,
        description=description,
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        path_facts=tuple(path_facts),
        metadata=dict(metadata or {}),
    )


# --------------------------------------------------------------------------- #
# Structural subgoal kinds
# --------------------------------------------------------------------------- #
def test_unchanged_subgoal_requires_syntactic_identity(session):
    segment = session.fresh_segment("input")
    same = _subgoal("unchanged", lhs=(segment,), rhs=(segment,))
    assert discharge(same).proved
    extra = _subgoal("unchanged", lhs=(segment, Gate("x", (0,))), rhs=(segment,))
    result = discharge(extra)
    assert not result.proved
    assert result.method == "identical"


def test_termination_subgoal_accepts_deletions_and_progress_arguments():
    assert discharge(_subgoal("termination", metadata={"deleted": 1})).proved
    assert discharge(_subgoal("termination", metadata={"deleted": 3})).proved
    assert discharge(
        _subgoal("termination", metadata={"progress_argument": "total distance decreases"})
    ).proved
    assert not discharge(_subgoal("termination", metadata={"deleted": 0})).proved
    assert not discharge(_subgoal("termination")).proved


def test_coupling_subgoal_relies_on_the_routing_template():
    assert discharge(
        _subgoal("coupling", metadata={"adjacency_enforced_by_template": True})
    ).proved
    assert not discharge(_subgoal("coupling")).proved


def test_routing_equivalence_subgoal_relies_on_the_template_structure():
    assert discharge(
        _subgoal("equivalence_up_to_swaps", metadata={"template": "route_each_gate"})
    ).proved
    assert not discharge(_subgoal("equivalence_up_to_swaps")).proved


def test_layout_permutation_subgoal_is_a_library_lemma():
    assert discharge(_subgoal("layout_permutation")).proved


def test_unknown_subgoal_kinds_are_never_proved():
    result = discharge(_subgoal("frobnicate"))
    assert not result.proved
    assert result.method == "unknown"


# --------------------------------------------------------------------------- #
# Equivalence over concrete gate sequences (the sequence engine)
# --------------------------------------------------------------------------- #
def test_identical_sequences_are_trivially_equivalent():
    gates = (Gate("h", (0,)), Gate("cx", (0, 1)))
    result = discharge(_subgoal("equivalence", lhs=gates, rhs=gates))
    assert result.proved
    assert result.method == "identical"


def test_concrete_cancellation_is_proved_by_the_sequence_engine():
    result = discharge(
        _subgoal("equivalence", lhs=(Gate("cx", (0, 1)), Gate("cx", (0, 1))), rhs=())
    )
    assert result.proved
    assert result.method == "sequence engine"


def test_concrete_difference_is_rejected():
    result = discharge(_subgoal("equivalence", lhs=(Gate("h", (0,)),), rhs=(Gate("x", (0,)),)))
    assert not result.proved


def test_final_measurements_can_be_ignored_when_the_obligation_says_so():
    lhs = (Gate("h", (0,)), Gate("measure", (0,), clbits=(0,)))
    rhs = (Gate("h", (0,)),)
    strict = _subgoal("equivalence", lhs=lhs, rhs=rhs)
    relaxed = _subgoal("equivalence", lhs=lhs, rhs=rhs,
                       metadata={"ignore_final_measurements": True})
    assert not discharge(strict).proved
    assert discharge(relaxed).proved


def test_initial_resets_can_be_dropped_under_the_zero_state_assumption():
    lhs = (Gate("reset", (0,)), Gate("h", (0,)))
    rhs = (Gate("h", (0,)),)
    relaxed = _subgoal("equivalence", lhs=lhs, rhs=rhs,
                       metadata={"assume_zero_initial_state": True})
    assert discharge(relaxed).proved


# --------------------------------------------------------------------------- #
# Equivalence over symbolic gates (facts -> rewrite rules -> congruence)
# --------------------------------------------------------------------------- #
def test_symbolic_cx_pair_cancels_when_the_facts_support_it(session):
    first, second = session.fresh_gate("a"), session.fresh_gate("b")
    facts = [
        (Fact(F.IS_CX, (first.uid,)), True),
        (Fact(F.IS_CX, (second.uid,)), True),
        (Fact(F.SAME_QUBITS, (first.uid, second.uid)), True),
    ]
    proved = discharge(_subgoal("equivalence", lhs=(first, second), rhs=(), path_facts=facts))
    assert proved.proved
    assert proved.method == "congruence closure"
    assert any("cancel" in rule for rule in proved.rules_used)


def test_symbolic_cx_pair_does_not_cancel_without_same_qubits(session):
    first, second = session.fresh_gate("a"), session.fresh_gate("b")
    facts = [
        (Fact(F.IS_CX, (first.uid,)), True),
        (Fact(F.IS_CX, (second.uid,)), True),
    ]
    assert not discharge(
        _subgoal("equivalence", lhs=(first, second), rhs=(), path_facts=facts)
    ).proved


def test_symbolic_hadamard_pair_needs_the_unconditioned_fact(session):
    first, second = session.fresh_gate("a"), session.fresh_gate("b")
    base_facts = [
        (Fact(F.NAME_IS, (first.uid, "h")), True),
        (Fact(F.NAME_IS, (second.uid, "h")), True),
        (Fact(F.SAME_QUBITS, (first.uid, second.uid)), True),
    ]
    without_condition_checks = discharge(
        _subgoal("equivalence", lhs=(first, second), rhs=(), path_facts=base_facts)
    )
    assert not without_condition_checks.proved

    facts = base_facts + [
        (Fact(F.IS_CONDITIONED, (first.uid,)), False),
        (Fact(F.IS_CONDITIONED, (second.uid,)), False),
    ]
    assert discharge(
        _subgoal("equivalence", lhs=(first, second), rhs=(), path_facts=facts)
    ).proved


def test_symbolic_barriers_are_ignored_in_equivalence_goals(session):
    barrier = session.fresh_gate("b")
    facts = [(Fact(F.IS_BARRIER, (barrier.uid,)), True)]
    assert discharge(
        _subgoal("equivalence", lhs=(barrier,), rhs=(), path_facts=facts)
    ).proved


def test_segment_equivalence_assumptions_are_usable_as_rewrites(session):
    original = session.fresh_segment("original tail")
    refined = session.fresh_segment("refined tail")
    facts = [(Fact(F.SEGMENT_EQUIVALENT_TO, ((original,), (refined,))), True)]
    assert discharge(
        _subgoal("equivalence", lhs=(original,), rhs=(refined,), path_facts=facts)
    ).proved
