"""The rewrite-rule set for quantum circuits (Figure 7 of the paper).

Rules exist at two levels:

* :class:`CircuitRule` — a declarative description of one rewrite
  (``pattern`` circuit is equivalent to ``replacement`` circuit), grouped into
  the paper's three classes (cancellation, commutativity, swap).  These are
  the objects the soundness checker validates against the dense-matrix
  semantics and the usage-accounting benchmark (Section 8, "Reusability")
  counts.
* register-level SMT rules — quantified equations over an abstract register
  term, produced by :func:`register_rules_for` and consumed by the
  congruence-closure solver when a proof obligation mixes concrete gates with
  abstract circuit segments (exactly the shape of the CXCancellation goal in
  Section 6).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuit.gate import Gate
from repro.circuit.gates import is_self_inverse
from repro.smt.terms import CIRCUIT, Rule, Term, app, lit, var

#: Rule classes used for the reusability accounting of Section 8.
CANCELLATION = "cancellation"
COMMUTATIVITY = "commutativity"
SWAP = "swap"
MERGE = "merge"


class CircuitRule:
    """One equivalence ``lhs == rhs`` between two small concrete circuits.
    Immutable, compared and hashed by its fields."""

    def __init__(self, name: str, kind: str, lhs: Tuple[Gate, ...],
                 rhs: Tuple[Gate, ...], num_qubits: int,
                 description: str = "") -> None:
        # ``__setattr__`` refuses every assignment, so fill ``__dict__``.
        vars(self).update(name=name, kind=kind, lhs=lhs, rhs=rhs,
                          num_qubits=num_qubits, description=description)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


def _g(name: str, *qubits: int, params: Tuple[float, ...] = ()) -> Gate:
    return Gate(name, qubits, params)


def default_circuit_rules() -> List[CircuitRule]:
    """The rule set shipped with the verifier (20 rules, as in the paper)."""
    theta = 0.731  # arbitrary sample angle used by the numeric soundness check
    rules: List[CircuitRule] = [
        # --- cancellation rules -------------------------------------------------
        CircuitRule("cx_cancel", CANCELLATION, (_g("cx", 0, 1), _g("cx", 0, 1)), (), 2,
                    "two adjacent CNOTs on the same pair cancel"),
        CircuitRule("h_cancel", CANCELLATION, (_g("h", 0), _g("h", 0)), (), 1,
                    "H is self-inverse"),
        CircuitRule("x_cancel", CANCELLATION, (_g("x", 0), _g("x", 0)), (), 1,
                    "X is self-inverse"),
        CircuitRule("z_cancel", CANCELLATION, (_g("z", 0), _g("z", 0)), (), 1,
                    "Z is self-inverse"),
        CircuitRule("y_cancel", CANCELLATION, (_g("y", 0), _g("y", 0)), (), 1,
                    "Y is self-inverse"),
        CircuitRule("cz_cancel", CANCELLATION, (_g("cz", 0, 1), _g("cz", 0, 1)), (), 2,
                    "CZ is self-inverse"),
        CircuitRule("swap_cancel", CANCELLATION, (_g("swap", 0, 1), _g("swap", 0, 1)), (), 2,
                    "SWAP is self-inverse"),
        CircuitRule("ccx_cancel", CANCELLATION, (_g("ccx", 0, 1, 2), _g("ccx", 0, 1, 2)), (), 3,
                    "Toffoli is self-inverse"),
        CircuitRule("s_sdg_cancel", CANCELLATION, (_g("s", 0), _g("sdg", 0)), (), 1,
                    "S ; Sdg is the identity"),
        CircuitRule("t_tdg_cancel", CANCELLATION, (_g("t", 0), _g("tdg", 0)), (), 1,
                    "T ; Tdg is the identity"),
        CircuitRule("ecr_cancel", CANCELLATION, (_g("ecr", 0, 1), _g("ecr", 0, 1)), (), 2,
                    "ECR is self-inverse (added for Qiskit 0.32 passes)"),
        # --- commutativity rules ------------------------------------------------
        CircuitRule("z_commutes_cx_control", COMMUTATIVITY,
                    (_g("z", 0), _g("cx", 0, 1)), (_g("cx", 0, 1), _g("z", 0)), 2,
                    "a Z-basis gate commutes through the control of a CNOT"),
        CircuitRule("rz_commutes_cx_control", COMMUTATIVITY,
                    (_g("rz", 0, params=(theta,)), _g("cx", 0, 1)),
                    (_g("cx", 0, 1), _g("rz", 0, params=(theta,))), 2,
                    "Rz commutes through the control of a CNOT"),
        CircuitRule("x_commutes_cx_target", COMMUTATIVITY,
                    (_g("x", 1), _g("cx", 0, 1)), (_g("cx", 0, 1), _g("x", 1)), 2,
                    "an X-basis gate commutes through the target of a CNOT"),
        CircuitRule("cx_same_control_commute", COMMUTATIVITY,
                    (_g("cx", 0, 1), _g("cx", 0, 2)), (_g("cx", 0, 2), _g("cx", 0, 1)), 3,
                    "CNOTs sharing only their control commute"),
        CircuitRule("cx_same_target_commute", COMMUTATIVITY,
                    (_g("cx", 0, 2), _g("cx", 1, 2)), (_g("cx", 1, 2), _g("cx", 0, 2)), 3,
                    "CNOTs sharing only their target commute"),
        CircuitRule("disjoint_commute", COMMUTATIVITY,
                    (_g("h", 0), _g("x", 1)), (_g("x", 1), _g("h", 0)), 2,
                    "gates on disjoint qubits commute"),
        CircuitRule("diagonal_commute", COMMUTATIVITY,
                    (_g("t", 0), _g("cz", 0, 1)), (_g("cz", 0, 1), _g("t", 0)), 2,
                    "diagonal gates commute with each other"),
        # --- swap rules ---------------------------------------------------------
        CircuitRule("swap_relabel_1q", SWAP,
                    (_g("swap", 0, 1), _g("h", 0)), (_g("h", 1), _g("swap", 0, 1)), 2,
                    "a SWAP relabels the qubit a later 1-qubit gate acts on"),
        CircuitRule("swap_relabel_2q", SWAP,
                    (_g("swap", 1, 2), _g("cx", 0, 1)), (_g("cx", 0, 2), _g("swap", 1, 2)), 3,
                    "a SWAP relabels the qubits a later 2-qubit gate acts on"),
        CircuitRule("swap_symmetric", SWAP,
                    (_g("swap", 0, 1),), (_g("swap", 1, 0),), 2,
                    "SWAP is symmetric in its operands"),
        # --- merge rules --------------------------------------------------------
        CircuitRule("u1_merge", MERGE,
                    (_g("u1", 0, params=(0.4,)), _g("u1", 0, params=(0.7,))),
                    (_g("u1", 0, params=(1.1,)),), 1,
                    "adjacent u1 rotations add their angles (Table 1 merge)"),
        CircuitRule("rz_merge", MERGE,
                    (_g("rz", 0, params=(0.4,)), _g("rz", 0, params=(0.7,))),
                    (_g("rz", 0, params=(1.1,)),), 1,
                    "adjacent Rz rotations add their angles"),
    ]
    return rules


#: Gate names with a cancellation rule, used for the reusability accounting.
CANCELLATION_GATES = frozenset(
    {"cx", "h", "x", "y", "z", "cz", "swap", "ccx", "ecr", "s", "sdg", "t", "tdg"}
)


# --------------------------------------------------------------------------- #
# Register-level SMT rules
# --------------------------------------------------------------------------- #
def gate_term(gate: Gate) -> Term:
    """Encode a concrete gate as a term literal (name, params, qubits)."""
    return lit(
        (gate.name, tuple(round(p, 12) for p in gate.params), gate.qubits,
         gate.condition, gate.q_controls),
        "Gate",
    )


def apply_term(gate_or_segment: Term, register: Term) -> Term:
    """``apply(g, Q)``: the register after applying a gate or opaque segment."""
    return app("apply", gate_or_segment, register, sort=CIRCUIT)


def segment_term(name: str) -> Term:
    """An opaque circuit segment (an unknown sub-circuit such as C1, C2)."""
    return lit(("segment", name), "Segment")


def apply_sequence(elements: Sequence[Term], register: Term) -> Term:
    """Fold :func:`apply_term` over a sequence of gate/segment terms."""
    state = register
    for element in elements:
        state = apply_term(element, state)
    return state


def cancellation_rule_for(gate: Gate) -> Optional[Rule]:
    """Quantified register rule ``apply(g, apply(g, Q)) = Q`` when sound."""
    if gate.is_conditioned() or not is_self_inverse(gate.name):
        return None
    register = var("Q", CIRCUIT)
    encoded = gate_term(gate)
    return Rule(
        f"cancel_{gate.name}_{'_'.join(map(str, gate.qubits))}",
        apply_term(encoded, apply_term(encoded, register)),
        register,
    )


def commutation_rule_for(first: Gate, second: Gate) -> Rule:
    """Quantified rule ``apply(b, apply(a, Q)) = apply(a, apply(b, Q))``.

    The caller is responsible for only creating this for pairs that really
    commute (e.g. justified by :func:`repro.symbolic.commutation.gates_commute`
    or by a utility-function specification such as ``next_gate``'s).
    """
    register = var("Q", CIRCUIT)
    term_a, term_b = gate_term(first), gate_term(second)
    return Rule(
        f"commute_{first.name}_{second.name}",
        apply_term(term_b, apply_term(term_a, register)),
        apply_term(term_a, apply_term(term_b, register)),
    )


def segment_commutation_rule(segment_name: str, gate: Gate) -> Rule:
    """Quantified rule: an opaque segment commutes with a specific gate.

    This is precondition ``P6`` of Section 6: the ``next_gate`` specification
    guarantees no gate inside the segment shares a qubit with ``gate``.
    """
    register = var("Q", CIRCUIT)
    segment = segment_term(segment_name)
    encoded = gate_term(gate)
    return Rule(
        f"segment_commute_{segment_name}_{gate.name}",
        apply_term(encoded, apply_term(segment, register)),
        apply_term(segment, apply_term(encoded, register)),
    )
