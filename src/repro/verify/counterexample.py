"""Counterexample generation and confirmation for failed subgoals.

When the verifier cannot discharge a subgoal it tries to produce a concrete
input circuit on which the pass misbehaves (the push-button feedback of
Section 1).  Candidate circuits come from three sources: a concretisation of
the failing subgoal's symbolic window, a hint provided by the pass (used by
the Section 7 case studies), and a small random search.  A candidate is
*confirmed* by running the pass for real and comparing semantics with the
dense-matrix oracle; circuits with classically conditioned gates are compared
case by case over the possible classical-bit values.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.circuit.circuit import QCircuit
from repro.circuit.gate import Gate
from repro.circuit.gates import gate_spec, is_known_gate
from repro.errors import ReproError, TranspilerError
from repro.linalg.unitary import circuit_unitary, allclose_up_to_global_phase
from repro.symbolic.equivalence import strip_final_measurements
from repro.verify import facts as F
from repro.verify.results import CounterExample
from repro.verify.session import Subgoal
from repro.verify.symvalues import Segment, SymGate

if TYPE_CHECKING:
    import numpy as np


# --------------------------------------------------------------------------- #
# Conditioned-circuit semantics
# --------------------------------------------------------------------------- #
def _condition_clbits(circuit: QCircuit) -> List[int]:
    bits = sorted({g.condition[0] for g in circuit if g.condition is not None})
    return bits


def _unitary_under_assignment(circuit: QCircuit, assignment: Dict[int, int]) -> np.ndarray:
    """Unitary of the circuit when classical bits take the given values."""
    projected = QCircuit(circuit.num_qubits, circuit.num_clbits)
    for gate in circuit:
        if gate.is_measurement() or gate.is_barrier():
            continue
        if gate.condition is not None:
            clbit, value = gate.condition
            if assignment.get(clbit, 0) != value:
                continue
            gate = gate.replace(condition=None)
        projected.append(gate)
    return circuit_unitary(projected)


def conditional_circuits_equivalent(left: QCircuit, right: QCircuit, atol: float = 1e-8) -> bool:
    """Semantic equivalence for circuits that may contain ``c_if`` gates.

    The circuits must agree for *every* value of the classical bits that
    appear in conditions (a compiler cannot assume anything about them).
    Final measurements are ignored on both sides.
    """
    left = QCircuit(max(left.num_qubits, right.num_qubits), left.num_clbits,
                    gates=strip_final_measurements(left.gates))
    right = QCircuit(max(left.num_qubits, right.num_qubits), right.num_clbits,
                     gates=strip_final_measurements(right.gates))
    bits = sorted(set(_condition_clbits(left)) | set(_condition_clbits(right)))
    if not bits:
        return allclose_up_to_global_phase(circuit_unitary(left), circuit_unitary(right), atol)
    for values in itertools.product((0, 1), repeat=len(bits)):
        assignment = dict(zip(bits, values))
        u_left = _unitary_under_assignment(left, assignment)
        u_right = _unitary_under_assignment(right, assignment)
        if not allclose_up_to_global_phase(u_left, u_right, atol):
            return False
    return True


# --------------------------------------------------------------------------- #
# Concretisation of a failing subgoal
# --------------------------------------------------------------------------- #
def _facts_for(subgoal: Subgoal, uid: str) -> Dict[str, object]:
    """Summarise what the path facts say about one symbolic gate."""
    info: Dict[str, object] = {"name": None, "names": None, "conditioned": None}
    for fact, value in subgoal.path_facts:
        if not fact.args or fact.args[0] != uid:
            continue
        if fact.kind == F.NAME_IS and value:
            info["name"] = fact.args[1]
        elif fact.kind == F.NAME_IN and value:
            info["names"] = fact.args[1]
        elif fact.kind == F.IS_CX and value:
            info["name"] = "cx"
        elif fact.kind == F.IS_CONDITIONED:
            info["conditioned"] = value
    return info


def concretize_window(subgoal: Subgoal) -> Optional[QCircuit]:
    """Build a small concrete circuit realising the subgoal's symbolic window."""
    gates: List[Gate] = []
    sym_qubit = 0
    for element in subgoal.rhs or subgoal.lhs:
        if isinstance(element, Gate):
            gates.append(element)
            continue
        if isinstance(element, Segment):
            continue
        if isinstance(element, SymGate):
            info = _facts_for(subgoal, element.uid)
            name = info["name"]
            if name is None and info["names"]:
                name = sorted(info["names"])[0]
            if name is None:
                name = "h"
            if not is_known_gate(name):
                return None
            spec = gate_spec(name)
            qubits = tuple(range(sym_qubit, sym_qubit + spec.num_qubits))
            params = tuple(0.4 + 0.3 * i for i in range(spec.num_params))
            gate = Gate(name, qubits, params)
            # A gate whose conditioned-ness the pass never established is the
            # interesting case: make it conditioned to try to expose the bug.
            if info["conditioned"] is not False:
                gate = gate.c_if(0, 1)
            gates.append(gate)
    if not gates:
        return None
    circuit = QCircuit(gates=gates, name="concretized_window")
    return circuit


# --------------------------------------------------------------------------- #
# Confirmation
# --------------------------------------------------------------------------- #
def confirm_counterexample(pass_class, candidate: QCircuit, **pass_kwargs) -> Optional[CounterExample]:
    """Run the pass on a candidate circuit and check semantic preservation."""
    instance = pass_class(**pass_kwargs)
    try:
        output = instance(candidate.copy())
    except TranspilerError as exc:
        return CounterExample(
            kind="non_termination",
            description=f"{pass_class.__name__} aborted: {exc}",
            input_circuit=candidate,
            confirmed=True,
            details={"error": str(exc)},
        )
    except ReproError as exc:
        return CounterExample(
            kind="crash",
            description=f"{pass_class.__name__} raised {type(exc).__name__}: {exc}",
            input_circuit=candidate,
            confirmed=True,
            details={"error": str(exc)},
        )
    if output is None or not isinstance(output, QCircuit):
        return None
    try:
        if getattr(instance, "pass_type", "") == "routing":
            from repro.symbolic.equivalence import equivalent_up_to_swaps

            report = equivalent_up_to_swaps(
                candidate.gates, output.gates, max(candidate.num_qubits, output.num_qubits)
            )
            if report.equivalent:
                return None
        elif conditional_circuits_equivalent(candidate, output):
            return None
    except ReproError:
        return None
    return CounterExample(
        kind="semantics",
        description=f"{pass_class.__name__} changed the semantics of the input circuit",
        input_circuit=candidate,
        output_circuit=output,
        confirmed=True,
    )


#: Seed for the random-search fallback when no explicit ``rng`` is given.
#: A fixed constant — never the global :mod:`random` state — so the same
#: failing pass yields the same candidates (and therefore the same
#: confirmed counterexample) in every process, under pytest-xdist, and
#: when a fuzz corpus entry is replayed.
DEFAULT_SEARCH_SEED = 0x617A

#: Candidate budget for the random-search fallback.  Candidates are small
#: (<= 4 qubits) because confirmation builds dense unitaries.
DEFAULT_RANDOM_TRIALS = 6


def _random_candidates(rng, trials: int) -> List[QCircuit]:
    """Small random candidate circuits, biased toward condition bugs.

    Every draw comes from ``rng`` — the global :mod:`random` module is
    never touched, so interleaving with other consumers (parallel test
    workers, the fuzz campaign) cannot perturb the candidate sequence.
    """
    from repro.circuit.random import random_circuit

    candidates: List[QCircuit] = []
    for trial in range(trials):
        num_qubits = 2 + rng.randrange(3)
        num_gates = 3 + rng.randrange(6)
        candidates.append(random_circuit(
            num_qubits, num_gates, seed=rng.getrandbits(32),
            num_clbits=1, p_conditioned=0.35 if trial % 2 else 0.0,
        ))
    return candidates


def search_counterexample(
    pass_class,
    failing_subgoals: Sequence[Subgoal],
    hint: Optional[QCircuit] = None,
    rng=None,
    random_trials: int = DEFAULT_RANDOM_TRIALS,
    **pass_kwargs,
) -> Optional[CounterExample]:
    """Try to confirm a counterexample from the failing subgoals.

    Candidates are tried in order: the pass's hint, a concretisation of
    each failing subgoal's symbolic window, then ``random_trials`` small
    random circuits drawn from ``rng`` (a :class:`random.Random`; a fixed
    default seed is used when omitted, so confirmations are reproducible
    everywhere — the search never reads or re-seeds global random state).
    """
    import random as random_module

    candidates: List[QCircuit] = []
    if hint is not None:
        candidates.append(hint)
    for subgoal in failing_subgoals:
        window = concretize_window(subgoal)
        if window is not None:
            candidates.append(window)
    if random_trials > 0:
        if rng is None:
            rng = random_module.Random(DEFAULT_SEARCH_SEED)
        candidates.extend(_random_candidates(rng, random_trials))
    for candidate in candidates:
        found = confirm_counterexample(pass_class, candidate, **pass_kwargs)
        if found is not None:
            return found
    return None
