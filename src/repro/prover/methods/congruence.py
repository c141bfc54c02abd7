"""The solver-backed discharge method: facts → rules → register-term goal.

The general case of an ``equivalence`` obligation: both sides are encoded
as register-transformer terms, the facts on the path become quantified
rewrite rules (cancellation for gates known self-inverse, commutation for
segments known disjoint, equivalences granted by utility specifications),
and the resulting goal is handed to the selected
:class:`~repro.prover.backend.SolverBackend`.  The fact base, the encoder,
and the rule collection moved here verbatim from the seed
``verify/discharge.py``; what changed is the last line — ``Context.check``
became ``backend.check`` — which is the whole point of the pluggable
prover.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.circuit.gate import Gate
from repro.circuit.gates import gate_spec, is_known_gate, is_self_inverse
from repro.prover.backend import SolverBackend
from repro.prover.methods import DischargeResult
from repro.smt.terms import CIRCUIT, Rule, Term, eq, lit, var
from repro.symbolic.rules import apply_sequence, apply_term, cancellation_rule_for, gate_term
from repro.verify import facts as F
from repro.verify.facts import Fact
from repro.verify.session import Subgoal
from repro.verify.symvalues import Segment, SymGate

#: Display name each backend's verdicts carry in results and reports; the
#: builtin keeps the seed name so cached payloads and tests stay stable.
METHOD_NAMES = {
    "builtin": "congruence closure",
    "bounded": "bounded rewrite",
    "z3": "z3",
}


class FactBase:
    """Indexed view of the facts on a path, with simple derived knowledge."""

    def __init__(self, subgoal: Subgoal) -> None:
        self.true_facts: Set[Tuple] = set()
        self.false_facts: Set[Tuple] = set()
        self.segment_equivalences: List[Tuple[Tuple, Tuple]] = []
        self.known_names: Dict[str, str] = {}
        self.unconditioned: Set[str] = set()
        for fact, value in subgoal.path_facts:
            self._record(fact, value)
        for fact in subgoal.assumptions:
            if fact.kind == "not" and fact.args:
                self._record(fact.args[0], False)
            else:
                self._record(fact, True)

    def _record(self, fact: Fact, value: bool) -> None:
        key = (fact.kind,) + tuple(self._freeze(a) for a in fact.args)
        (self.true_facts if value else self.false_facts).add(key)
        if not value:
            if fact.kind == F.IS_CONDITIONED and fact.args:
                self.unconditioned.add(fact.args[0])
            return
        if fact.kind == F.NAME_IS:
            self.known_names[fact.args[0]] = fact.args[1]
        elif fact.kind == F.IS_CX:
            self.known_names[fact.args[0]] = "cx"
            self.unconditioned.add(fact.args[0])
        elif fact.kind == F.IS_SWAP:
            self.known_names[fact.args[0]] = "swap"
        elif fact.kind == F.IS_BARRIER:
            self.known_names[fact.args[0]] = "barrier"
        elif fact.kind == F.IS_MEASURE:
            self.known_names[fact.args[0]] = "measure"
        elif fact.kind == F.IS_RESET:
            self.known_names[fact.args[0]] = "reset"
        elif fact.kind == F.SEGMENT_EQUIVALENT_TO:
            lhs, rhs = fact.args
            lhs = lhs if isinstance(lhs, tuple) else (lhs,)
            rhs = rhs if isinstance(rhs, tuple) else (rhs,)
            self.segment_equivalences.append((lhs, rhs))

    @staticmethod
    def _freeze(value):
        if isinstance(value, (SymGate, Segment)):
            return value.uid
        if isinstance(value, tuple):
            return tuple(FactBase._freeze(v) for v in value)
        if isinstance(value, Gate):
            return ("gate", value.name, value.qubits, value.params)
        return value

    def holds(self, kind: str, *args) -> bool:
        return (kind,) + tuple(self._freeze(a) for a in args) in self.true_facts

    def holds_symmetric(self, kind: str, a, b) -> bool:
        return self.holds(kind, a, b) or self.holds(kind, b, a)

    def known_name(self, uid: str) -> Optional[str]:
        return self.known_names.get(uid)

    def is_unconditioned(self, uid: str) -> bool:
        return uid in self.unconditioned


class Encoder:
    """Encode circuit elements into register-transformer terms."""

    def __init__(self, facts: FactBase) -> None:
        self.facts = facts
        self._canonical: Dict[str, str] = {}

    # Union-find over symbolic gate uids forced equal by the facts.
    def _find(self, uid: str) -> str:
        root = uid
        while self._canonical.get(root, root) != root:
            root = self._canonical[root]
        self._canonical[uid] = root
        return root

    def unify(self, uid_a: str, uid_b: str) -> None:
        self._canonical[self._find(uid_a)] = self._find(uid_b)

    def identify_equal_gates(self, elements: Iterable) -> None:
        """Merge symbolic gates the facts prove to be the same gate."""
        symbolic = [e for e in elements if isinstance(e, SymGate)]
        for i, first in enumerate(symbolic):
            for second in symbolic[i + 1:]:
                if self.facts.holds_symmetric(F.SAME_GATE, first.uid, second.uid):
                    self.unify(first.uid, second.uid)
                    continue
                name_a = self.facts.known_name(first.uid)
                name_b = self.facts.known_name(second.uid)
                if (
                    name_a is not None
                    and name_a == name_b
                    and is_known_gate(name_a)
                    and gate_spec(name_a).num_params == 0
                    and self.facts.holds_symmetric(F.SAME_QUBITS, first.uid, second.uid)
                ):
                    self.unify(first.uid, second.uid)

    def encode(self, element) -> Term:
        if isinstance(element, Gate):
            return gate_term(element)
        if isinstance(element, SymGate):
            return lit(("symgate", self._find(element.uid)), "Gate")
        if isinstance(element, Segment):
            return lit(("segment", element.uid), "Segment")
        raise TypeError(f"cannot encode circuit element {element!r}")

    def encode_sequence(self, elements: Sequence) -> List[Term]:
        out = []
        for element in elements:
            if isinstance(element, Gate) and element.is_barrier():
                continue
            if isinstance(element, SymGate) and self.facts.known_name(element.uid) == "barrier":
                continue
            out.append(self.encode(element))
        return out


def collect_rules(encoder: Encoder, facts: FactBase, elements: Sequence) -> List[Rule]:
    """Turn the path facts into quantified rewrite rules over the register."""
    register = var("Q", CIRCUIT)
    rules: List[Rule] = []
    seen_rule_keys = set()

    def add_rule(rule: Rule) -> None:
        key = (repr(rule.lhs), repr(rule.rhs))
        if key not in seen_rule_keys:
            seen_rule_keys.add(key)
            rules.append(rule)

    # Cancellation rules for elements known to be self-inverse and unconditioned.
    for element in elements:
        if isinstance(element, Gate):
            rule = cancellation_rule_for(element)
            if rule is not None:
                add_rule(rule)
        elif isinstance(element, SymGate):
            name = facts.known_name(element.uid)
            known_self_inverse = (
                name is not None and is_known_gate(name) and is_self_inverse(name)
            ) or facts.holds(F.IS_SELF_INVERSE, element.uid)
            unconditioned = (
                facts.is_unconditioned(element.uid) or name in ("cx",)
            )
            if known_self_inverse and unconditioned:
                encoded = encoder.encode(element)
                add_rule(
                    Rule(
                        f"cancel_sym_{element.uid}",
                        apply_term(encoded, apply_term(encoded, register)),
                        register,
                    )
                )

    # Segment commutation granted by specifications (e.g. next_gate clause 3).
    for element in elements:
        if not isinstance(element, Segment):
            continue
        for other in elements:
            if isinstance(other, (SymGate, Gate)):
                other_key = other.uid if isinstance(other, SymGate) else None
                if other_key is not None and facts.holds(
                    F.SEGMENT_COMMUTES_WITH, element.uid, other_key
                ):
                    seg_term = encoder.encode(element)
                    gate_encoded = encoder.encode(other)
                    # Both orientations: proofs need to float the gate either
                    # side of the segment depending on where the partner sits.
                    add_rule(
                        Rule(
                            f"segment_commute_{element.uid}_{other_key}",
                            apply_term(gate_encoded, apply_term(seg_term, register)),
                            apply_term(seg_term, apply_term(gate_encoded, register)),
                        )
                    )
                    add_rule(
                        Rule(
                            f"segment_commute_rev_{element.uid}_{other_key}",
                            apply_term(seg_term, apply_term(gate_encoded, register)),
                            apply_term(gate_encoded, apply_term(seg_term, register)),
                        )
                    )

    # Explicit commutation facts between gates.
    gate_like = [e for e in elements if isinstance(e, (Gate, SymGate))]
    for i, first in enumerate(gate_like):
        for second in gate_like[i + 1:]:
            key_a = first.uid if isinstance(first, SymGate) else None
            key_b = second.uid if isinstance(second, SymGate) else None
            if key_a is None or key_b is None:
                continue
            if facts.holds_symmetric(F.COMMUTES, key_a, key_b):
                term_a, term_b = encoder.encode(first), encoder.encode(second)
                add_rule(
                    Rule(
                        f"commute_{key_a}_{key_b}",
                        apply_term(term_b, apply_term(term_a, register)),
                        apply_term(term_a, apply_term(term_b, register)),
                    )
                )
                add_rule(
                    Rule(
                        f"commute_rev_{key_a}_{key_b}",
                        apply_term(term_a, apply_term(term_b, register)),
                        apply_term(term_b, apply_term(term_a, register)),
                    )
                )

    # Equivalences granted by specifications (merge, decomposition, refinement).
    for lhs_elements, rhs_elements in facts.segment_equivalences:
        lhs_terms = encoder.encode_sequence(lhs_elements)
        rhs_terms = encoder.encode_sequence(rhs_elements)
        # The trigger is the left-hand side; the facts are oriented so that
        # the "old" (pre-refinement / pre-transformation) shape is on the
        # left, which is the shape that occurs in the proof goals.
        add_rule(
            Rule(
                "spec_equivalence",
                apply_sequence(lhs_terms, register),
                apply_sequence(rhs_terms, register),
            )
        )

    return rules


def discharge_with_backend(
    subgoal: Subgoal,
    backend: SolverBackend,
    restrict_rules: Optional[Sequence[str]] = None,
) -> DischargeResult:
    """Encode the equivalence obligation and hand it to ``backend``.

    ``restrict_rules`` (certificate replay) narrows the collected rule set
    to the named rules before solving — names are compared under the
    subgoal's canonical uid renaming, the form certificates record them in
    — while the reported ``rules_used`` always lists what was actually
    given to the backend.
    """
    facts = FactBase(subgoal)
    encoder = Encoder(facts)
    fact_elements = []
    for lhs_elems, rhs_elems in facts.segment_equivalences:
        fact_elements.extend(lhs_elems)
        fact_elements.extend(rhs_elems)
    all_elements = list(subgoal.lhs) + list(subgoal.rhs) + fact_elements
    encoder.identify_equal_gates(all_elements)
    rules = collect_rules(encoder, facts, all_elements)
    if restrict_rules is not None:
        from repro.engine.fingerprint import rename_rule_uids, subgoal_uid_map

        mapping = subgoal_uid_map(subgoal)
        allowed = set(restrict_rules)
        rules = [rule for rule in rules
                 if rename_rule_uids(rule.name, mapping) in allowed]

    register = var("Q0", CIRCUIT)
    goal = eq(
        apply_sequence(encoder.encode_sequence(list(subgoal.lhs)), register),
        apply_sequence(encoder.encode_sequence(list(subgoal.rhs)), register),
    )
    result = backend.check(goal, rules)
    return DischargeResult(
        result.proved,
        METHOD_NAMES.get(backend.name, backend.name),
        result.reason,
        rules_used=tuple(rule.name for rule in rules),
        instantiations=result.instantiations,
        rules_fired=tuple(result.rules_fired),
    )
