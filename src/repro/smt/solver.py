"""The assume/check context: a small push-button prover.

This plays the role Z3Py plays in the paper (Section 2.4): the verifier adds
facts with :meth:`Context.assume` and discharges proof goals with
:meth:`Context.check`.  Supported goals are conjunctions of equalities and
disequalities over uninterpreted terms, decided by congruence closure plus
bounded instantiation of universally quantified rewrite rules.  When a goal
cannot be proven the result carries the offending atom, which the verifier
turns into a concrete counterexample circuit.

Every check runs one procedure: a fresh
:class:`~repro.smt.congruence.CongruenceClosure` is loaded with the
assumptions and instantiated through the operator-indexed
:class:`~repro.prover.rulebase.RuleBase`; the reference linear scan
(:func:`repro.smt.ematch.instantiate_rules`) is the rulebase's test oracle
and micro-bench baseline.  The fact-loading and atom-proving halves are
module-level functions (:func:`load_fact`, :func:`prove_atom`) so
alternative solver backends (:mod:`repro.prover`) share one definition of
what an assumption or a goal atom *means*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import SolverError
from repro.smt.congruence import CongruenceClosure
from repro.smt.terms import Rule, Term, eq


@dataclass
class CheckResult:
    """Outcome of a single :meth:`Context.check` call."""

    proved: bool
    goal: Term
    reason: str = ""
    instantiations: int = 0
    failed_atom: Optional[Term] = None
    #: Names of the rules that actually fired during instantiation.
    rules_fired: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.proved


def load_fact(closure: CongruenceClosure, fact: Term) -> None:
    """Assert one boolean fact (equality, disequality, conjunction)."""
    if fact.op == "and":
        for sub in fact.args:
            load_fact(closure, sub)
    elif fact.op == "=":
        closure.merge(fact.args[0], fact.args[1])
    elif fact.op == "not" and fact.args and fact.args[0].op == "=":
        inner = fact.args[0]
        closure.assert_disequal(inner.args[0], inner.args[1])
    elif fact.op == "lit" and fact.payload is True:
        pass
    else:
        # Opaque boolean atoms are recorded as "atom = true".
        closure.merge(fact, Term("lit", (), "Bool", True))


def prove_atom(closure: CongruenceClosure, atom: Term) -> bool:
    """Is one goal atom derivable from the closure's current state?"""
    if atom.op == "=":
        return closure.equal(atom.args[0], atom.args[1])
    if atom.op == "not" and atom.args and atom.args[0].op == "=":
        inner = atom.args[0]
        # Proven different only if merging them would contradict a
        # literal distinction; conservative otherwise.
        left, right = inner.args
        if closure.equal(left, right):
            return False
        both_literals = left.is_literal() and right.is_literal()
        return both_literals and left.payload != right.payload
    if atom.op == "lit":
        return bool(atom.payload)
    return closure.equal(atom, Term("lit", (), "Bool", True))


def goal_atoms(goal: Term) -> List[Term]:
    """The conjuncts of a goal (a single atom is its own conjunction)."""
    return list(goal.args) if goal.op == "and" else [goal]


class Context:
    """A logical context with assumptions, rewrite rules, and check support."""

    def __init__(self, rules: Sequence[Rule] = (), max_rounds: int = 4) -> None:
        self._assumptions: List[Term] = []
        self._rules: List[Rule] = list(rules)
        self._max_rounds = max_rounds
        self._frames: List[int] = []

    # ------------------------------------------------------------------ #
    # Assumption management
    # ------------------------------------------------------------------ #
    def assume(self, fact: Term) -> None:
        """Add a boolean fact (equality, disequality, or conjunction)."""
        self._assumptions.append(fact)

    def assume_equal(self, left: Term, right: Term) -> None:
        self.assume(eq(left, right))

    def add_rule(self, rule: Rule) -> None:
        """Add a universally quantified equation usable during checks."""
        self._rules.append(rule)

    @property
    def assumptions(self) -> Tuple[Term, ...]:
        return tuple(self._assumptions)

    @property
    def rules(self) -> Tuple[Rule, ...]:
        return tuple(self._rules)

    def push(self) -> None:
        """Start a scope; assumptions added after this call can be popped."""
        self._frames.append(len(self._assumptions))

    def pop(self) -> None:
        """Discard every assumption added since the matching :meth:`push`."""
        if not self._frames:
            raise SolverError("pop() without a matching push()")
        size = self._frames.pop()
        del self._assumptions[size:]

    # ------------------------------------------------------------------ #
    # Checking
    # ------------------------------------------------------------------ #
    def check(self, goal: Term, extra_rules: Sequence[Rule] = ()) -> CheckResult:
        """Try to prove ``goal`` from the assumptions and rewrite rules.

        ``goal`` may be an equality, a disequality, or a conjunction of
        those.  The procedure is sound but incomplete: a ``proved=False``
        result means "not provable within the instantiation bound", which the
        verifier treats as a potential bug and investigates by concretising a
        counterexample.
        """
        # Imported lazily: the prover layer builds on the smt substrate, and
        # this is the one place the dependency points back up.
        from repro.prover.rulebase import RuleBase

        closure = CongruenceClosure()
        for fact in self._assumptions:
            load_fact(closure, fact)
        # Make sure the goal's terms participate in instantiation.  One
        # add_term call registers the atom's whole DAG (batched, iterative)
        # in the same post-order the old per-subterm loop produced.
        atoms = goal_atoms(goal)
        for atom in atoms:
            closure.add_term(atom)
        rules = list(self._rules) + list(extra_rules)
        instantiations, fired = RuleBase(rules).instantiate(
            closure, max_rounds=self._max_rounds)
        if closure.inconsistent():
            return CheckResult(True, goal,
                               reason="assumptions are contradictory",
                               instantiations=instantiations,
                               rules_fired=fired)
        for atom in atoms:
            if not prove_atom(closure, atom):
                return CheckResult(
                    False,
                    goal,
                    reason=f"could not derive {atom!r}",
                    instantiations=instantiations,
                    failed_atom=atom,
                    rules_fired=fired,
                )
        return CheckResult(True, goal,
                           reason="derived by congruence closure",
                           instantiations=instantiations,
                           rules_fired=fired)
