"""The Z3 solver backend (optional, auto-detected).

The paper's verifier discharges register-term goals through Z3Py; this
backend restores that option when the ``z3-solver`` package is installed.
Detection is at run time — :meth:`Z3Backend.available` answers without
raising — so environments without z3 (the common case for this repo's CI
and the default container) simply resolve ``--solver z3`` to a
:class:`~repro.errors.SolverUnavailable` error, and the CI
solver-matrix job skips the z3 leg.

Encoding: every repro sort becomes an uninterpreted z3 sort, variables and
applications map one-to-one, and literals become fresh uninterpreted
constants that are pairwise ``Distinct`` per sort (matching the builtin
closure's "distinct literals never merge" axiom).  Each quantified rule is
asserted as a universally quantified equality with its triggers as
E-matching patterns; each goal atom is proved by refutation
(``unsat(assumptions ∧ rules ∧ ¬atom)``).  ``unknown`` — a timeout or a
quantifier z3 gives up on — counts as *not proved*, never as proved, so the
backend stays sound.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.prover.backend import SolverBackend
from repro.smt.solver import CheckResult, goal_atoms
from repro.smt.terms import Rule, Term

#: Per-atom solver timeout (milliseconds): a hung quantifier instantiation
#: must degrade into "not proved", not stall the verification run.
_TIMEOUT_MS = 5_000


class Z3Backend(SolverBackend):
    """Register-term goals decided by the real Z3, when installed."""

    name = "z3"

    def available(self) -> bool:
        try:
            import z3  # noqa: F401
        except ImportError:
            return False
        return True

    # ------------------------------------------------------------------ #
    def check(self, goal: Term, rules: Sequence[Rule],
              assumptions: Sequence[Term] = ()) -> CheckResult:
        import z3

        encoder = _Z3Encoder(z3)
        solver = z3.Solver()
        solver.set("timeout", _TIMEOUT_MS)
        for rule in rules:
            solver.add(encoder.encode_rule(rule))
        for fact in assumptions:
            solver.add(encoder.encode_bool(fact))
        # Encode every goal atom *before* asserting literal distinctness:
        # a literal first seen in the goal must be covered by the Distinct
        # axioms too, or a disequality over goal-only literals is lost.
        atoms = goal_atoms(goal)
        encoded_atoms = [encoder.encode_bool(atom) for atom in atoms]
        for constraint in encoder.literal_distinctness():
            solver.add(constraint)

        for atom, encoded in zip(atoms, encoded_atoms):
            solver.push()
            solver.add(z3.Not(encoded))
            verdict = solver.check()
            solver.pop()
            if verdict != z3.unsat:
                return CheckResult(
                    False, goal,
                    reason=f"could not derive {atom!r}",
                    failed_atom=atom,
                    rules_fired=(),
                )
        # z3 cannot observe which quantifiers it instantiated, so the
        # certificate records the full collected set — an upper bound on
        # the fired rules.  Replay restriction against it is therefore a
        # sound no-op for z3 proofs (unlike builtin/bounded, whose
        # ``rules_fired`` is the genuine firing set).
        return CheckResult(True, goal, reason="derived by z3",
                           rules_fired=tuple(sorted(r.name for r in rules)))


class _Z3Encoder:
    """Translate hash-consed repro terms into z3 ASTs."""

    def __init__(self, z3_module) -> None:
        self._z3 = z3_module
        self._sorts: Dict[str, object] = {}
        self._functions: Dict[Tuple[str, object, int, str], object] = {}
        self._literals: Dict[Tuple[str, object], object] = {}

    def _sort(self, name: str):
        sort = self._sorts.get(name)
        if sort is None:
            sort = self._z3.DeclareSort(f"repro_{name}")
            self._sorts[name] = sort
        return sort

    def encode(self, term: Term):
        z3_module = self._z3
        if term.is_var():
            return z3_module.Const(f"var_{term.payload}_{term.sort}",
                                   self._sort(term.sort))
        if term.is_literal():
            key = (term.sort, term.payload)
            constant = self._literals.get(key)
            if constant is None:
                constant = z3_module.Const(
                    f"lit_{len(self._literals)}", self._sort(term.sort))
                self._literals[key] = constant
            return constant
        signature = (term.op, term.payload, len(term.args), term.sort)
        function = self._functions.get(signature)
        if function is None:
            domain = [self._sort(arg.sort) for arg in term.args]
            function = z3_module.Function(
                f"fn_{term.op}_{len(self._functions)}",
                *domain, self._sort(term.sort))
            self._functions[signature] = function
        return function(*(self.encode(arg) for arg in term.args))

    def encode_bool(self, fact: Term):
        z3_module = self._z3
        if fact.op == "and":
            return z3_module.And(*(self.encode_bool(sub) for sub in fact.args))
        if fact.op == "=":
            return self.encode(fact.args[0]) == self.encode(fact.args[1])
        if fact.op == "not" and fact.args:
            return z3_module.Not(self.encode_bool(fact.args[0]))
        if fact.op == "lit":
            return z3_module.BoolVal(bool(fact.payload))
        # Opaque boolean atom: a fresh boolean constant per distinct term.
        return self.encode(fact) == self.encode(Term("lit", (), "Bool", True))

    def encode_rule(self, rule: Rule):
        z3_module = self._z3
        variables = [self.encode(v) for v in rule.lhs_variables]
        body = self.encode(rule.lhs) == self.encode(rule.rhs)
        if not variables:
            return body
        patterns = []
        try:
            patterns = [z3_module.MultiPattern(
                *(self.encode(t) for t in rule.triggers))]
        except Exception:
            patterns = []  # z3 rejects some patterns; quantify unguided
        if patterns:
            return z3_module.ForAll(variables, body, patterns=patterns)
        return z3_module.ForAll(variables, body)

    def literal_distinctness(self) -> List[object]:
        """Distinct-literal axioms per sort (mirrors the builtin closure)."""
        by_sort: Dict[str, List[object]] = {}
        for (sort, _payload), constant in self._literals.items():
            by_sort.setdefault(sort, []).append(constant)
        return [self._z3.Distinct(*constants)
                for constants in by_sort.values() if len(constants) > 1]

