"""The builtin solver backend: congruence closure + indexed E-matching.

This is the seed prover (:class:`repro.smt.solver.Context`) behind the
:class:`~repro.prover.backend.SolverBackend` protocol — the check itself
*is* a ``Context.check`` (one definition of the procedure: congruence
closure plus the operator-indexed :class:`~repro.prover.rulebase.RuleBase`)
— plus the speedup the pluggable refactor pays for: whole check runs are
memoised on ``(goal, rule contents, assumptions)``.  Passes re-discharge
structurally identical goals under identical collected rule sets many
times per suite, and terms are hash-consed, so the key is exact content
identity, never a heuristic.

The memo is process-local and dropped by
:func:`repro.prover.backend.reset_solver_state` (module reloads, interning
resets) because cached :class:`~repro.smt.solver.CheckResult` objects hold
terms.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.prover.backend import SolverBackend
from repro.smt.solver import CheckResult, Context
from repro.smt.terms import Rule, Term

#: Bound on distinct memoised check runs; past it the memo is cleared whole
#: (simpler than LRU, and a process that accumulates this many distinct
#: goals is churning source anyway).
_MEMO_LIMIT = 8192

#: Instantiation rounds: matches the seed discharge engine's Context budget.
MAX_ROUNDS = 6


class BuiltinBackend(SolverBackend):
    """Congruence closure with bounded, operator-indexed instantiation."""

    name = "builtin"

    def __init__(self) -> None:
        self._memo: Dict[Tuple, CheckResult] = {}
        # Plain ints: always maintained, cheap enough to never gate.
        self.memo_hits = 0
        self.memo_misses = 0

    def reset(self) -> None:
        self._memo.clear()

    def stats(self) -> Dict[str, object]:
        return {
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_entries": len(self._memo),
        }

    # ------------------------------------------------------------------ #
    def check(self, goal: Term, rules: Sequence[Rule],
              assumptions: Sequence[Term] = ()) -> CheckResult:
        # Keyed on rule *content* (terms are hash-consed, so identity is
        # content) without compiling the index first: a memo hit — the hot
        # path — must not pay RuleBase construction.
        key = (
            goal,
            tuple((rule.name, rule.lhs, rule.rhs, rule.triggers)
                  for rule in rules),
            tuple(assumptions),
        )
        cached = self._memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        self.memo_misses += 1
        # One definition of the procedure: the backend *is* a Context
        # check (same loading, instantiation, and atom-proving code), just
        # wrapped in memoisation and the discharge engine's round budget.
        context = Context(rules=rules, max_rounds=MAX_ROUNDS)
        for fact in assumptions:
            context.assume(fact)
        result = context.check(goal)
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = result
        return result

