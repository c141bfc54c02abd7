"""The bounded fallback backend: bidirectional bounded rewriting.

The seed repo used bounded checking only as an ablation harness
(:mod:`repro.verify.bounded` runs whole passes on concrete circuits).  The
pluggable prover demotes the idea to where it belongs — an explicit
*fallback solver backend*: instead of congruence closure over an
instantiated term bank, an equality goal ``lhs = rhs`` is decided by
breadth-first rewriting from both endpoints, bounded in depth and state
count, succeeding when the two frontiers meet.  This is classic bounded
model checking over the rewrite transition system: complete only up to the
bound, but an entirely independent decision procedure — which is exactly
what makes ``--solver bounded`` a useful cross-check on the builtin prover
(the solver-matrix CI job runs the whole suite under both and diffs the
reports).

Rewrites come from three places, mirroring what the builtin closure sees:

* each collected rule, applied left-to-right at any subterm position;
* the reverse orientation, when it neither invents variables nor is a bare
  "grow anything" pattern (a variable left-hand side);
* ground assumption equalities, both directions.

Matching is purely syntactic (no congruence): the discharge layer already
canonicalises symbolic gates before encoding, so on the verifier's goals the
two procedures agree — the parity tests and the CI matrix hold it to that.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.prover.backend import SolverBackend
from repro.smt.solver import CheckResult, goal_atoms
from repro.smt.terms import Rule, Term

#: One oriented rewrite: pattern, template, originating rule name.
_Orientation = Tuple[Term, Term, str]


def _syntactic_match(pattern: Term, target: Term,
                     bindings: Dict[Term, Term]) -> Optional[Dict[Term, Term]]:
    """Match ``pattern`` against ``target`` syntactically (no congruence)."""
    if pattern.is_var():
        bound = bindings.get(pattern)
        if bound is not None:
            return bindings if bound is target else None
        extended = dict(bindings)
        extended[pattern] = target
        return extended
    if pattern.op != target.op or pattern.payload != target.payload or \
            len(pattern.args) != len(target.args):
        return None
    for pattern_arg, target_arg in zip(pattern.args, target.args):
        bindings = _syntactic_match(pattern_arg, target_arg, bindings)
        if bindings is None:
            return None
    return bindings


def _rewrite_everywhere(term: Term,
                        orientations: Sequence[_Orientation]) -> Iterator[Tuple[Term, str]]:
    """Yield every single-step rewrite of ``term`` (any position, any rule)."""
    for pattern, template, name in orientations:
        bindings = _syntactic_match(pattern, term, {})
        if bindings is not None:
            rewritten = template.substitute(bindings)
            if rewritten is not term:
                yield rewritten, name
    for position, arg in enumerate(term.args):
        for new_arg, name in _rewrite_everywhere(arg, orientations):
            new_args = term.args[:position] + (new_arg,) + term.args[position + 1:]
            yield Term(term.op, new_args, term.sort, term.payload), name


def orientations_for(rules: Sequence[Rule],
                     assumptions: Sequence[Term] = ()) -> List[_Orientation]:
    """Compile rules and ground assumption equalities into oriented rewrites.

    The reverse orientation of a rule is included only when it is usable as
    a rewrite: its pattern must not be a bare variable (that matches every
    term and just grows the state space) and the template's variables must
    all be bound by the pattern.
    """
    oriented: List[_Orientation] = []
    for rule in rules:
        # A bare-variable pattern matches every term and only grows the
        # state space; the builtin's E-matcher never fires such triggers
        # either (a var trigger only matches its own variable in the
        # bank), so skipping them preserves backend parity.
        if not rule.lhs.is_var():
            oriented.append((rule.lhs, rule.rhs, rule.name))
        lhs_vars, rhs_vars = set(rule.lhs_variables), set(rule.rhs.variables())
        if not rule.rhs.is_var() and lhs_vars <= rhs_vars:
            oriented.append((rule.rhs, rule.lhs, rule.name))
    for fact in assumptions:
        facts = fact.args if fact.op == "and" else (fact,)
        for sub in facts:
            if sub.op == "=":
                left, right = sub.args
                oriented.append((left, right, "assumption"))
                oriented.append((right, left, "assumption"))
    return oriented


class BoundedBackend(SolverBackend):
    """Decide equalities by bounded bidirectional rewriting."""

    name = "bounded"

    def __init__(self, max_depth: int = 8, max_states: int = 2048) -> None:
        self.max_depth = max_depth
        self.max_states = max_states

    # ------------------------------------------------------------------ #
    def check(self, goal: Term, rules: Sequence[Rule],
              assumptions: Sequence[Term] = ()) -> CheckResult:
        orientations = orientations_for(rules, assumptions)
        total_steps = 0
        fired: Set[str] = set()
        for atom in goal_atoms(goal):
            proved, steps, used = self._prove_atom(atom, orientations)
            total_steps += steps
            fired.update(used)
            if not proved:
                return CheckResult(
                    False, goal,
                    reason=f"could not derive {atom!r}",
                    instantiations=total_steps,
                    failed_atom=atom,
                    rules_fired=tuple(sorted(fired)),
                )
        return CheckResult(
            True, goal,
            reason=f"derived by bounded rewriting (<= {self.max_depth} steps)",
            instantiations=total_steps,
            rules_fired=tuple(sorted(fired)),
        )

    # ------------------------------------------------------------------ #
    def _prove_atom(self, atom: Term,
                    orientations: Sequence[_Orientation]) -> Tuple[bool, int, Set[str]]:
        if atom.op == "=":
            return self._meet(atom.args[0], atom.args[1], orientations)
        if atom.op == "not" and atom.args and atom.args[0].op == "=":
            # Conservative, mirroring the builtin: a disequality is only
            # derivable between distinct literal values.
            left, right = atom.args[0].args
            proved = (left.is_literal() and right.is_literal()
                      and left.payload != right.payload)
            return proved, 0, set()
        if atom.op == "lit":
            return bool(atom.payload), 0, set()
        # Opaque boolean atoms need an assumption asserting them; without a
        # congruence store the bounded backend cannot derive them.
        return False, 0, set()

    def _meet(self, left: Term, right: Term,
              orientations: Sequence[_Orientation]) -> Tuple[bool, int, Set[str]]:
        """Bidirectional BFS: do the rewrite frontiers of both sides meet?"""
        if left is right:
            return True, 0, set()
        #: term -> rule names on the path that reached it (for certificates).
        seen: Dict[int, Dict[Term, Set[str]]] = {
            0: {left: set()}, 1: {right: set()}}
        frontiers: Dict[int, List[Term]] = {0: [left], 1: [right]}
        steps = 0
        for _depth in range(self.max_depth):
            # Expand the smaller frontier: meet-in-the-middle keeps the
            # explored state count near 2*sqrt of the one-sided search.
            side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
            other = 1 - side
            if not frontiers[side]:
                side, other = other, side
                if not frontiers[side]:
                    break
            next_frontier: List[Term] = []
            for term in frontiers[side]:
                path_rules = seen[side][term]
                for rewritten, name in _rewrite_everywhere(term, orientations):
                    if rewritten in seen[side]:
                        continue
                    steps += 1
                    used = path_rules | {name}
                    seen[side][rewritten] = used
                    if rewritten in seen[other]:
                        return True, steps, used | seen[other][rewritten]
                    next_frontier.append(rewritten)
                    if len(seen[0]) + len(seen[1]) >= self.max_states:
                        return False, steps, set()
            frontiers[side] = next_frontier
            if not frontiers[0] and not frontiers[1]:
                break
        return False, steps, set()

