"""Congruence closure over hash-consed terms: the prover's one kernel.

This is the classic union-find + congruence-table algorithm (Nelson-Oppen /
Downey-Sethi-Tarjan style): ground equalities are merged into equivalence
classes, and whenever two applications of the same function symbol have
pairwise-congruent arguments their classes are merged as well.  Together with
bounded quantifier instantiation (:mod:`repro.prover.rulebase`) this decides
the fragment of proof obligations the Giallar verifier emits.  Every
:class:`~repro.smt.solver.Context` check runs on this class: one Python
object per term, dict-based union-find.

The kernel is **deterministic**: every container that influences iteration
order is insertion-ordered (dicts, never sets), so two runs visit terms,
uses-lists, and signature collisions in exactly the same order and produce
byte-identical check results, not just equal verdicts.

Term registration is iterative (an explicit worklist): proof obligations
over deep canonical subgoals produce argument chains far past Python's
recursion limit, and ``add_term`` must absorb them without blowing the
stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.smt.terms import Term


class CongruenceClosure:
    """Maintain equivalence classes of terms closed under congruence."""

    def __init__(self) -> None:
        self._parent: Dict[Term, Term] = {}
        self._rank: Dict[Term, int] = {}
        # For each known term, the terms that use it as a direct argument.
        # Insertion-ordered (dict-as-set): merge processes users in the
        # order they were first recorded, deterministically.
        self._uses: Dict[Term, Dict[Term, None]] = {}
        # Signature table: (op, arg representatives) -> a known application.
        self._signatures: Dict[tuple, Term] = {}
        # Asserted disequalities as pairs of representatives.
        self._disequalities: List[Tuple[Term, Term]] = []
        # Registered terms in registration order (dict-as-set).
        self._terms: Dict[Term, None] = {}

    # ------------------------------------------------------------------ #
    # Union-find
    # ------------------------------------------------------------------ #
    def add_term(self, term: Term) -> None:
        """Register a term and all of its sub-terms.

        Iterative post-order (arguments before the application, left to
        right — the same order the old recursive walk produced), so deep
        argument chains never hit the recursion limit.
        """
        if term in self._terms:
            return
        stack: List[Tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if node in self._terms:
                continue
            if expanded:
                self._admit(node)
            else:
                stack.append((node, True))
                for arg in reversed(node.args):
                    if arg not in self._terms:
                        stack.append((arg, False))

    def _admit(self, term: Term) -> None:
        """Register one term whose arguments are already registered."""
        self._terms[term] = None
        self._parent[term] = term
        self._rank[term] = 0
        for arg in term.args:
            self._uses.setdefault(self.find(arg), {})[term] = None
        self._insert_signature(term)

    def find(self, term: Term) -> Term:
        """Representative of the term's equivalence class."""
        if term not in self._parent:
            self.add_term(term)
        root = term
        while self._parent[root] is not root:
            root = self._parent[root]
        while self._parent[term] is not root:
            self._parent[term], term = root, self._parent[term]
        return root

    def _signature(self, term: Term) -> Optional[tuple]:
        if not term.args:
            return None
        return (term.op, term.payload, tuple(self.find(arg) for arg in term.args))

    def _insert_signature(self, term: Term) -> None:
        signature = self._signature(term)
        if signature is None:
            return
        existing = self._signatures.get(signature)
        if existing is None:
            self._signatures[signature] = term
        elif self.find(existing) is not self.find(term):
            self._merge(existing, term)

    # ------------------------------------------------------------------ #
    # Assertions
    # ------------------------------------------------------------------ #
    def merge(self, left: Term, right: Term) -> None:
        """Assert that two terms are equal."""
        self.add_term(left)
        self.add_term(right)
        self._merge(left, right)

    def _merge(self, left: Term, right: Term) -> None:
        # Congruence propagation cascades (merging one class can make its
        # users congruent, recursively); a chain of n nested applications
        # collapsing onto one class cascades n deep, so drive the cascade
        # with an explicit stack of in-progress steps.  Each collision is
        # processed *immediately* (depth-first) — the exact order the old
        # recursive implementation produced.
        stack = [self._merge_step(left, right)]
        while stack:
            follow_up = next(stack[-1], None)
            if follow_up is None:
                stack.pop()
            else:
                stack.append(self._merge_step(*follow_up))

    def _merge_step(self, left: Term, right: Term):
        """One union; lazily yields (existing, user) collisions to merge."""
        root_left, root_right = self.find(left), self.find(right)
        if root_left is root_right:
            return
        if self._rank[root_left] < self._rank[root_right]:
            root_left, root_right = root_right, root_left
        self._parent[root_right] = root_left
        if self._rank[root_left] == self._rank[root_right]:
            self._rank[root_left] += 1
        # Users of the absorbed class may now be congruent to other terms.
        uses_right = self._uses.get(root_right)
        if not uses_right:
            return
        pending = list(uses_right)
        self._uses.setdefault(root_left, {}).update(uses_right)
        uses_right.clear()
        for user in pending:
            signature = self._signature(user)
            if signature is None:
                continue
            existing = self._signatures.get(signature)
            if existing is None:
                self._signatures[signature] = user
            elif self.find(existing) is not self.find(user):
                yield existing, user

    def assert_disequal(self, left: Term, right: Term) -> None:
        """Assert that two terms must differ (used for contradiction checks)."""
        self.add_term(left)
        self.add_term(right)
        self._disequalities.append((left, right))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def equal(self, left: Term, right: Term) -> bool:
        """Are the two terms known to be equal?"""
        self.add_term(left)
        self.add_term(right)
        if self.find(left) is self.find(right):
            return True
        # Distinct literals of the same sort are never equal, but that is a
        # *disequality* fact, not an equality, so it does not help here.
        return False

    def inconsistent(self) -> bool:
        """Is some asserted disequality violated (or two literals merged)?"""
        for left, right in self._disequalities:
            if self.find(left) is self.find(right):
                return True
        literal_classes: Dict[Term, Term] = {}
        for term in self._terms:
            if term.is_literal():
                root = self.find(term)
                other = literal_classes.get(root)
                if other is not None and other.payload != term.payload:
                    return True
                literal_classes[root] = term
        return False

    def terms(self) -> List[Term]:
        """Every registered term, in registration order (the E-matching bank)."""
        return list(self._terms)

    def classes(self) -> Dict[Term, List[Term]]:
        """Representative -> members mapping, mostly for debugging and tests."""
        out: Dict[Term, List[Term]] = {}
        for term in self._terms:
            out.setdefault(self.find(term), []).append(term)
        return out
