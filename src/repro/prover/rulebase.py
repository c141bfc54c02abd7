"""E-matching through an operator-indexed compilation of a rewrite-rule set.

Patterns are ordinary terms containing variables.  A pattern matches a
ground term modulo the current congruence: at each position the matched
sub-term may be any member of the equivalence class of the corresponding
ground sub-term.  Matching runs against per-round indexes of the term bank
(:class:`_BankIndex`: class membership and head-symbol indexes), so
instantiation stays cheap even as rule applications grow the bank.

A :class:`RuleBase` compiles the rule set once into a two-level index, so
that a trigger never probes the bank for terms it cannot match:

* level 1 keys every trigger by its head ``(op, payload, arity)``;
* level 2 exploits the shape of this verifier's register rules — the
  discriminating position of ``apply(gate, register)`` triggers is the
  *first argument*, an encoded gate/segment literal — by keying such
  triggers additionally on that literal's payload.  At instantiation time
  candidates are grouped by the congruence root of their first argument,
  and a trigger only ever sees candidates whose first-argument class
  contains its literal.

The arg-0 filter is congruence-aware, so it is exact: a candidate it skips
cannot contribute any substitution a scan of every rule against every
candidate would have found through that candidate that is not also found
through the candidate's matching class member (which is enumerated in its
own right).  The compiled form is reusable across checks, hashable for
memoisation (:meth:`RuleBase.fingerprint` — terms are hash-consed, so term
identity is content identity), and instrumented:
:meth:`RuleBase.instantiate` reports *which* rules fired, which is what
proof certificates record and replay re-proves from.

This is the only e-matcher.  The tests keep the seed's linear scan, which
tries every rule's triggers against every candidate each round, as the
parity oracle: ``tests/prover/test_rulebase.py`` asserts the index derives
exactly the equalities the scan derives, and that it beats the scan on a
rule-heavy workload.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.smt.congruence import CongruenceClosure
from repro.smt.terms import Rule, Term

#: Index key of one trigger head: operator, payload, arity.
HeadKey = Tuple[str, object, int]


def _head_key(term: Term) -> HeadKey:
    return (term.op, term.payload, len(term.args))


class _BankIndex:
    """Snapshot indexes of the closure's term bank for one matching round."""

    def __init__(self, closure: CongruenceClosure) -> None:
        self.closure = closure
        self.members: Dict[Term, List[Term]] = defaultdict(list)
        self.by_head: Dict[HeadKey, List[Term]] = defaultdict(list)
        for term in closure.terms():
            root = closure.find(term)
            self.members[root].append(term)
            self.by_head[_head_key(term)].append(term)

    def class_members(self, term: Term) -> List[Term]:
        root = self.closure.find(term)
        members = self.members.get(root)
        return members if members else [term]


def _match(pattern: Term, target: Term, index: _BankIndex,
           bindings: Dict[Term, Term]) -> Iterator[Dict[Term, Term]]:
    closure = index.closure
    if pattern.is_var():
        bound = bindings.get(pattern)
        if bound is not None:
            if closure.equal(bound, target):
                yield bindings
            return
        new_bindings = dict(bindings)
        new_bindings[pattern] = target
        yield new_bindings
        return
    if pattern.is_literal():
        if target.is_literal() and target.payload == pattern.payload:
            yield bindings
            return
        for member in index.class_members(target):
            if member.is_literal() and member.payload == pattern.payload:
                yield bindings
                return
        return
    for member in index.class_members(target):
        if (
            member.op != pattern.op
            or member.payload != pattern.payload
            or len(member.args) != len(pattern.args)
        ):
            continue
        yield from _match_args(pattern.args, member.args, index, bindings)


def _match_args(pattern_args, target_args, index, bindings) -> Iterator[Dict[Term, Term]]:
    if not pattern_args:
        yield bindings
        return
    head_pattern, *rest_patterns = pattern_args
    head_target, *rest_targets = target_args
    for new_bindings in _match(head_pattern, head_target, index, bindings):
        yield from _match_args(tuple(rest_patterns), tuple(rest_targets), index, new_bindings)


class RuleBase:
    """A rewrite-rule set compiled into an operator-indexed trigger table."""

    __slots__ = ("rules", "_by_head", "_by_head_arg0", "_fingerprint")

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules: Tuple[Rule, ...] = tuple(rules)
        #: head -> [(rule, trigger)] for triggers with no literal discriminator.
        self._by_head: Dict[HeadKey, List[Tuple[Rule, Term]]] = {}
        #: head -> arg0 literal payload -> [(rule, trigger)].
        self._by_head_arg0: Dict[HeadKey, Dict[object, List[Tuple[Rule, Term]]]] = {}
        for rule in self.rules:
            for trigger in rule.triggers:
                head = _head_key(trigger)
                if trigger.args and trigger.args[0].is_literal():
                    self._by_head_arg0.setdefault(head, {}).setdefault(
                        trigger.args[0].payload, []).append((rule, trigger))
                else:
                    self._by_head.setdefault(head, []).append((rule, trigger))
        self._fingerprint = None

    def __len__(self) -> int:
        return len(self.rules)

    def fingerprint(self) -> Tuple:
        """A hashable identity for memoising checks against this rule set.

        Terms are hash-consed, so the tuple of (name, lhs, rhs, triggers)
        identities *is* the rule set's content; two independently collected
        but identical rule sets produce equal fingerprints.
        """
        if self._fingerprint is None:
            self._fingerprint = tuple(
                (rule.name, rule.lhs, rule.rhs, rule.triggers)
                for rule in self.rules
            )
        return self._fingerprint

    # ------------------------------------------------------------------ #
    def _instantiate_round(self, closure: CongruenceClosure,
                           budget: List[int], fired: Set[str],
                           instances: Set[Tuple]) -> bool:
        """One instantiation round; returns whether anything merged.

        ``instances`` holds every ``(rule, *bound terms)`` this check has
        already asserted or found equal; a match that binds one again is
        skipped before its sides are built (see :meth:`instantiate`).
        """
        index = _BankIndex(closure)
        changed = False

        # Literal payload -> congruence roots holding a literal with it,
        # computed once per round for the arg-0 discriminator.
        literal_roots: Dict[object, Set[Term]] = defaultdict(set)
        needs_roots = bool(self._by_head_arg0)
        if needs_roots:
            for term in closure.terms():
                if term.is_literal():
                    literal_roots[term.payload].add(closure.find(term))

        def try_match(rule: Rule, trigger: Term, target: Term) -> bool:
            nonlocal changed
            for bindings in _match(trigger, target, index, {}):
                try:
                    instance = (rule, *[bindings[v] for v in rule.lhs_variables])
                except KeyError:
                    continue
                if instance in instances:
                    continue
                instances.add(instance)
                lhs = rule.lhs.substitute(bindings)
                rhs = rule.rhs.substitute(bindings)
                if not closure.equal(lhs, rhs):
                    closure.merge(lhs, rhs)
                    changed = True
                    budget[0] += 1
                    fired.add(rule.name)
                    if budget[0] >= budget[1]:
                        return True
            return False

        for head, targets in list(index.by_head.items()):
            plain = self._by_head.get(head)
            if plain:
                for rule, trigger in plain:
                    for target in targets:
                        if try_match(rule, trigger, target):
                            return changed
            discriminated = self._by_head_arg0.get(head)
            if discriminated:
                by_arg0_root: Dict[Term, List[Term]] = defaultdict(list)
                for target in targets:
                    by_arg0_root[closure.find(target.args[0])].append(target)
                for payload, pairs in discriminated.items():
                    for root in literal_roots.get(payload, ()):
                        for target in by_arg0_root.get(root, ()):
                            for rule, trigger in pairs:
                                if try_match(rule, trigger, target):
                                    return changed
        return changed

    def instantiate(
        self,
        closure: CongruenceClosure,
        max_rounds: int = 4,
        max_instances: int = 5_000,
    ) -> Tuple[int, Tuple[str, ...]]:
        """Instantiate the rule set against the closure's term bank.

        Each match asserts ``lhs[sigma] = rhs[sigma]``; rounds continue
        until a fixed point, ``max_rounds`` or ``max_instances``.  The
        candidates come from the index (see the module docstring).  Returns ``(instantiations_performed,
        fired_rule_names)``; the fired names are sorted and deduplicated,
        ready for a proof certificate.

        An instance — a rule and the terms its lhs variables are bound to —
        is built and compared once per check.  Merges are monotone, so an
        instance asserted or found equal earlier in the check is equal
        still: building it again would merge nothing and count nothing,
        and skipping it leaves the counts and the fired names as they were.
        """
        if not self.rules:
            return 0, ()
        budget = [0, max_instances]  # [performed, limit]
        fired: Set[str] = set()
        instances: Set[Tuple] = set()
        for _round in range(max_rounds):
            changed = self._instantiate_round(closure, budget, fired, instances)
            if budget[0] >= max_instances or not changed:
                break
        return budget[0], tuple(sorted(fired))
