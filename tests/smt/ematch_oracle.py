"""Reference e-matcher: the linear scan the prover used to run.

Every round, :func:`instantiate_rules` tries every trigger of every rule
against every bank term with the trigger's head.  The prover instantiates
through the operator-indexed :class:`repro.prover.rulebase.RuleBase`
instead; the tests require it to derive exactly the equalities this scan
derives, and to beat it on a rule-heavy workload.  Both share the one
matcher, :func:`repro.prover.rulebase._match`, so they differ only in
which candidates they enumerate.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.prover.rulebase import _BankIndex, _head_key, _match
from repro.smt.congruence import CongruenceClosure
from repro.smt.terms import Rule, Term


def match_pattern(
    pattern: Term,
    target: Term,
    closure: CongruenceClosure,
    bindings: Optional[Dict[Term, Term]] = None,
) -> Iterator[Dict[Term, Term]]:
    """Yield every substitution making ``pattern`` equal to ``target``."""
    yield from _match(pattern, target, _BankIndex(closure), dict(bindings or {}))


def instantiate_rules(
    rules: List[Rule],
    closure: CongruenceClosure,
    max_rounds: int = 4,
    max_instances: int = 5_000,
) -> int:
    """Repeatedly instantiate quantified rules against the term bank.

    Each instantiation asserts ``lhs[sigma] = rhs[sigma]`` into the closure.
    Rounds continue until a fixed point, the round bound, or the instance
    budget is reached.  Returns the number of instantiations performed.
    """
    performed = 0
    for _round in range(max_rounds):
        changed = False
        index = _BankIndex(closure)
        for rule in rules:
            for trigger in rule.triggers:
                for target in index.by_head.get(_head_key(trigger), []):
                    for bindings in _match(trigger, target, index, {}):
                        if any(v not in bindings for v in rule.lhs.variables()):
                            continue
                        lhs = rule.lhs.substitute(bindings)
                        rhs = rule.rhs.substitute(bindings)
                        if not closure.equal(lhs, rhs):
                            closure.merge(lhs, rhs)
                            changed = True
                            performed += 1
                            if performed >= max_instances:
                                return performed
        if not changed:
            break
    return performed
