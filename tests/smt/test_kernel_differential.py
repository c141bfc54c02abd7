"""Differential harness: the proving kernel vs independent references.

:class:`~repro.smt.congruence.CongruenceClosure` is checked against a
naive fixpoint congruence closure written here (no union by rank, no
signature table, no uses-lists: just "merge every pair of applications
whose arguments are already equal, until nothing changes"), and
:meth:`~repro.smt.solver.Context.check`, which instantiates through the
operator-indexed :class:`~repro.prover.rulebase.RuleBase`, is checked
against the same procedure driven by the reference linear scan
(:func:`tests.smt.ematch_oracle.instantiate_rules`).  Both run through
hundreds of seeded random workloads (the same per-case seeding scheme the
fuzz campaign uses, :func:`repro.fuzz.generate.case_seed`).

The kernel also promises determinism, not merely equal verdicts: two runs
over the same workload must pick identical representatives and produce
byte-identical check results, fired-rule certificates included.
"""

import random

import pytest

from repro.fuzz.generate import case_seed
from repro.smt.congruence import CongruenceClosure
from repro.smt.solver import CheckResult, Context, goal_atoms, prove_atom
from repro.smt.terms import QUBIT, Rule, app, eq, lit, var
from tests.smt.ematch_oracle import instantiate_rules

BASE_SEED = 20220613  # the paper's conference date; any constant works
NUM_CLOSURE_CASES = 200
NUM_CONTEXT_CASES = 40


def _random_bank(rng: random.Random, size: int = 50):
    """A random DAG of applications over a small pool of leaves."""
    pool = [var(f"v{i}", QUBIT) for i in range(4)]
    pool += [lit(str(i), QUBIT) for i in range(3)]
    for _ in range(size):
        op = rng.choice(["f", "g", "h"])
        arity = rng.randint(1, 3)
        args = [rng.choice(pool) for _ in range(arity)]
        pool.append(app(op, *args, sort=QUBIT))
    return pool


def _drive(closure, rng: random.Random, pool):
    """One seeded workload: registrations, merges, disequalities."""
    for term in pool:
        closure.add_term(term)
    for _ in range(20):
        closure.merge(rng.choice(pool), rng.choice(pool))
    for _ in range(4):
        closure.assert_disequal(rng.choice(pool), rng.choice(pool))


class _NaiveClosure:
    """The least congruence containing the asserted equalities, by fixpoint.

    Records operations and answers queries from scratch; it shares no code
    and no data structure with the production kernel.
    """

    def __init__(self) -> None:
        self.bank = {}  # registered terms, registration order
        self.equalities = []
        self.disequalities = []

    def add_term(self, term) -> None:
        if term in self.bank:
            return
        for arg in term.args:
            self.add_term(arg)
        self.bank[term] = None

    def merge(self, left, right) -> None:
        self.add_term(left)
        self.add_term(right)
        self.equalities.append((left, right))

    def assert_disequal(self, left, right) -> None:
        self.add_term(left)
        self.add_term(right)
        self.disequalities.append((left, right))

    def roots(self):
        """Term -> class label after closing under congruence."""
        parent = {term: term for term in self.bank}

        def root(term):
            while parent[term] is not term:
                term = parent[term]
            return term

        for left, right in self.equalities:
            parent[root(left)] = root(right)
        changed = True
        while changed:
            changed = False
            seen = {}
            for term in self.bank:
                if not term.args:
                    continue
                key = (term.op, term.payload,
                       tuple(root(arg) for arg in term.args))
                other = seen.setdefault(key, term)
                if root(other) is not root(term):
                    parent[root(term)] = root(other)
                    changed = True
        return {term: root(term) for term in self.bank}

    def inconsistent(self) -> bool:
        roots = self.roots()
        if any(roots[left] is roots[right]
               for left, right in self.disequalities):
            return True
        payloads = {}
        for term in self.bank:
            if term.is_literal():
                payloads.setdefault(roots[term], set()).add(term.payload)
        return any(len(values) > 1 for values in payloads.values())


def _partition(bank, label):
    """The classes of ``bank`` under ``label``, each in bank order."""
    classes = {}
    for term in bank:
        classes.setdefault(label(term), []).append(term)
    return {tuple(members) for members in classes.values()}


@pytest.mark.parametrize("index", range(NUM_CLOSURE_CASES))
def test_closure_answers_are_identical(index):
    seed = case_seed(BASE_SEED, index)
    pool = _random_bank(random.Random(seed))
    kernel, rerun, naive = CongruenceClosure(), CongruenceClosure(), _NaiveClosure()
    for closure in (kernel, rerun, naive):
        _drive(closure, random.Random(seed), pool)
    roots = naive.roots()

    # Same bank, same order: the E-matching surface is post-order
    # registration, arguments left to right before their application.
    assert kernel.terms() == list(naive.bank)
    # Same verdict on inconsistency (asserted disequalities + literals).
    assert kernel.inconsistent() == naive.inconsistent()
    # Same classes as the least congruence, through find() and classes().
    expected = _partition(naive.bank, roots.__getitem__)
    assert _partition(kernel.terms(), kernel.find) == expected
    assert {tuple(members)
            for members in kernel.classes().values()} == expected
    # ...hence an identical equality matrix on a sample of pairs.
    probe = random.Random(seed ^ 0x5F5E100)
    for _ in range(60):
        left, right = probe.choice(pool), probe.choice(pool)
        assert kernel.equal(left, right) == (roots[left] is roots[right])
    # Deterministic: a second run picks identical representatives
    # (object identity, not mere equality).
    for term in pool:
        assert kernel.find(term) is rerun.find(term)


def _random_rules_and_goal(rng: random.Random):
    """A small rewrite system plus a goal its closure may or may not reach."""
    x = var("X", QUBIT)
    rules = []
    ops = ["f", "g", "h", "k"]
    for index in range(rng.randint(2, 5)):
        lhs_op, rhs_op = rng.sample(ops, 2)
        lhs = app(lhs_op, x, sort=QUBIT)
        rhs = app(rhs_op, x, sort=QUBIT) if rng.random() < 0.7 else x
        rules.append(Rule(f"r{index}-{lhs_op}-{rhs_op}", lhs, rhs))
    leaf = var("q", QUBIT)
    left = leaf
    for _ in range(rng.randint(1, 4)):
        left = app(rng.choice(ops), left, sort=QUBIT)
    right = leaf
    for _ in range(rng.randint(0, 3)):
        right = app(rng.choice(ops), right, sort=QUBIT)
    return rules, eq(left, right)


def _certificate(result: CheckResult):
    return repr((result.proved, result.reason, result.instantiations,
                 result.rules_fired, repr(result.failed_atom)))


def _linear_scan_check(rules, goal, max_rounds=4):
    """Context.check's procedure, instantiated by the reference scan."""
    closure = CongruenceClosure()
    atoms = goal_atoms(goal)
    for atom in atoms:
        closure.add_term(atom)
    instantiate_rules(list(rules), closure, max_rounds=max_rounds)
    if closure.inconsistent():
        return True, None
    for atom in atoms:
        if not prove_atom(closure, atom):
            return False, atom
    return True, None


@pytest.mark.parametrize("index", range(NUM_CONTEXT_CASES))
def test_context_certificates_are_byte_identical(index):
    """Checks agree with the linear scan on verdict and failed atom, are
    byte-identical across runs, and replay along their fired rules."""
    seed = case_seed(BASE_SEED + 1, index)
    rules, goal = _random_rules_and_goal(random.Random(seed))
    result = Context(rules).check(goal)
    assert _certificate(Context(rules).check(goal)) == _certificate(result)

    assert (result.proved, result.failed_atom) \
        == _linear_scan_check(rules, goal)
    assert set(result.rules_fired) <= {rule.name for rule in rules}
    if result.proved:
        fired = [rule for rule in rules if rule.name in result.rules_fired]
        assert Context(fired).check(goal).proved
    else:
        assert result.failed_atom is not None


def test_harness_is_not_vacuous():
    """At least some seeded contexts actually prove their goal (and some
    fail), so the comparisons above compare real work."""
    proved = 0
    for index in range(NUM_CONTEXT_CASES):
        seed = case_seed(BASE_SEED + 1, index)
        rules, goal = _random_rules_and_goal(random.Random(seed))
        if Context(rules).check(goal).proved:
            proved += 1
    assert 0 < proved < NUM_CONTEXT_CASES
