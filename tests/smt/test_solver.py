"""Tests for the mini-SMT substrate: terms, congruence closure, contexts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.smt.congruence import CongruenceClosure
from repro.smt.solver import Context
from repro.smt.terms import Rule, app, eq, lit, ne, var
from tests.smt.ematch_oracle import instantiate_rules, match_pattern


# --------------------------------------------------------------------------- #
# Terms
# --------------------------------------------------------------------------- #
def test_terms_are_hash_consed():
    a1 = app("f", app("a"), sort="Qubit")
    a2 = app("f", app("a"), sort="Qubit")
    assert a1 is a2
    assert a1 is not app("f", app("b"))


def test_variables_and_substitution():
    x = var("x")
    term = app("f", x, app("g", x))
    assert term.variables() == [x]
    ground = term.substitute({x: app("a")})
    assert ground.variables() == []
    assert repr(ground) == "f(a, g(a))"


def test_rule_rejects_unbound_rhs_variables():
    with pytest.raises(SolverError):
        Rule("bad", app("f", var("x")), var("y"))


# --------------------------------------------------------------------------- #
# Congruence closure
# --------------------------------------------------------------------------- #
def test_congruence_propagates_through_functions():
    closure = CongruenceClosure()
    a, b, c = app("a"), app("b"), app("c")
    closure.merge(a, b)
    assert closure.equal(app("f", a), app("f", b))
    assert not closure.equal(app("f", a), app("f", c))
    closure.merge(b, c)
    assert closure.equal(app("f", a), app("f", c))


def test_transitivity_chain():
    closure = CongruenceClosure()
    terms = [app(f"t{i}") for i in range(10)]
    for first, second in zip(terms, terms[1:]):
        closure.merge(first, second)
    assert closure.equal(terms[0], terms[-1])


def test_nested_congruence():
    closure = CongruenceClosure()
    a, b = app("a"), app("b")
    closure.merge(a, b)
    assert closure.equal(app("f", app("g", a)), app("f", app("g", b)))


def test_inconsistency_detection():
    closure = CongruenceClosure()
    a, b = app("a"), app("b")
    closure.assert_disequal(a, b)
    assert not closure.inconsistent()
    closure.merge(a, b)
    assert closure.inconsistent()


def test_distinct_literals_conflict():
    closure = CongruenceClosure()
    closure.merge(lit(1), lit(2))
    assert closure.inconsistent()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=12))
def test_closure_matches_naive_union_find(pairs):
    """Congruence closure on constants behaves like plain union-find."""
    closure = CongruenceClosure()
    parent = list(range(9))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    constants = [app(f"c{i}") for i in range(9)]
    for a, b in pairs:
        closure.merge(constants[a], constants[b])
        parent[find(a)] = find(b)
    for i in range(9):
        for j in range(9):
            assert closure.equal(constants[i], constants[j]) == (find(i) == find(j))


# --------------------------------------------------------------------------- #
# E-matching and the context
# --------------------------------------------------------------------------- #
def test_match_pattern_binds_variables():
    closure = CongruenceClosure()
    target = app("f", app("a"), app("b"))
    closure.add_term(target)
    x, y = var("x"), var("y")
    matches = list(match_pattern(app("f", x, y), target, closure))
    assert len(matches) == 1
    assert matches[0][x] is app("a")


def test_instantiate_rules_reaches_fixed_point():
    closure = CongruenceClosure()
    q = var("Q")
    rule = Rule("collapse", app("f", app("f", q)), q)
    start = app("f", app("f", app("f", app("f", app("c")))))
    closure.add_term(start)
    instantiate_rules([rule], closure)
    assert closure.equal(start, app("c"))


def test_context_paper_example_p6_p7_imply_g3():
    """The Section 6 derivation: P6 and P7 imply G3."""
    q = var("Q", "Circuit")
    p6 = Rule("P6", app("CX", app("C1", q)), app("C1", app("CX", q)))
    p7 = Rule("P7", app("CX", app("CX", q)), q)
    context = Context(rules=[p6, p7])
    q_prime = app("Qprime", sort="Circuit")
    goal = eq(app("CX", app("C1", app("CX", q_prime))), app("C1", q_prime))
    assert context.check(goal).proved
    # Without the cancellation rule the goal must not be provable.
    assert not Context(rules=[p6]).check(goal).proved


def test_context_assumptions_and_push_pop():
    context = Context()
    a, b, c = app("a"), app("b"), app("c")
    context.assume_equal(app("f", a), b)
    context.assume_equal(a, c)
    assert context.check(eq(app("f", c), b)).proved
    context.push()
    context.assume_equal(b, c)
    assert context.check(eq(app("f", c), c)).proved
    context.pop()
    assert not context.check(eq(b, c)).proved
    with pytest.raises(SolverError):
        context.pop()


def test_context_contradictory_assumptions_prove_anything():
    context = Context()
    context.assume(ne(app("a"), app("a")))
    context.assume_equal(app("a"), app("a"))
    # a != a together with a == a is inconsistent, so any goal follows.
    assert context.check(eq(app("x"), app("y"))).proved


def test_check_reports_failed_atom():
    context = Context()
    result = context.check(eq(app("a"), app("b")))
    assert not result.proved
    assert result.failed_atom is not None
