"""The mini-SMT substrate: terms, congruence closure, E-matching, contexts."""

import pickle
import sys

import pytest

from repro.smt.congruence import CongruenceClosure
from repro.smt.ematch import instantiate_rules, match_pattern
from repro.smt.solver import Context
from repro.smt.terms import CIRCUIT, QUBIT, Rule, Term, app, conj, eq, lit, ne, var


# --------------------------------------------------------------------------- #
# Terms
# --------------------------------------------------------------------------- #
def test_terms_are_hash_consed():
    a1 = app("f", var("x"), lit(1))
    a2 = app("f", var("x"), lit(1))
    assert a1 is a2
    assert hash(a1) == hash(a2)


def test_distinct_terms_are_distinct_objects():
    assert app("f", var("x")) is not app("f", var("y"))
    assert lit(1) is not lit(2)
    assert var("x", QUBIT) is not var("x", CIRCUIT)


def test_variables_and_literals_classify():
    x = var("x")
    one = lit(1)
    assert x.is_var() and not x.is_literal()
    assert one.is_literal() and not one.is_var()
    assert not app("f", x).is_var()


def test_subterms_and_variables():
    x, y = var("x"), var("y")
    term = app("f", app("g", x), y)
    subterm_ops = [t.op for t in term.subterms()]
    assert subterm_ops.count("f") == 1
    assert subterm_ops.count("g") == 1
    assert set(term.variables()) == {x, y}


def test_substitute_replaces_variables():
    x, y = var("x"), var("y")
    term = app("f", x, app("g", y))
    result = term.substitute({x: lit(3), y: lit(4)})
    assert result is app("f", lit(3), app("g", lit(4)))


# --------------------------------------------------------------------------- #
# Congruence closure
# --------------------------------------------------------------------------- #
def test_congruence_closure_merges_and_finds():
    closure = CongruenceClosure()
    a, b, c = lit("a"), lit("b"), lit("c")
    for term in (a, b, c):
        closure.add_term(term)
    closure.merge(a, b)
    assert closure.equal(a, b)
    assert not closure.equal(a, c)
    closure.merge(b, c)
    assert closure.equal(a, c)


def test_congruence_propagates_through_function_symbols():
    closure = CongruenceClosure()
    a, b = lit("a"), lit("b")
    fa, fb = app("f", a), app("f", b)
    for term in (fa, fb):
        closure.add_term(term)
    assert not closure.equal(fa, fb)
    closure.merge(a, b)
    assert closure.equal(fa, fb)


def test_congruence_is_transitive_through_nested_terms():
    closure = CongruenceClosure()
    a, b, c = lit("a"), lit("b"), lit("c")
    ffa = app("f", app("f", a))
    ffc = app("f", app("f", c))
    closure.add_term(ffa)
    closure.add_term(ffc)
    closure.merge(a, b)
    closure.merge(b, c)
    assert closure.equal(ffa, ffc)


def test_disequalities_make_the_closure_inconsistent():
    closure = CongruenceClosure()
    a, b = lit("a"), lit("b")
    closure.add_term(a)
    closure.add_term(b)
    closure.assert_disequal(a, b)
    assert not closure.inconsistent()
    closure.merge(a, b)
    assert closure.inconsistent()


def test_classes_partition_the_term_bank():
    closure = CongruenceClosure()
    a, b, c = lit("a"), lit("b"), lit("c")
    for term in (a, b, c):
        closure.add_term(term)
    closure.merge(a, b)
    classes = closure.classes()
    sizes = sorted(len(members) for members in classes.values())
    assert sizes == [1, 2]


def test_deep_chain_beyond_the_recursion_limit():
    """Registration and the merge cascade are iterative."""
    depth = sys.getrecursionlimit() + 500
    x = var("x", QUBIT)
    term = x
    for _ in range(depth):
        term = app("f", term, sort=QUBIT)
    closure = CongruenceClosure()
    closure.add_term(term)
    closure.merge(x, app("f", x, sort=QUBIT))
    assert closure.equal(x, term)


def test_closure_equalities_survive_worker_style_pickling():
    """Rules/terms ship to workers by pickle; a closure rebuilt from the
    pickled terms must reach the same conclusions."""
    x, y = var("x", QUBIT), var("y", QUBIT)
    fx, fy = app("f", x, sort=QUBIT), app("f", y, sort=QUBIT)
    shipped = pickle.loads(pickle.dumps((x, y, fx, fy)))
    closure = CongruenceClosure()
    closure.add_term(shipped[2])
    closure.add_term(shipped[3])
    closure.merge(shipped[0], shipped[1])
    assert closure.equal(shipped[2], shipped[3])  # congruence fired
    assert closure.equal(fx, fy)  # the originals are the same objects


# --------------------------------------------------------------------------- #
# E-matching
# --------------------------------------------------------------------------- #
def test_match_pattern_binds_variables():
    closure = CongruenceClosure()
    target = app("f", lit(1), app("g", lit(2)))
    closure.add_term(target)
    pattern = app("f", var("X"), app("g", var("Y")))
    matches = list(match_pattern(pattern, target, closure))
    assert len(matches) == 1
    bindings = matches[0]
    assert bindings[var("X")] is lit(1)
    assert bindings[var("Y")] is lit(2)


def test_match_pattern_fails_on_mismatched_heads():
    closure = CongruenceClosure()
    target = app("h", lit(1))
    closure.add_term(target)
    assert list(match_pattern(app("f", var("X")), target, closure)) == []


def test_match_modulo_congruence():
    """Matching sees through equalities already asserted in the closure."""
    closure = CongruenceClosure()
    a, b = lit("a"), lit("b")
    target = app("f", a)
    closure.add_term(target)
    closure.add_term(app("g", b))
    closure.merge(a, app("g", b))
    pattern = app("f", app("g", var("X")))
    matches = list(match_pattern(pattern, target, closure))
    assert any(bindings[var("X")] is b for bindings in matches)


def test_instantiate_rules_reaches_a_fixed_point():
    closure = CongruenceClosure()
    x = var("X")
    # f(f(X)) -> X  (a cancellation-shaped rule)
    rule = Rule("ff_cancel", app("f", app("f", x)), x)
    start = lit("q")
    nested = app("f", app("f", app("f", app("f", start))))
    closure.add_term(nested)
    performed = instantiate_rules([rule], closure, max_rounds=6)
    # Congruence propagation may finish the job after a single explicit
    # instantiation, so only the end state is deterministic.
    assert performed >= 1
    assert closure.equal(nested, start)
    assert closure.equal(app("f", app("f", start)), start)


# --------------------------------------------------------------------------- #
# Contexts (assume / check, push / pop)
# --------------------------------------------------------------------------- #
def test_context_proves_a_ground_equality():
    # Uninterpreted constants are 0-ary applications; distinct *literals* are
    # implicitly disequal, so merging those would make the context trivial.
    context = Context()
    a, b, c, d = app("a"), app("b"), app("c"), app("d")
    context.assume_equal(a, b)
    context.assume_equal(b, c)
    assert context.check(eq(a, c)).proved
    assert not context.check(eq(a, d)).proved


def test_context_uses_quantified_rules():
    x = var("X")
    rule = Rule("ff_cancel", app("f", app("f", x)), x)
    context = Context(rules=[rule])
    q = lit("q")
    goal = eq(app("f", app("f", q)), q)
    assert context.check(goal).proved


def test_context_conjunction_goals():
    context = Context()
    a, b, c = app("a"), app("b"), app("c")
    context.assume_equal(a, b)
    assert context.check(conj(eq(a, b), eq(b, a))).proved
    assert not context.check(conj(eq(a, b), eq(a, c))).proved


def test_context_push_pop_scopes_assumptions():
    context = Context()
    a, b = app("a"), app("b")
    context.push()
    context.assume_equal(a, b)
    assert context.check(eq(a, b)).proved
    context.pop()
    assert not context.check(eq(a, b)).proved


def test_context_disequality_goals():
    # Distinct literal values are provably different without any assumptions;
    # for uninterpreted constants the solver stays conservative and refuses to
    # derive either the equality or the disequality.
    context = Context()
    assert context.check(ne(lit(1), lit(2))).proved
    a, b = app("a"), app("b")
    context.assume(ne(a, b))
    assert not context.check(eq(a, b)).proved
    assert not context.check(ne(a, b)).proved


def test_distinct_literals_are_implicitly_disequal():
    """Merging two distinct literal values makes the closure inconsistent."""
    closure = CongruenceClosure()
    one, two = lit(1), lit(2)
    closure.add_term(one)
    closure.add_term(two)
    closure.merge(one, two)
    assert closure.inconsistent()
