"""A small SMT-style prover: terms, congruence closure, contexts.

Import from the modules: :mod:`repro.smt.terms`, :mod:`repro.smt.congruence`
and :mod:`repro.smt.solver`.  E-matching lives in
:mod:`repro.prover.rulebase`.
"""
