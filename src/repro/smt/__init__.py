"""A small SMT-style prover: terms, congruence closure, E-matching, contexts.

Import from the modules: :mod:`repro.smt.terms`, :mod:`repro.smt.congruence`,
:mod:`repro.smt.ematch` and :mod:`repro.smt.solver`.
"""
