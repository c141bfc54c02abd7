"""The verified utility library shared by the compiler passes.

Import from the modules: :mod:`repro.utility.circuit_ops`,
:mod:`repro.utility.coupling_ops`, :mod:`repro.utility.merge`,
:mod:`repro.utility.transforms`, :mod:`repro.utility.analysis_ops` and
:mod:`repro.utility.layout_selection`.
"""
