"""Giallar reproduction: push-button verification for a Qiskit-style compiler.

The package is organised as:

* :mod:`repro.circuit`, :mod:`repro.dag`, :mod:`repro.qasm`, :mod:`repro.linalg`,
  :mod:`repro.coupling` — the circuit IRs, OpenQASM 2 front-end, dense-matrix
  semantics, and device models;
* :mod:`repro.smt`, :mod:`repro.symbolic` — the solver and the quantum-circuit
  rewrite rules;
* :mod:`repro.verify`, :mod:`repro.utility`, :mod:`repro.passes` — the
  push-button verifier, the verified utility library, and the 44 verified
  compiler passes (plus the buggy case-study variants);
* :mod:`repro.transpiler`, :mod:`repro.bench` — the baseline compiler and the
  benchmark harnesses for Table 2, Figure 11, and the Section 7 case studies.

A package ``__init__`` that re-exports names imports each one on first use
(:mod:`repro._exports`), so importing the package loads none of its
submodules; :mod:`repro.passes` stays eager, since ``--all`` needs every
pass class.
"""

from typing import TYPE_CHECKING

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.circuit.circuit import QCircuit
    from repro.circuit.gate import Gate
    from repro.verify.passes import AnalysisPass, GeneralPass, RoutingPass
    from repro.verify.results import VerificationResult
    from repro.verify.verifier import verify_pass, verify_passes

__getattr__ = lazy_exports(__name__, {
    "repro.circuit.circuit": ("QCircuit",),
    "repro.circuit.gate": ("Gate",),
    "repro.verify.passes": ("AnalysisPass", "GeneralPass", "RoutingPass"),
    "repro.verify.results": ("VerificationResult",),
    "repro.verify.verifier": ("verify_pass", "verify_passes"),
})

__version__ = "0.1.0"

__all__ = [
    "AnalysisPass",
    "Gate",
    "GeneralPass",
    "QCircuit",
    "RoutingPass",
    "VerificationResult",
    "__version__",
    "verify_pass",
    "verify_passes",
]
