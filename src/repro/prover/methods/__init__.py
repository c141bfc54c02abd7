"""The discharge pipeline's method modules (Section 6, one file per method).

The seed repo kept the whole subgoal-discharge back end in one
``verify/discharge.py``; the pluggable prover splits it by method so each
stage can evolve (and be certified and replayed) independently:

* :mod:`repro.prover.methods.syntactic` — the ``identical`` check;
* :mod:`repro.prover.methods.sequence` — the concrete-gate sequence engine;
* :mod:`repro.prover.methods.congruence` — fact indexing, term encoding,
  rule collection, and the hand-off to the selected
  :class:`~repro.prover.backend.SolverBackend`;
* :mod:`repro.prover.methods.structural` — termination, coupling,
  routing-structure, and layout library lemmas.

:class:`DischargeResult`, which every method module constructs, lives in
:mod:`repro.verify.results` with the other result records and is
re-exported here.
"""

from __future__ import annotations

from repro.verify.results import DischargeResult

# After DischargeResult: each method module imports it from this package.
from repro.prover.methods import (
    congruence,
    sequence,
    structural,
    syntactic,
)

__all__ = [
    "DischargeResult",
    "congruence",
    "sequence",
    "structural",
    "syntactic",
]
